"""Gate semantics on check matrices and infinite-depth synthesis."""

from __future__ import annotations

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from eaqconv.construct import build_code
from eaqconv.errors import DimensionMismatch, PolyParseError
from eaqconv.gates import (
    Circuit,
    Gate,
    QuantumCheckMatrix,
    SlidingWindowRule,
    apply_gate,
    cnot,
    cphase,
    cphase_self,
    format_gate,
    hadamard,
    inf_depth,
    phase,
    swap,
    synthesize_infinite_depth,
    time_reversed_rule,
)
from eaqconv.poly import ZERO, LaurentPoly, RationalPoly, parse_poly
from eaqconv.poly import parse_poly as P
from eaqconv.polymat import PolyMatrix, format_matrix, format_rows, parse_matrix
from support import alice_cols, golden_pairs, parse_circuit, parse_gate


def qcm(ztext, xtext, bob_cols=0, info=None):
    return QuantumCheckMatrix(parse_matrix(ztext), parse_matrix(xtext), bob_cols=bob_cols, info=info)


# -- the worked finite-depth encoding, step by step ---------------------------

EBIT_START = qcm("1, 1, 0\n0, 0, 0", "0, 0, 0\n1, 1, 0", bob_cols=1)


def test_cnot_pair_delayed_frames():
    m = apply_gate(apply_gate(EBIT_START, cnot(0, 1, 1)), cnot(0, 1, 2))
    assert m.z == parse_matrix("1, 1, 0\n0, 0, 0")
    assert m.x == parse_matrix("0, 0, 0\n1, 1, D+D^2")


def test_hadamard_pair():
    m = apply_gate(apply_gate(EBIT_START, cnot(0, 1, 1)), cnot(0, 1, 2))
    m = apply_gate(apply_gate(m, hadamard(0)), hadamard(1))
    assert m.z == parse_matrix("1, 0, 0\n0, 1, D+D^2")
    assert m.x == parse_matrix("0, 1, 0\n1, 0, 0")


def test_full_encoding_sequence():
    m = EBIT_START
    for g in [cnot(0, 1, 1), cnot(0, 1, 2), hadamard(0), hadamard(1), cnot(0, 1, 1)]:
        m = apply_gate(m, g)
    assert m.z == parse_matrix("1, 0, 0\n0, D, D+D^2")
    assert m.x == parse_matrix("0, 1, D\n1, 0, 0")
    m = apply_gate(m, cnot(1, 0, 1))
    assert m.z == parse_matrix("1, 0, 0\n0, D, 1+D+D^2")
    assert m.x == parse_matrix("0, 1+D^2, D\n1, 0, 0")
    m = apply_gate(m, cnot(0, 1, 0))
    assert m.z == parse_matrix("1, 0, 0\n0, 1+D^2, 1+D+D^2")
    assert m.x == parse_matrix("0, 1+D^2, 1+D+D^2\n1, 0, 0")


def test_gate_cannot_touch_receiver_columns():
    with pytest.raises(IndexError):
        apply_gate(EBIT_START, cnot(1, 2, 0))  # only two sender qubits exist
    # full-frame gates may address the receiver half explicitly
    m = apply_gate(EBIT_START, cnot(0, 1, 0, full_frame=True))
    assert m.x == parse_matrix("0, 0, 0\n1, 0, 0")


# -- infinite-depth gate on the ancilla warm-up --------------------------------


def _warmup_state():
    stab = qcm("0, 0, 0\n1, 1, 0", "1, 1, 1\n0, 0, 0")
    info = qcm("0, 0, 0\n1, 0, 1", "0, 0, 1\n0, 0, 0")
    return QuantumCheckMatrix(stab.z, stab.x, info=info)


def test_inf_depth_gate_golden():
    m = apply_gate(_warmup_state(), inf_depth(2, P("1+D")))
    assert m.x == parse_matrix("1, 1, 1/(1+D)\n0, 0, 0")
    assert m.z == parse_matrix("0, 0, 0\n1, 1, 0")
    assert m.info.z == parse_matrix("0, 0, 0\n1, 0, 1+D^-1")
    assert m.info.x == parse_matrix("0, 0, 1/(1+D)\n0, 0, 0")


def test_inf_depth_then_finite_decode():
    m = apply_gate(_warmup_state(), inf_depth(2, P("1+D")))
    for g in [cnot(0, 1, 0), cnot(2, 0, 0), cnot(2, 0, 1)]:
        m = apply_gate(m, g)
    assert m.z == parse_matrix("0, 0, 0\n0, 1, 0")
    assert m.x == parse_matrix("0, 0, 1/(1+D)\n0, 0, 0")
    assert m.info.z == parse_matrix("0, 0, 0\n1, 0, 0")
    assert m.info.x == parse_matrix("1, 0, 1/(1+D)\n0, 0, 0")
    # adding the first stabilizer row to the first logical row purifies it
    fixed = [a + b for a, b in zip(m.info.x.entries[0], m.x.entries[0])]
    assert PolyMatrix([fixed]) == parse_matrix("1, 0, 0")


# -- gate catalog coverage -------------------------------------------------------


def test_phase_gate():
    m = qcm("0", "1")
    assert apply_gate(m, phase(0)).z == parse_matrix("1")


def test_cphase_gates():
    m = qcm("0, 0", "1, 0")
    out = apply_gate(m, cphase(0, 1, 1))
    assert out.z == parse_matrix("0, D")
    out = apply_gate(m, cphase_self(0, 2))
    assert out.z == parse_matrix("D^2+D^-2, 0")


def test_swap_is_three_cnots():
    m = qcm("1, D", "D^2, 1+D")
    for g in swap(0, 1):
        m = apply_gate(m, g)
    assert m.z == parse_matrix("D, 1")
    assert m.x == parse_matrix("1+D, D^2")


def test_column_poly_to_cnots():
    # one CNOT(0 -> 1, delay e) per term D^e of f equals the column op X_1 += f X_0
    m = qcm("0, 0", "1, 0")
    for g in [cnot(0, 1, 1), cnot(0, 1, 2)]:
        m = apply_gate(m, g)
    assert m.x == parse_matrix("1, D+D^2")


def test_gate_constructor_validation():
    for make, message in [
        (lambda: Gate("BOGUS", 0), "unknown gate kind 'BOGUS'"),
        (lambda: Gate("CNOT", 0), "CNOT needs a target qubit"),
        (lambda: Gate("CPHASE", 1, delay=2), "CPHASE needs a target qubit"),
        (lambda: cnot(1, 1, 0), "CNOT control and target coincide"),
        (lambda: cphase(2, 2, 1), "CPHASE control and target coincide"),
        (lambda: inf_depth(0, LaurentPoly.zero()), "infinite-depth gate needs a nonzero polynomial"),
        (lambda: Gate("INF", 0), "infinite-depth gate needs a nonzero polynomial"),
    ]:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


# Each gate kind as its constructor builds it, with its field values, repr and
# printed line pinned as the frozen-dataclass Gate gave them.
_GATE_FIELDS = ("kind", "i", "j", "delay", "f", "time_reversed", "full_frame", "note")
GATE_CASES = [
    (lambda: cnot(0, 1, 2), ("CNOT", 0, 1, 2, None, False, False, ""),
     "Gate(kind='CNOT', i=0, j=1, delay=2, f=None, time_reversed=False, full_frame=False, note='')",
     "CNOT 1 2 delay=2"),
    (lambda: cnot(2, 0, -1, full_frame=True, note="x"), ("CNOT", 2, 0, -1, None, False, True, "x"),
     "Gate(kind='CNOT', i=2, j=0, delay=-1, f=None, time_reversed=False, full_frame=True, note='x')",
     "CNOT *3 *1 delay=-1"),
    (lambda: hadamard(1), ("H", 1, None, 0, None, False, False, ""),
     "Gate(kind='H', i=1, j=None, delay=0, f=None, time_reversed=False, full_frame=False, note='')",
     "H 2"),
    (lambda: phase(0, full_frame=True), ("P", 0, None, 0, None, False, True, ""),
     "Gate(kind='P', i=0, j=None, delay=0, f=None, time_reversed=False, full_frame=True, note='')",
     "P *1"),
    (lambda: cphase(0, 1, -3), ("CPHASE", 0, 1, -3, None, False, False, ""),
     "Gate(kind='CPHASE', i=0, j=1, delay=-3, f=None, time_reversed=False, full_frame=False, note='')",
     "CPHASE 1 2 delay=-3"),
    (lambda: cphase_self(1, 2), ("CPHASE_SELF", 1, None, 2, None, False, False, ""),
     "Gate(kind='CPHASE_SELF', i=1, j=None, delay=2, f=None, time_reversed=False, full_frame=False, note='')",
     "CPHASE_SELF 2 delay=2"),
    (lambda: inf_depth(2, P("1+D+D^3")), ("INF", 2, None, 0, P("1+D+D^3"), False, False, ""),
     "Gate(kind='INF', i=2, j=None, delay=0, f=LaurentPoly('1+D+D^3'), time_reversed=False, full_frame=False, note='')",
     "INF 3 f=1+D+D^3"),
    (lambda: inf_depth(0, P("D^-1+D"), time_reversed=True, full_frame=True),
     ("INF", 0, None, 0, P("D^-1+D"), True, True, ""),
     "Gate(kind='INF', i=0, j=None, delay=0, f=LaurentPoly('D^-1+D'), time_reversed=True, full_frame=True, note='')",
     "INF *1 f=D^-1+D reversed"),
]


@pytest.mark.parametrize("make, fields, text, line", GATE_CASES, ids=[c[3] for c in GATE_CASES])
def test_gate_record(make, fields, text, line):
    """Every gate kind keeps its fields, repr, printed line, equality, hash and immutability."""
    g = make()
    assert tuple(getattr(g, name) for name in _GATE_FIELDS) == fields
    assert repr(g) == text and format_gate(g) == line
    for twin in (make(), Gate(*fields), Gate(**dict(zip(_GATE_FIELDS, fields)))):
        assert twin == g and hash(twin) == hash(g)
    assert Gate(*fields[:-1], "other") != g
    for name in ("kind", "i", "delay", "note"):
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))
    if g.kind != "INF":
        assert Circuit((g,)).inverse().gates[0] is g


# -- invariance properties ---------------------------------------------------------


def _random_qcm(rng, rows, cols, bob_cols=0, rational=False):
    def rp():
        num = LaurentPoly(rng.randrange(0, 8), rng.randint(-1, 1))
        if rational and rng.random() < 0.25:
            return RationalPoly(num, LaurentPoly(rng.randrange(1, 8) | 1, 0))
        return RationalPoly(num)

    z = PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)])
    x = PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)])
    return QuantumCheckMatrix(z, x, bob_cols=bob_cols)


_DENS = [parse_poly(t) for t in ("1", "1", "1+D", "1+D+D^2", "1+D^2", "1+D^3", "1+D+D^3")]


def test_format_rows_prints_the_entries_line_for_line():
    """A check matrix's rows over their row denominators print as `format_matrix` prints its entries.

    Seeded rows mix entries over a shared denominator, over distinct ones
    (the row denominator is their lcm, and each entry reduces again),
    polynomial rows, zero rows and negative exponents.
    """
    rng = random.Random("format-rows")
    seen = dict.fromkeys(("shared", "distinct", "unit", "zero", "negative"), 0)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)

        def row():
            """One check row, its Z and X entries together."""
            if rng.random() < 0.15:
                return [RationalPoly.zero()] * 2 * cols
            dens = [rng.choice(_DENS)] if rng.random() < 0.5 else _DENS
            num = lambda: LaurentPoly(rng.randrange(0, 16), rng.randint(-2, 1))
            return [RationalPoly(num(), rng.choice(dens)) for _ in range(2 * cols)]

        grid = [row() for _ in range(rows)]
        z, x = (PolyMatrix([r[half] for r in grid], cols=cols) for half in (slice(cols), slice(cols, None)))
        m = QuantumCheckMatrix(z, x)
        assert format_rows(m.zn, m.dens) == format_matrix(z).splitlines()
        assert format_rows(m.xn, m.dens) == format_matrix(x).splitlines()
        for zr, xr, d in zip(z.entries, x.entries, m.dens):
            entry_dens = {e.den for e in zr + xr if e}
            seen["zero"] += not entry_dens
            seen["unit"] += d == LaurentPoly.one()
            seen["shared"] += len(entry_dens) == 1 and d != LaurentPoly.one()
            seen["distinct"] += len(entry_dens - {LaurentPoly.one()}) > 1
            seen["negative"] += any(e.num.low < 0 for e in zr + xr if e)
    assert min(seen.values()) >= 40, seen


def _random_gate(rng, n_alice):
    kinds = ["CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF"]
    if n_alice < 2:
        kinds = ["H", "P", "CPHASE_SELF", "INF"]
    kind = rng.choice(kinds)
    i = rng.randrange(n_alice)
    if kind in ("CNOT", "CPHASE"):
        j = rng.choice([q for q in range(n_alice) if q != i])
        return Gate(kind, i, j, rng.randint(-2, 2))
    if kind == "CPHASE_SELF":
        return cphase_self(i, rng.randint(-2, 2))
    if kind == "INF":
        f = LaurentPoly(rng.randrange(1, 16), rng.randint(-1, 1))
        return inf_depth(i, f, time_reversed=rng.random() < 0.5)
    return Gate(kind, i)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_symplectic_gram_invariant_under_gates(seed):
    rng = random.Random(seed)
    rows, cols, bob = rng.randint(1, 3), rng.randint(2, 4), rng.randint(0, 1)
    m = _random_qcm(rng, rows, cols, bob_cols=bob, rational=True)
    g = _random_gate(rng, alice_cols(m))
    assert apply_gate(m, g).symplectic_gram() == m.symplectic_gram()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_finite_depth_circuit_inverse(seed):
    rng = random.Random(seed)
    m = _random_qcm(rng, rng.randint(1, 3), rng.randint(2, 4))
    gates = []
    for _ in range(rng.randint(1, 6)):
        g = _random_gate(rng, m.cols)
        if g.kind != "INF":
            gates.append(g)
    circ = Circuit(tuple(gates))
    assert circ.inverse().apply(circ.apply(m)) == m


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_finite_depth_preserves_polynomials(seed):
    rng = random.Random(seed)
    m = _random_qcm(rng, rng.randint(1, 2), rng.randint(2, 3))
    assert m.is_polynomial()
    g = _random_gate(rng, m.cols)
    if g.kind != "INF":
        assert apply_gate(m, g).is_polynomial()


@pytest.mark.parametrize("name, h1, h2", golden_pairs(), ids=[p[0] for p in golden_pairs()])
def test_apply_keeps_its_last_replay(name, h1, h2):
    """A repeated apply on the very same input returns the stored result; any other input is replayed."""
    spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
    for c, qcm in ((spec.encoder, spec.bare), (spec.decoder, spec.encoder.apply(spec.bare))):
        fresh = Circuit(c.gates)
        out = c.apply(qcm)
        assert c.apply(qcm) is out and out == fresh.apply(qcm)

        twin = QuantumCheckMatrix.from_rows(qcm.zn, qcm.xn, qcm.dens, qcm.cols, qcm.bob_cols, qcm.row_labels, qcm.info)
        again = c.apply(twin)
        assert again is not out and again == out

        other = QuantumCheckMatrix.from_rows(qcm.zn, qcm.xn, qcm.dens, qcm.cols, qcm.bob_cols, qcm.row_labels)
        want = fresh.apply(other)
        assert want != out
        for _ in range(2):
            assert c.apply(qcm) == out
            assert c.apply(other) == want

        stored = c.apply(qcm)  # stepping the gates one at a time ends where the replay does, and keeps it
        assert reduce(apply_gate, c, qcm) == out
        assert c.apply(qcm) is stored


def test_empty_circuit_returns_its_input():
    """An empty circuit has nothing to replay: apply returns the input itself."""
    q = build_code(*(parse_matrix(t.replace(";", "\n")) for t in golden_pairs()[0][1:])).bare
    assert Circuit(()).apply(q) is q


@pytest.mark.parametrize("name, h1, h2", golden_pairs(), ids=[p[0] for p in golden_pairs()])
def test_replayed_zero_entries_are_shared(name, h1, h2):
    """Every zero entry a replay unpacks is the shared ZERO, not an object of its own."""
    spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
    evolved = spec.encoder.apply(spec.bare)
    zeros = 0
    for m in (evolved, spec.decoder.apply(evolved)):
        for grid in (m.zn, m.xn, m.info.zn, m.info.xn):
            for e in (e for row in grid for e in row if not e):
                assert e is ZERO
                zeros += 1
    assert zeros


def test_check_matrix_layout_errors():
    """Halves of two shapes, receiver columns out of range, a label per row missing, an info matrix of another layout."""
    z, x = parse_matrix("1, D"), parse_matrix("0, 1")
    for bad in (
        lambda: QuantumCheckMatrix(z, parse_matrix("0, 1, 1")),
        lambda: QuantumCheckMatrix(z, x, bob_cols=3),
        lambda: QuantumCheckMatrix(z, x, row_labels=("a", "b")),
        lambda: QuantumCheckMatrix(z, x, info=QuantumCheckMatrix(z, x, bob_cols=1)),
    ):
        with pytest.raises(DimensionMismatch):
            bad()


def test_inverse_rejects_infinite_depth():
    circ = Circuit((inf_depth(0, P("1+D")),))
    with pytest.raises(ValueError):
        circ.inverse()


# -- sliding-window synthesis --------------------------------------------------------


def test_synthesize_golden_weight_three():
    rule = synthesize_infinite_depth(P("1+D+D^3"))
    assert rule.window == 4
    assert rule.cnot_pattern == ((1, 4), (3, 4))
    assert rule.scratch_frames == 0


def test_synthesize_golden_weight_two():
    rule = synthesize_infinite_depth(P("1+D"))
    assert rule.window == 2
    assert rule.cnot_pattern == ((1, 2),)


def test_synthesize_identity():
    rule = synthesize_infinite_depth(P("1"))
    assert rule.window == 1
    assert rule.cnot_pattern == ()


def test_time_reversed_golden():
    rule = time_reversed_rule(P("1+D"))
    assert rule.scratch_frames == 1
    assert rule.window == 2
    assert rule.cnot_pattern == ((1, 2),)
    rule = time_reversed_rule(P("1+D+D^3"))
    assert rule.scratch_frames == 3
    assert rule.window == 4
    assert rule.cnot_pattern == ((1, 4), (2, 4))
    assert time_reversed_rule(P("1")).cnot_pattern == ()


def test_rule_pattern_bounds_checked():
    with pytest.raises(ValueError):
        SlidingWindowRule(window=2, cnot_pattern=((1, 3),))


@pytest.mark.parametrize("rule", [synthesize_infinite_depth, time_reversed_rule])
def test_rules_reject_the_zero_polynomial(rule):
    with pytest.raises(ValueError):
        rule(ZERO)


# -- serialization ----------------------------------------------------------------------


def test_circuit_text_round_trip():
    circ = Circuit(
        (
            cnot(0, 1, 1),
            hadamard(1),
            inf_depth(2, P("1+D+D^3")),
            inf_depth(0, P("1+D"), time_reversed=True),
            cnot(0, 2, 0, full_frame=True),
            cphase(0, 1, -1),
            cphase_self(1, 2),
            phase(0),
        )
    )
    text = "\n".join(map(format_gate, circ.gates))
    assert "CNOT 1 2 delay=1" in text
    assert "INF 3 f=1+D+D^3" in text
    assert "CNOT *1 *3 delay=0" in text
    parsed = parse_circuit(text)
    assert parsed.gates == circ.gates


@pytest.mark.parametrize(
    "line",
    [
        "CNOT 1 2 delay=x",
        "CPHASE_SELF",
        "CPHASE_SELF 1 foo=3",
        "CNOT 1 1",
        "INF 1 f=1+D extra",
        "INF 1 f=0",
        "H 1 2",
        "SWAP 1 2",
    ],
)
def test_parse_gate_rejects_malformed_lines(line):
    with pytest.raises(PolyParseError):
        parse_gate(line)
