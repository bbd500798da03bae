"""Window simulation: expansion, circuits, syndromes, and the verification harness."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from eaqconv import gates, simulate
from eaqconv.cli import EXAMPLES
from eaqconv.construct import build_code
from eaqconv.errors import WindowTooSmall
from eaqconv.gates import (
    Circuit,
    QuantumCheckMatrix,
    apply_gate,
    cnot,
    cphase,
    cphase_self,
    hadamard,
    inf_depth,
    phase,
)
from eaqconv.poly import LaurentPoly, RationalPoly, parse_poly, series_expand
from eaqconv.polymat import PolyMatrix, parse_matrix
from eaqconv.simulate import (
    expand,
    run_circuit,
    verify_code,
)
from syndrome import ErrorPattern, syndrome


def qcm(ztext, xtext, bob_cols=0):
    return QuantumCheckMatrix(parse_matrix(ztext), parse_matrix(xtext), bob_cols=bob_cols)


RATE_THIRD = qcm("0, D, D\n1+D, 1+D, 1", "1+D, 1, 1+D\n0, D, D")


def letter(win, row, frame, qubit):
    """The Pauli letter, I, X, Z or Y, of a window row on one qubit of one frame."""
    b = win.bit(frame, qubit)
    return "IXZY"[2 * bool(row.z & b) + bool(row.x & b)]


# -- expansion -------------------------------------------------------------------


def test_expand_rate_third_letters():
    win = expand(RATE_THIRD, window=4, scratch=0)
    first = [r for r in win.rows if r.source == 0 and r.shift == 0][0]
    letters = "".join(letter(win, first, t, q) for t in range(2) for q in range(3))
    assert letters == "XXXXZY"
    second = [r for r in win.rows if r.source == 1 and r.shift == 0][0]
    letters = "".join(letter(win, second, t, q) for t in range(2) for q in range(3))
    assert letters == "ZZZZYX"


def test_expand_counts_shift_copies():
    win = expand(RATE_THIRD, window=4, scratch=0)
    # supports span two frames, so three shifted copies per generator fit
    assert sum(1 for r in win.rows if r.source == 0) == 3


def test_expand_zero_matrix():
    win = expand(qcm("0, 0", "0, 0"), window=4)
    assert list(win.rows) == []


def test_expand_rational_row():
    row = QuantumCheckMatrix(parse_matrix("0"), PolyMatrix([[RationalPoly(parse_poly("1"), parse_poly("1+D"))]]))
    win = expand(row, window=6, scratch=0)
    head = [r for r in win.rows if r.shift == 0][0]
    assert head.truncated
    assert all(letter(win, head, t, 0) == "X" for t in range(6))


def test_expand_window_too_small():
    wide = qcm("1+D^5, 0", "0, 0")
    with pytest.raises(WindowTooSmall):
        expand(wide, window=3)


def test_expand_needs_a_frame():
    with pytest.raises(WindowTooSmall):
        expand(RATE_THIRD, window=0)


# -- circuits in the window ----------------------------------------------------------


def test_run_circuit_empty_is_identity():
    win = expand(RATE_THIRD, window=6)
    out = run_circuit(win, Circuit(()))
    assert [(r.z, r.x) for r in out.rows] == [(r.z, r.x) for r in win.rows]


def test_run_circuit_rejects_gates_outside_the_frame():
    # one receiver column and one sender column: neither gate may reach the next frame
    state = qcm("1, D", "D, 1", bob_cols=1)
    win = expand(state, window=4)
    for g in (hadamard(1), hadamard(2, full_frame=True)):
        with pytest.raises(IndexError):
            Circuit((g,)).apply(state)
        with pytest.raises(IndexError):
            run_circuit(win, Circuit((g,)))


def test_inf_depth_rule_reproduces_long_division():
    # an X on one track expands into the 1/(1+D+D^3) series under the rule
    state = qcm("0", "1")
    win = expand(state, window=12, scratch=0)
    out = run_circuit(win, Circuit((inf_depth(0, parse_poly("1+D+D^3")),)))
    base = [r for r in out.rows if r.shift == 0][0]
    got = [1 if base.x & out.bit(t, 0) else 0 for t in range(12)]
    series = series_expand(RationalPoly(parse_poly("1"), parse_poly("1+D+D^3")), 0, 11)
    assert got == [series.coeff(t) for t in range(12)]
    assert got == [1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]


def test_inf_depth_rule_z_side():
    state = qcm("1", "0")
    win = expand(state, window=12, scratch=6)
    out = run_circuit(win, Circuit((inf_depth(0, parse_poly("1+D+D^3")),)))
    mid = [r for r in out.rows if r.shift == 0][0]  # placed at frame 6
    got = [t for t in range(12) if mid.z & out.bit(t, 0)]
    assert got == [3, 5, 6]  # D^6 times (1 + D^-1 + D^-3)


def test_example1_circuit_matches_algebra_in_window():
    h = parse_matrix("1+D^2, 1+D+D^2")
    spec = build_code(h, h)
    win = expand(spec.bare, window=8, scratch=0)
    out = run_circuit(win, spec.encoder)
    evolved = spec.encoder.apply(spec.bare)
    alg = expand(evolved, window=8, scratch=0)
    table = {(r.source, r.shift): r for r in alg.rows}
    compared = 0
    for row in out.rows:
        other = table.get((row.source, row.shift))
        if other is None:
            continue
        compared += 1
        assert (row.z, row.x) == (other.z, other.x)
    assert compared >= 4


# -- syndromes --------------------------------------------------------------------------


def test_syndrome_x_error_against_z_generator():
    win = expand(qcm("1", "0"), window=4)
    bits = syndrome(win, ErrorPattern(((1, 0, "X"),)))
    assert bits[[r.shift for r in win.rows].index(1)] == 1


def test_syndrome_of_stabilizer_row_is_zero():
    win = expand(RATE_THIRD, window=6)
    row = list(win.rows)[0]
    terms = []
    for t in range(6):
        for q in range(3):
            pauli = letter(win, row, t, q)
            if pauli != "I":
                terms.append((t, q, pauli))
    assert all(b == 0 for b in syndrome(win, ErrorPattern(tuple(terms))))


def test_syndrome_support_spans_generator_overlap():
    h = parse_matrix("1+D^2, 1+D+D^2")
    spec = build_code(h, h)
    win = expand(spec.final_stabilizer, window=10, scratch=0)
    # X error on the first sender qubit of frame 4; c = 1 receiver column sits first
    bits = syndrome(win, ErrorPattern(((4, 1, "X"),)))
    rows = list(win.rows)
    hits = {rows[i].shift for i in range(len(bits)) if bits[i] and rows[i].source == 0}
    # the Z-side generator 1+D^2 overlaps the error when shift+0 or shift+2 equals 4
    assert hits == {2, 4}


def test_syndrome_outside_window_rejected():
    win = expand(RATE_THIRD, window=4)
    with pytest.raises(WindowTooSmall):
        syndrome(win, ErrorPattern(((9, 0, "X"),)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_syndrome_linearity(seed):
    rng = random.Random(seed)
    win = expand(RATE_THIRD, window=6)
    def rand_err():
        return ErrorPattern(tuple((rng.randrange(6), rng.randrange(3), rng.choice("XYZ")) for _ in range(rng.randint(1, 3))))
    e1, e2 = rand_err(), rand_err()
    z1, x1 = e1.masks(win)
    z2, x2 = e2.masks(win)
    s1, s2 = syndrome(win, e1), syndrome(win, e2)
    sboth = []
    for row in win.rows:
        parity = (bin((z1 ^ z2) & row.x).count("1") + bin((x1 ^ x2) & row.z).count("1")) % 2
        sboth.append(parity)
    assert tuple(a ^ b for a, b in zip(s1, s2)) == tuple(sboth)


# -- oracle equivalence: gates in the window vs gates on the algebra -----------------------


def _random_state(rng, rows, cols):
    def rp():
        return RationalPoly(LaurentPoly(rng.randrange(0, 8), rng.randint(0, 1)))

    return QuantumCheckMatrix(
        PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)]),
        PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)]),
    )


def _random_finite_gate(rng, cols):
    kind = rng.choice(["CNOT", "H", "P", "CNOT", "CPHASE", "CPHASE_SELF"])
    if kind in ("CNOT", "CPHASE") and cols >= 2:
        i, j = rng.sample(range(cols), 2)
        return (cnot if kind == "CNOT" else cphase)(i, j, rng.randint(-2, 2))
    if kind == "CPHASE_SELF":
        return cphase_self(rng.randrange(cols), rng.randint(-2, 2))
    if kind == "P":
        return phase(rng.randrange(cols))
    return hadamard(rng.randrange(cols))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_window_gates_agree_with_algebra(seed):
    rng = random.Random(seed)
    state = _random_state(rng, rng.randint(1, 2), rng.randint(2, 3))
    gates = [_random_finite_gate(rng, state.cols) for _ in range(rng.randint(1, 4))]
    circ = Circuit(tuple(gates))
    window, scratch = 20, 5
    sim = run_circuit(expand(state, window, scratch), circ)
    try:
        alg = expand(circ.apply(state), window, scratch)
    except WindowTooSmall:
        return  # the evolved support outgrew the window; nothing to compare
    table = {(r.source, r.shift): r for r in alg.rows}
    for row in sim.rows:
        other = table.get((row.source, row.shift))
        if other is None:
            continue
        mask = row.valid_mask(sim)
        assert (row.z ^ other.z) & mask == 0 and (row.x ^ other.x) & mask == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_window_products_equal_symplectic_coefficients(seed):
    """The window symplectic product of two shifted copies is a coefficient of their product polynomial."""
    from eaqconv.pauli import shifted_symplectic

    rng = random.Random(seed)
    n = rng.randint(1, 2)
    a = _random_state(rng, 1, n)
    b = _random_state(rng, 1, n)
    prod = shifted_symplectic(a.row(0), b.row(0))
    window, scratch = 16, 6
    wa = expand(a, window, scratch)
    wb = expand(b, window, scratch)
    if not prod.is_polynomial():
        return
    for ra in wa.rows:
        for rb in wb.rows:
            # both copies fully inside the window: the parity equals the
            # coefficient of D^(shift_a - shift_b) in (a (.) b)(D)
            parity = (bin(ra.z & rb.x).count("1") + bin(ra.x & rb.z).count("1")) % 2
            assert parity == prod.num.coeff(ra.shift - rb.shift)


def test_time_reversed_inf_gate_agrees_with_rule():
    state = qcm("1, 0\n0, 0", "0, 0\n1, 0")
    f = parse_poly("1+D+D^3")
    circ = Circuit((inf_depth(0, f, time_reversed=True),))
    window, scratch = 24, 8
    sim = run_circuit(expand(state, window, scratch), circ)
    alg = expand(circ.apply(state), window, scratch)
    table = {(r.source, r.shift): r for r in alg.rows}
    mask = 0
    for t in range(4, window - 8):
        for q in range(2):
            mask |= 1 << (t * 2 + q)
    compared = 0
    for row in sim.rows:
        other = table.get((row.source, row.shift))
        if other is None:
            continue
        vmask = mask & row.valid_mask(sim)
        if not vmask:
            continue
        compared += 1
        assert (row.z ^ other.z) & vmask == 0
        assert (row.x ^ other.x) & vmask == 0
    assert compared > 3


def test_inf_gate_agrees_with_algebra_in_interior():
    state = qcm("1, 0\n0, 1", "0, 1\n1, 0")
    f = parse_poly("1+D+D^2")
    circ = Circuit((inf_depth(0, f), cnot(0, 1, 1)))
    window, scratch = 20, 4
    sim = run_circuit(expand(state, window, scratch), circ)
    alg = expand(circ.apply(state), window, scratch)
    table = {(r.source, r.shift): r for r in alg.rows}
    compared = 0
    for row in sim.rows:
        other = table.get((row.source, row.shift))
        if other is None:
            continue
        mask = row.valid_mask(sim)
        if not mask:
            continue
        compared += 1
        assert (row.z ^ other.z) & mask == 0
        assert (row.x ^ other.x) & mask == 0
    assert compared > 4


# -- the four-part verification ------------------------------------------------------------


def test_verify_example1():
    h = parse_matrix("1+D^2, 1+D+D^2")
    report = verify_code(build_code(h, h), window=12, scratch=2)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "commutation",
        "row-space equivalence",
        "decoded logical operators",
        "window simulation",
    ]


def test_verify_example2():
    h = parse_matrix("1, 1+D")
    assert verify_code(build_code(h, h), window=16).passed


def test_verify_general_class2():
    h = parse_matrix("1+D, 1+D^2, 1+D+D^2")
    assert verify_code(build_code(h, h), window=32).passed


def test_verify_catches_deleted_gate():
    h = parse_matrix("1+D^2, 1+D+D^2")
    spec = build_code(h, h)
    for i in range(len(spec.encoder.gates)):
        spoiled = copy.copy(spec)
        spoiled.encoder = Circuit(spec.encoder.gates[:i] + spec.encoder.gates[i + 1 :])
        report = verify_code(spoiled, window=16)
        decode_check = next(c for c in report.checks if c.name == "decoded logical operators")
        assert not decode_check.passed, f"deleting gate {i} went unnoticed"


def _table_mutants():
    """(id, kind, moves) per mutant of `gates._MOVES`: for each move of each kind, its delay sign flipped, both its
    sides swapped (Z for X), and its source and destination qubits swapped, wherever that changes the move."""
    mutants = []
    for kind, moves in gates._MOVES.items():
        for i, (ds, dq, ss, sq, sign) in enumerate(moves):
            for what, move in (("sign", (ds, dq, ss, sq, -sign)), ("side", (1 - ds, dq, 1 - ss, sq, sign)),
                               ("qubits", (ds, sq, ss, dq, sign))):
                if move != moves[i]:
                    mutants.append((f"{kind}-move{i}-{what}", kind, moves[:i] + (move,) + moves[i + 1:]))
    return mutants


TABLE_MUTANTS = _table_mutants()


def _with_a_string_of(spec, kind):
    """spec, or a copy whose encoder ends with one string of `kind` when spec's encoder has none: no construction
    emits CPHASE, CPHASE_SELF or P for the worked examples, so a mutant of those could not act there otherwise."""
    if any(g.kind == kind for g, _ in spec.encoder.strings):
        return spec
    extra = {"CPHASE": cphase(0, 1, 1), "CPHASE_SELF": cphase_self(0, 1), "P": phase(0)}[kind]
    out = copy.copy(spec)
    out.encoder = Circuit.from_strings([*spec.encoder.strings, (extra, [extra.delay])])
    return out


def _window_check(spec):
    return next(c for c in verify_code(spec).checks if c.name == "window simulation")


@pytest.mark.parametrize("kind", list(gates._MOVES))
def test_a_string_of_each_kind_keeps_the_window_check(kind):
    """The control for the move-table mutants: the worked examples, their encoders ending with a string of each
    finite-depth kind, pass check 4 with the table as it is."""
    for h1, h2 in EXAMPLES.values():
        check = _window_check(_with_a_string_of(build_code(parse_matrix(h1), parse_matrix(h2)), kind))
        assert check.passed, check.detail


@pytest.mark.parametrize("kind, moves", [m[1:] for m in TABLE_MUTANTS], ids=[m[0] for m in TABLE_MUTANTS])
def test_a_move_table_mutant_fails_the_window_check(monkeypatch, kind, moves):
    """A mutant of `gates._MOVES`, the table `Circuit.apply` runs: the window, which states its own moves, must FAIL
    check 4 on both worked examples."""
    monkeypatch.setitem(gates._MOVES, kind, moves)
    for h1, h2 in EXAMPLES.values():
        check = _window_check(_with_a_string_of(build_code(parse_matrix(h1), parse_matrix(h2)), kind))
        assert not check.passed, check.detail


def test_a_run_grouping_mutant_fails_the_window_check(monkeypatch):
    """A `Circuit._runs` that merges a run with the next one of its kind and qubits across H steps: the window,
    which groups the strings itself, must FAIL check 4 on both worked examples."""
    runs = gates.Circuit._runs.func

    def across_h(circuit):
        merged = []
        for g, delays in runs(circuit):
            hs = 0  # the H steps that end the steps so far
            while hs < len(merged) and merged[-1 - hs][0].kind == "H":
                hs += 1
            before = merged[-1 - hs][0] if hs and hs < len(merged) else None
            if before and g.kind in gates._MOVES and (before.kind, before.i, before.j) == (g.kind, g.i, g.j):
                merged[-1 - hs] = before, [*merged[-1 - hs][1], *delays]
            else:
                merged.append((g, delays))
        return tuple(merged)

    monkeypatch.setattr(gates.Circuit, "_runs", property(across_h))
    for h1, h2 in EXAMPLES.values():
        check = _window_check(build_code(parse_matrix(h1), parse_matrix(h2)))
        assert not check.passed, check.detail


def test_a_window_only_mutant_fails_only_the_window_check(monkeypatch):
    """INF feedback that lands one frame late in the window alone: checks 1-3 pass, check 4 names its mismatches.

    The window states its own moves and groups its own steps.  This mutant
    acts in code that only the window runs: it shifts the X track one frame
    after `_apply_inf`, the window's sliding-window rule.
    """
    apply_inf = simulate._apply_inf

    def late(win, q, rule):
        apply_inf(win, q, rule)
        win.x[q] = win._shifted(win.x[q], 1)

    monkeypatch.setattr(simulate, "_apply_inf", late)
    h1, h2 = EXAMPLES["infinite-depth"]
    report = verify_code(build_code(parse_matrix(h1), parse_matrix(h2)), window=32)
    assert [c.passed for c in report.checks] == [True, True, True, False]
    assert report.checks[3].detail == (
        "63 generator copies compared; first mismatches "
        "[('ebit-Z1', -8), ('ebit-Z1', -7), ('ebit-Z1', -6), ('ebit-Z1', -5)]"
    )


def test_verify_window_too_small():
    h = parse_matrix("1+D^2, 1+D+D^2")
    spec = build_code(h, h)
    report = verify_code(spec, window=2)
    assert not report.passed
    sim_check = next(c for c in report.checks if c.name == "window simulation")
    assert not sim_check.passed


def test_report_serialization():
    h = parse_matrix("1, 1+D")
    report = verify_code(build_code(h, h), window=16)
    d = report.to_json_dict()
    assert d["passed"] is True
    assert len(d["checks"]) == 4
    assert "pass" in report.to_text()
