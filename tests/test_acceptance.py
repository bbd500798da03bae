"""Acceptance criteria, one test per criterion.

Every expected value here is either copied from the worked single-generator
constructions (symbolic, zero tolerance) or computed by an independent
oracle inside the test.  Each test prints one pass/fail line; `pytest -v`
shows one line per criterion as well.
"""

from __future__ import annotations

import copy
import random
import time

import pytest

from eaqconv.construct import CLASS1, CLASS2_SPECIAL, build_code, validate_inputs
from eaqconv.errors import CatastrophicInput, ValidationError
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
    synthesize_infinite_depth,
)
from eaqconv.pauli import shifted_symplectic
from eaqconv.poly import LaurentPoly, RationalPoly, parse_poly, series_expand
from eaqconv.polymat import parse_matrix
from eaqconv.simulate import expand, run_circuit, verify_code
from pauli_stream import commute_oracle, p2b, parse_stream
from smith_oracle import PolyMatrix, smith_form
from support import ebit_count
from syndrome import ErrorPattern, syndrome
from verify_oracle import det, rank

H_EX1 = parse_matrix("1+D^2, 1+D+D^2")
H_EX2 = parse_matrix("1, 1+D")


def _report(criterion, passed, detail=""):
    line = f"ACCEPTANCE criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_first_example_reproduction():
    t0 = time.perf_counter()
    assert ebit_count(H_EX1, H_EX1) == 1  # H(D) H^T(D^-1) = 1
    spec = build_code(H_EX1, H_EX1, want_trace=True)
    assert spec.class_tag == CLASS1
    assert (spec.n, spec.k, spec.c) == (2, 1, 1)
    # the six published intermediate stabilizers, matched exactly: the states
    # after the delayed-CNOT pair, the Hadamard pair, three more CNOTs, and
    # the final row exchange
    expected = [
        (2, "1, 1, 0\n0, 0, 0", "0, 0, 0\n1, 1, D+D^2"),
        (4, "1, 0, 0\n0, 1, D+D^2", "0, 1, 0\n1, 0, 0"),
        (5, "1, 0, 0\n0, D, D+D^2", "0, 1, D\n1, 0, 0"),
        (6, "1, 0, 0\n0, D, 1+D+D^2", "0, 1+D^2, D\n1, 0, 0"),
        (7, "1, 0, 0\n0, 1+D^2, 1+D+D^2", "0, 1+D^2, 1+D+D^2\n1, 0, 0"),
    ]
    for gate_idx, z, x in expected:
        state = spec.encode_trace[gate_idx].state
        assert state.z == parse_matrix(z) and state.x == parse_matrix(x), f"after gate {gate_idx}"
    assert spec.final_stabilizer.z == parse_matrix("0, 1+D^2, 1+D+D^2\n1, 0, 0")
    assert spec.final_stabilizer.x == parse_matrix("1, 0, 0\n0, 1+D^2, 1+D+D^2")
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"exact symbolic match, {elapsed:.3f}s")


def test_criterion_2_second_example_reproduction():
    t0 = time.perf_counter()
    spec = build_code(H_EX2, H_EX2, want_trace=True)
    assert spec.class_tag == CLASS2_SPECIAL
    assert (spec.n, spec.k, spec.c) == (2, 1, 1)
    infs = [g for g in spec.encoder.gates if g.kind == "INF"]
    assert len(infs) == 1 and str(infs[0].f) == "1+D+D^2" and not infs[0].time_reversed

    def M(text):
        return parse_matrix(text)

    # standard-form displays
    labels = {s.label: s.state for s in spec.record.reduction.trace}
    assert labels["standard form"].z == M("D^-1+1+D, 1+D\n0, 0")
    assert labels["standard form"].x == M("0, 0\n1, 0")
    assert labels["normalized standard form"].z == M("1+D+D^2, 1\n0, 0")
    # the mid-normalization displays (frame swap, then the cross-column CNOT)
    seq = [(s.label, s.state) for s in spec.record.reduction.trace]
    i_open = next(i for i, (lab, _) in enumerate(seq) if lab == "H 2" and i > 3)
    assert seq[i_open][1].x == M("D^-1+1+D, 1+D\n0, 0")
    assert seq[i_open + 1][1].x == M("D^-1+1+D, D^-1\n0, 0")
    # encoding displays
    enc = spec.encode_trace
    assert enc[0].state.z == M("1, 1, 0\n0, 0, 0")
    assert enc[2].state.x == M("0, 1, 1\n1, 0, 0")
    assert enc[2].state.info.z == M("0, 0, 0\n0, 1, 1")
    assert enc[5].state.z == M("1, 1, 1/(1+D+D^2)\n0, 0, 0")
    assert enc[5].state.info.z == M("0, 0, 1/(1+D+D^2)\n0, 0, 0")
    assert enc[5].state.info.x == M("0, 0, 0\n0, 1, D^-2+D^-1+1")
    # the re-encoded stream
    fin = spec.final_stabilizer
    assert fin.z == M("D^-1, 1/(1+D+D^2), (1+D)/(1+D+D^2)\n0, 0, 0")
    assert fin.x == M("0, 0, 0\n1, 1, 1+D")
    # decoding recovers the mid-encoding state and then the information qubit,
    # whose decoded logical pair carries the 1/(1+D+D^2) entry before the
    # final stabilizer row addition
    dec = [s.state for s in spec.decode_trace]
    assert any(s.z == M("1, 1, 1/(1+D+D^2)\n0, 0, 0") for s in dec)
    pre_fix = dec[-2]
    assert pre_fix.info.x == M("0, 1, 1/(1+D+D^2)\n0, 0, 0")
    assert pre_fix.info.z == M("0, 0, 0\n0, 1, 0")
    decoded = dec[-1]
    assert decoded.info.x == M("0, 1, 0\n0, 0, 0")
    assert decoded.info.z == M("0, 0, 0\n0, 1, 0")
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 1.0, f"one infinite-depth gate, all displays matched, {elapsed:.3f}s")


def test_criterion_3_infinite_depth_synthesis():
    f = parse_poly("1+D+D^3")
    rule = synthesize_infinite_depth(f)
    assert rule.window == 4
    assert rule.cnot_pattern == ((1, 4), (3, 4))
    # the simulated rule reproduces the long-division series in a 12-frame window
    state = QuantumCheckMatrix(parse_matrix("0"), parse_matrix("1"))
    win = run_circuit(expand(state, window=12, scratch=0), Circuit((inf_depth(0, f),)))
    base = next(r for r in win.rows if r.shift == 0)
    got = [1 if base.x & win.bit(t, 0) else 0 for t in range(12)]
    series = series_expand(RationalPoly(parse_poly("1"), f), 0, 11)
    expected = [series.coeff(t) for t in range(12)]
    assert expected == [1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]  # 1+D+D^2+D^4+D^7+D^8+D^9+D^11
    assert got == expected
    _report(3, True, "window N=4, pattern 1->4 and 3->4, series exact over 12 frames")


def test_criterion_4_binary_encoding_golden():
    gen1 = parse_stream("XXX|XZY")
    gen2 = parse_stream("ZZZ|ZYX")
    row1, row2 = p2b(gen1), p2b(gen2)
    assert [str(e) for e in row1.z] == ["0", "D", "D"]
    assert [str(e) for e in row1.x] == ["1+D", "1", "1+D"]
    assert [str(e) for e in row2.z] == ["1+D", "1+D", "1"]
    assert [str(e) for e in row2.x] == ["0", "D", "D"]
    for a in (row1, row2):
        for b in (row1, row2):
            assert shifted_symplectic(a, b).is_zero()
    _report(4, True, "rate-1/3 generators encode exactly; all pairings vanish")


# -- criterion 5: randomized property suite, >= 1000 cases each -------------------------


def _rand_laurent(rng, maxbits=8, lows=(-1, 1)):
    return LaurentPoly(rng.randrange(0, maxbits), rng.randint(*lows))


def _rand_qcm(rng, rows, cols, rational=False):
    def rp():
        num = _rand_laurent(rng)
        if rational and rng.random() < 0.3:
            return RationalPoly(num, LaurentPoly(rng.randrange(1, 8) | 1, 0))
        return RationalPoly(num)

    z = PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)])
    x = PolyMatrix([[rp() for _ in range(cols)] for _ in range(rows)])
    return QuantumCheckMatrix(z, x)


def _rand_gate(rng, cols):
    kind = rng.choice(["CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF"])
    i = rng.randrange(cols)
    if kind in ("CNOT", "CPHASE") and cols >= 2:
        j = rng.choice([q for q in range(cols) if q != i])
        return cnot(i, j, rng.randint(-2, 2)) if kind == "CNOT" else cphase(i, j, rng.randint(-2, 2))
    if kind == "CPHASE_SELF":
        return cphase_self(i, rng.randint(-2, 2))
    if kind == "INF":
        return inf_depth(i, LaurentPoly(rng.randrange(1, 16), rng.randint(-1, 1)), time_reversed=rng.random() < 0.5)
    return hadamard(i) if kind == "H" else phase(i)


def test_criterion_5a_symplectic_invariance_under_gates():
    rng = random.Random(51)
    failures = 0
    for _ in range(1000):
        m = _rand_qcm(rng, rng.randint(1, 2), rng.randint(2, 3), rational=True)
        g = _rand_gate(rng, m.cols)
        if apply_gate(m, g).symplectic_gram() != m.symplectic_gram():
            failures += 1
    _report("5a", failures == 0, "1000 gates, symplectic product matrix invariant")


def test_criterion_5b_smith_reconstruction():
    rng = random.Random(52)
    failures = 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = PolyMatrix([[RationalPoly(_rand_laurent(rng, 16)) for _ in range(cols)] for _ in range(rows)])
        s = smith_form(m)
        if s.reconstruct(rows, cols) != m:
            failures += 1
            continue
        for w in (s.a, s.b):
            if det(w).num.weight() != 1:  # unimodular: determinant is a unit D^k
                failures += 1
    _report("5b", failures == 0, "1000 Smith decompositions reconstruct with unimodular witnesses")


def test_criterion_5c_commute_oracle_agrees_with_product():
    rng = random.Random(53)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 2)
        h1 = _rand_qcm(rng, 1, n).row(0)
        h2 = _rand_qcm(rng, 1, n).row(0)
        if commute_oracle(h1, h2, 4) != shifted_symplectic(h1, h2).is_zero():
            failures += 1
    _report("5c", failures == 0, "1000 row pairs, brute-force oracle matches the vanishing product")


def test_criterion_5d_window_gates_match_algebra():
    rng = random.Random(54)
    failures = 0
    cases = 0
    while cases < 1000:
        state = _rand_qcm(rng, rng.randint(1, 2), rng.randint(2, 3))
        if not state.is_polynomial():
            continue
        g = _rand_gate(rng, state.cols)
        if g.kind == "INF":
            continue  # covered by criterion 3 and the verify harness
        cases += 1
        window, scratch = 12, 3
        sim = run_circuit(expand(state, window, scratch), Circuit((g,)))
        alg = expand(apply_gate(state, g), window, scratch)
        table = {(r.source, r.shift): r for r in alg.rows}
        for row in sim.rows:
            other = table.get((row.source, row.shift))
            if other is None:
                continue
            mask = row.valid_mask(sim)
            if (row.z ^ other.z) & mask or (row.x ^ other.x) & mask:
                failures += 1
                break
    _report("5d", failures == 0, "1000 finite-depth gates agree with the window simulation")


def test_criterion_5e_syndrome_linearity():
    rng = random.Random(55)
    state = _rand_qcm(rng, 2, 3)
    win = expand(state, window=8, scratch=0)
    failures = 0
    for _ in range(1000):
        def rand_err():
            return ErrorPattern(
                tuple((rng.randrange(8), rng.randrange(3), rng.choice("XYZ")) for _ in range(rng.randint(1, 3)))
            )

        e1, e2 = rand_err(), rand_err()
        z1, x1 = e1.masks(win)
        z2, x2 = e2.masks(win)
        s12 = tuple(
            (bin((z1 ^ z2) & r.x).count("1") + bin((x1 ^ x2) & r.z).count("1")) % 2 for r in win.rows
        )
        if tuple(a ^ b for a, b in zip(syndrome(win, e1), syndrome(win, e2))) != s12:
            failures += 1
    _report("5e", failures == 0, "1000 error pairs, syndromes are linear")


def test_criterion_6_parameter_law_with_simulator():
    t0 = time.perf_counter()
    rng = random.Random(66)
    built = 0
    while built < 20:
        n = rng.randint(2, 4)
        r1, r2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        h1 = PolyMatrix([[RationalPoly(LaurentPoly(rng.randrange(0, 8), 0)) for _ in range(n)] for _ in range(r1)])
        h2 = PolyMatrix([[RationalPoly(LaurentPoly(rng.randrange(0, 8), 0)) for _ in range(n)] for _ in range(r2)])
        try:
            validate_inputs(h1, h2)
            spec = build_code(h1, h2)
        except ValidationError:
            continue
        built += 1
        # c equals the rank of H1 H2^T(D^-1), computed by the independent
        # field-elimination path
        c_rank = rank(h1 * h2.transpose_reverse())
        assert spec.c == c_rank
        assert spec.final_stabilizer.bob_cols == c_rank
        k1, k2 = n - r1, n - r2
        assert spec.k == k1 + k2 - n + c_rank
        assert len(spec.logical_cols) == spec.k
        # the k information columns stay clear of the unencoded stabilizer,
        # checked on the expanded window
        win = expand(spec.bare, window=32, scratch=0)
        for q in spec.logical_cols:
            col = spec.bare.bob_cols + q
            for row in win.rows:
                for t in range(32):
                    assert not (row.z | row.x) & win.bit(t, col)
        # and the full simulator verification passes at W = 32
        report = verify_code(spec, window=32)
        assert report.passed, report.to_text()
    elapsed = time.perf_counter() - t0
    _report(6, elapsed < 60.0, f"20 random codes verified at W=32 in {elapsed:.1f}s")


def test_criterion_7_negative_controls():
    with pytest.raises(CatastrophicInput) as err:
        validate_inputs(parse_matrix("1+D, 1+D"), H_EX1)
    assert str(err.value.factor) == "1+D"
    spec = build_code(H_EX1, H_EX1)
    spoiled = copy.copy(spec)
    spoiled.encoder = Circuit(spec.encoder.gates[:4] + spec.encoder.gates[5:])
    report = verify_code(spoiled, window=16)
    decode_check = next(c for c in report.checks if c.name == "decoded logical operators")
    assert not decode_check.passed
    _report(7, True, "catastrophic factor named; deleted gate breaks the decode check")
