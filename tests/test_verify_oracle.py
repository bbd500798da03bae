"""Differential test: the exact verification algebra against the rational one.

`tests/verify_oracle.py` keeps the row-space and symplectic routines that
ran on normalised `RationalPoly` entries.  Seeded random matrices go through
both `rref` and `row_space_equal` (on each row's numerators over its row
denominator): polynomial rows, rows with one shared or
distinct denominators, zero and duplicate rows, rank-deficient and
full-rank shapes, compared with matrices of the same row space (rows scaled
by rational functions, mixed, permuted, duplicated) and with perturbed ones.
The echelon matrix and pivots, and every verdict, must be equal exactly;
so must `shifted_symplectic` and `symplectic_gram`.  Checks (a)-(c) of
`verify_code` are compared as (name, passed, detail) on both worked
examples and the 12 pairs of tests/golden/random_codes.json, built as they
are and spoiled: one encoder or decoder gate deleted, one final-stabilizer
entry perturbed by D, and the decoded columns swapped.  The bare stream's
logical rows are also edited so that each early FAIL return of the decode
check fires: a logical row that fails to commute with the stabilizer, two
logical qubits that fail to be independent, and same-type logicals that
anticommute.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

import verify_oracle as oracle
from eaqconv.cli import EXAMPLES
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, QuantumCheckMatrix
from eaqconv.pauli import CheckRow, shifted_symplectic
from eaqconv.poly import ONE, LaurentPoly, RationalPoly
from eaqconv.polymat import parse_matrix, row_space_equal, rref
from eaqconv.simulate import verify_code
from smith_oracle import PolyMatrix
from support import golden_pairs, numerator_rows

CASES = 300
ROW_KINDS = ("none", "shared", "distinct", "zero")


def _laurent(rng):
    return LaurentPoly(rng.randrange(1, 1 << 5), rng.randint(-3, 3))


def _denominator(rng):
    return LaurentPoly(rng.randrange(1, 16) << 1 | 1, rng.randint(-2, 2))  # not 1; its unit moves to the numerator


def _row(rng, cols, kind):
    """One row of the given denominator kind."""
    if kind == "zero":
        return [RationalPoly.zero()] * cols
    shared = _denominator(rng)

    def entry():
        if rng.random() < 0.35:
            return RationalPoly.zero()
        if kind == "none" or rng.random() < 0.3:
            return RationalPoly(_laurent(rng))
        return RationalPoly(_laurent(rng), shared if kind == "shared" else _denominator(rng))

    return [entry() for _ in range(cols)]


def _rational(rng):
    num = _laurent(rng)
    return RationalPoly(num, _denominator(rng)) if rng.random() < 0.5 else RationalPoly(num)


def _combine(rng, rows, count):
    """count rows, each a random rational combination of `rows`."""
    out = []
    for _ in range(count):
        acc = [RationalPoly.zero()] * len(rows[0])
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            f = _rational(rng)
            acc = [a + f * b for a, b in zip(acc, row)]
        out.append(acc)
    return out


def _matrix(rng):
    """A random matrix; dependent rows are rational combinations of the others."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    grid = [_row(rng, cols, rng.choice(ROW_KINDS)) for _ in range(rows)]
    shape = rng.choice(("as drawn", "duplicate", "dependent"))
    if shape == "duplicate":
        grid.insert(rng.randrange(len(grid) + 1), list(rng.choice(grid)))
    elif shape == "dependent":
        grid += _combine(rng, grid, rng.randint(1, 2))
    return PolyMatrix(grid, cols=cols)


def _same_space(rng, m):
    """A matrix with m's row space: rows scaled, mixed, permuted, duplicated."""
    grid = m.to_lists()
    basis = [row for row in grid if any(row)] or grid
    out = [[f * e for e in row] for row, f in zip(basis, (_rational(rng) for _ in basis))]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        if i != j:
            f = _rational(rng)
            out[i] = [a + f * b for a, b in zip(out[i], out[j])]
    if rng.random() < 0.3:
        out.append(list(rng.choice(out)))
    if rng.random() < 0.3:
        out.append([RationalPoly.zero()] * m.cols)
    rng.shuffle(out)
    return PolyMatrix(out, cols=m.cols)


def _perturbed(rng, m):
    """m with one entry changed by D^k, or a row dropped, or a column more."""
    grid = m.to_lists()
    move = rng.choice(("entry", "drop", "column"))
    if move == "entry" or (move == "drop" and len(grid) < 2):
        i, j = rng.randrange(m.rows), rng.randrange(m.cols)
        grid[i][j] = grid[i][j] + RationalPoly(LaurentPoly.term(rng.randint(-2, 2)))
    elif move == "drop":
        del grid[rng.randrange(len(grid))]
    else:
        grid = [row + [RationalPoly.zero()] for row in grid]
    return PolyMatrix(grid)


def _features(m):
    out = set()
    for row in m.entries:
        dens = {e.den for e in row if not e.is_zero()}
        out.add("zero row" if not any(row) else "no denominator" if dens == {LaurentPoly.one()} else
                "shared denominator" if len(dens - {LaurentPoly.one()}) == 1 else "distinct denominators")
    if len(set(m.entries)) < m.rows:
        out.add("duplicate rows")
    rank = len(oracle.rref(m)[1])
    out.add("full rank" if rank == min(m.rows, m.cols) else "rank deficient")
    return out


def _spans_equal(*ms):
    return row_space_equal(*map(numerator_rows, ms))


def test_rref_and_row_spaces_match_the_rational_elimination():
    covered, verdicts = set(), set()
    for seed in range(CASES):
        rng = random.Random(seed)
        m = _matrix(rng)
        assert rref(m) == oracle.rref(m), seed
        covered |= _features(m)
        for other in (_same_space(rng, m), _perturbed(rng, m), _matrix(rng)):
            verdict = oracle.row_space_equal(m, other)
            assert _spans_equal(m, other) == verdict, seed
            assert _spans_equal(other, m) == oracle.row_space_equal(other, m), seed
            verdicts.add(verdict)
        same, perturbed = _same_space(rng, m), _perturbed(rng, m)
        assert oracle.row_space_equal(m, same), seed
        assert _spans_equal(m, same, _same_space(rng, m)), seed
        assert _spans_equal(m, same, perturbed) == oracle.row_space_equal(m, perturbed), seed
    assert covered == {
        "zero row", "no denominator", "shared denominator", "distinct denominators",
        "duplicate rows", "full rank", "rank deficient",
    }
    assert verdicts == {True, False}


def test_empty_and_zero_matrices():
    for m in (PolyMatrix.zero(0, 3), PolyMatrix.zero(2, 3), PolyMatrix.zero(3, 0)):
        assert rref(m) == oracle.rref(m)
        assert _spans_equal(m, PolyMatrix.zero(1, m.cols))
    assert not _spans_equal(PolyMatrix.zero(1, 2), PolyMatrix.zero(1, 3))


def test_symplectic_products_match_the_rational_sums():
    for seed in range(CASES):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        z = [_row(rng, cols, rng.choice(ROW_KINDS)) for _ in range(rows)]
        x = [_row(rng, cols, rng.choice(ROW_KINDS)) for _ in range(rows)]
        if rng.random() < 0.3:  # a commuting pair: one row repeated
            z.append(z[0])
            x.append(x[0])
        qcm = QuantumCheckMatrix(PolyMatrix(z, cols=cols), PolyMatrix(x, cols=cols))
        assert qcm.symplectic_gram() == oracle.symplectic_gram(qcm), seed
        a, b = CheckRow(tuple(z[0]), tuple(x[0])), CheckRow(tuple(z[-1]), tuple(x[-1]))
        assert shifted_symplectic(a, b) == oracle.shifted_symplectic(a, b), seed


def _build(h1, h2):
    return build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))


def assert_same_checks(spec):
    """The first three checks of `verify_code` equal the rational checks (a)-(c)."""
    got = [(c.name, c.passed, c.detail) for c in verify_code(spec, window=16).checks[:3]]
    want = [(c.name, c.passed, c.detail) for c in oracle.algebra_checks(spec)]
    assert got == want
    return got


def _spoiled(spec, **changes):
    out = copy.copy(spec)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


@pytest.mark.parametrize("name, h1, h2", golden_pairs(), ids=[p[0] for p in golden_pairs()])
def test_code_checks_match_the_rational_checks(name, h1, h2):
    spec = _build(h1, h2)
    assert all(passed for _, passed, _ in assert_same_checks(spec))
    rng = random.Random(name)

    gates = spec.encoder.gates
    deleted = range(len(gates)) if name in EXAMPLES else sorted(rng.sample(range(len(gates)), min(6, len(gates))))
    for i in deleted:
        assert_same_checks(_spoiled(spec, encoder=Circuit(gates[:i] + gates[i + 1:])))

    fs = spec.final_stabilizer
    grid = [list(row) for row in fs.z.entries]
    r, c = rng.randrange(fs.rows), rng.randrange(fs.cols)
    grid[r][c] = grid[r][c] + RationalPoly(LaurentPoly.term(1))
    spoiled = QuantumCheckMatrix(PolyMatrix(grid, cols=fs.cols), fs.x, fs.bob_cols, fs.row_labels, fs.info)
    checks = assert_same_checks(_spoiled(spec, final_stabilizer=spoiled))
    assert not all(passed for _, passed, _ in checks)

    if spec.k:
        cols = spec.decoded_cols[::-1] if spec.k > 1 else ((spec.decoded_cols[0] + 1) % spec.n,)
        checks = assert_same_checks(_spoiled(spec, decoded_cols=cols))
        assert not checks[2][1]

        info = spec.bare.info  # the first Z logical scaled by 1+D: a pairing that is no unit
        f = RationalPoly(LaurentPoly(0b11))
        z, x = ([list(row) for row in m.entries] for m in (info.z, info.x))
        z[1], x[1] = [f * e for e in z[1]], [f * e for e in x[1]]
        info = QuantumCheckMatrix(PolyMatrix(z, cols=info.cols), PolyMatrix(x, cols=info.cols), info.bob_cols, info.row_labels)
        bare = spec.bare
        checks = assert_same_checks(_spoiled(spec, bare=QuantumCheckMatrix(bare.z, bare.x, bare.bob_cols, bare.row_labels, info)))
        assert "instead of a unit" in checks[2][2]

    gates = spec.decoder.gates  # a replaced decoder is replayed, never read from the build
    deleted = range(len(gates)) if name in EXAMPLES else sorted(rng.sample(range(len(gates)), min(6, len(gates))))
    decoded = [assert_same_checks(_spoiled(spec, decoder=Circuit(gates[:i] + gates[i + 1:])))[2][1] for i in deleted]
    assert not spec.k or not all(decoded)


TWO_LOGICALS = ("n4d2-1", "n4d2-4", "n4d2-7", "n6d3-9", "n6d3-10", "n6d3-11", "n6d3-12")


def _logicals_edited(spec, edit):
    """spec with the logical rows of its bare stream changed by edit(rows, col), col(q) the column of qubit q.

    No gate changes a shifted symplectic product, so no replaced encoder or
    decoder can make the decode check's product tests fail; a bare stream
    whose logical rows break them can.
    """
    bare, info = spec.bare, spec.bare.info
    rows = [list(row) for row in info.nums]
    edit(rows, lambda q: next(j for j, e in enumerate(info.nums[2 * q][info.cols:]) if e))
    info = QuantumCheckMatrix.from_rows(tuple(map(tuple, rows)), info.dens, info.cols, info.bob_cols, info.row_labels)
    return dataclasses.replace(spec, bare=QuantumCheckMatrix.from_rows(
        bare.nums, bare.dens, bare.cols, bare.bob_cols, bare.row_labels, info))


def _assert_decode_fails(spec, detail):
    checks = assert_same_checks(spec)
    assert checks[2] == ("decoded logical operators", False, detail)
    assert checks[0][1] and checks[1][1]


@pytest.mark.parametrize("name, h1, h2", golden_pairs(), ids=[p[0] for p in golden_pairs()])
def test_a_logical_that_fails_to_commute_is_reported(name, h1, h2):
    """X1 gains an X where the first stabilizer row has a Z."""
    spec = _build(h1, h2)
    n = spec.bare.cols
    j = max(j for j, e in enumerate(spec.bare.nums[0][:n]) if e)

    def edit(rows, col):
        rows[0][n + j] = ONE

    _assert_decode_fails(_logicals_edited(spec, edit), "decoded logical row 1 fails to commute with the stabilizer")


@pytest.mark.parametrize("name, h1, h2", [p for p in golden_pairs() if p[0] in TWO_LOGICALS], ids=TWO_LOGICALS)
def test_logicals_that_fail_to_pair_are_reported(name, h1, h2):
    """X1 gains X2's column: qubits 1 and 2 are not independent.  X2 gains Z1's column: X1 and X2 anticommute."""
    spec = _build(h1, h2)
    assert spec.k >= 2
    n = spec.bare.cols

    def entangled(rows, col):
        rows[0][n + col(1)] = ONE

    def crossed(rows, col):
        rows[2][col(0)] = ONE

    _assert_decode_fails(_logicals_edited(spec, entangled), "logical qubits 1 and 2 fail to be independent")
    _assert_decode_fails(_logicals_edited(spec, crossed), "same-type logicals 1, 2 anticommute")
