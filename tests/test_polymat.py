"""Polynomial matrices: the Smith engine (through the tests' Smith oracle), rank, elementary operations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from eaqconv import polymat
from eaqconv.errors import DimensionMismatch
from eaqconv.poly import LaurentPoly, RationalPoly, divides, gcd
from eaqconv.poly import parse_poly as P
from eaqconv.polymat import format_matrix, parse_matrix, row_space_equal, rref
from smith_oracle import PolyMatrix, smith_form
from support import numerator_rows, submatrix
from verify_oracle import det


def M(text):
    return PolyMatrix(parse_matrix(text).entries)


def rank(m):
    """Rank over GF(2)(D): the number of pivots of the package's elimination."""
    return len(rref(m)[1])


def _random_laurent(rng, maxdeg=3, lowrange=(0, 0)):
    bits = rng.randrange(0, 1 << (maxdeg + 1))
    low = rng.randint(*lowrange)
    return LaurentPoly(bits, low)


def _random_matrix(rng, rows, cols, lowrange=(0, 0)):
    return PolyMatrix([[RationalPoly(_random_laurent(rng, lowrange=lowrange)) for _ in range(cols)] for _ in range(rows)])


def _elementary(n, i, j, f):
    """The n x n identity with entry (i, j) set to f.

    On the left it adds f * row j to row i (i != j) or scales row i by f
    (i == j); on the right it does the same to columns j and i.
    """
    grid = PolyMatrix.identity(n).to_lists()
    grid[i][j] = RationalPoly(f)
    return PolyMatrix(grid)


def _permutation(n, i, j):
    """The n x n identity with rows i and j swapped."""
    grid = PolyMatrix.identity(n).to_lists()
    grid[i], grid[j] = grid[j], grid[i]
    return PolyMatrix(grid)


def _minor_divisors(m):
    """Delay-free gcds of all k x k minors; the classical Smith oracle."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        acc = None
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                d = det(submatrix(m, rows, cols)).num
                if d.is_zero():
                    continue
                acc = LaurentPoly(d.bits, 0) if acc is None else gcd(acc, d)
        out.append(acc)
    return out


# -- smith goldens ------------------------------------------------------------


def test_smith_identity():
    m = PolyMatrix.identity(3)
    s = smith_form(m)
    assert list(s.gamma) == [P("1")] * 3
    assert list(s.unit_exps) == [0, 0, 0]
    assert s.reconstruct(3, 3) == m


def test_smith_noncatastrophic_row():
    # the check matrix of a noncatastrophic delay-free encoder has unit factors
    m = M("1+D^2, 1+D+D^2")
    s = smith_form(m)
    assert list(s.gamma) == [P("1")]
    assert list(s.unit_exps) == [0]
    assert s.reconstruct(1, 2) == m


def test_smith_diag_example_vs_minor_oracle():
    m = M("1+D, 0\n0, D")
    s = smith_form(m)
    divisors = _minor_divisors(m)  # [1, 1+D] after delay-free normalization
    assert divisors == [P("1"), P("1+D")]
    assert list(s.gamma) == [P("1"), P("1+D")]  # quotients of successive divisors
    assert s.reconstruct(2, 2) == m


def test_smith_rejects_rational_entries():
    m = PolyMatrix([[RationalPoly(P("1"), P("1+D"))]])
    with pytest.raises(ValueError):
        smith_form(m)


def test_smith_rank_deficient():
    m = M("1+D, 1+D\n1+D, 1+D")
    s = smith_form(m)
    assert s.rank == 1
    assert s.gamma[0] == P("1+D")
    assert s.reconstruct(2, 2) == m


# -- smith properties ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_smith_reconstruction_and_witnesses(seed, rows, cols):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols, lowrange=(-2, 2))
    s = smith_form(m)
    assert s.reconstruct(rows, cols) == m
    # unimodular witnesses: determinants are units D^k
    for w in (s.a, s.b):
        d = det(w).num
        assert d.weight() == 1
    # divisibility chain on the normalized factors
    for g1, g2 in zip(s.gamma, s.gamma[1:]):
        assert divides(g1, g2)
    # normalized factors match the minor-gcd oracle quotients
    divisors = _minor_divisors(m)
    prev = P("1")
    for g, dv in zip(s.gamma, divisors):
        assert not dv.is_zero()
        quotient_ok = dv == prev * g
        assert quotient_ok, f"factor {g} vs divisor {dv}"
        prev = dv


def _random_unimodular(rng, n):
    m = PolyMatrix.identity(n)
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(3)
        if n < 2:
            kind = 2
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            m = _elementary(n, j, i, _random_laurent(rng, lowrange=(-1, 1))) * m
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            m = _permutation(n, i, j) * m
        else:
            i = rng.randrange(n)
            m = _elementary(n, i, i, LaurentPoly.term(rng.randint(-2, 2))) * m
    return m


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_invariant_factors_stable_under_unimodular_sandwich(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    m = _random_matrix(rng, rows, cols, lowrange=(-1, 1))
    u = _random_unimodular(rng, rows)
    v = _random_unimodular(rng, cols)
    s1 = smith_form(m)
    s2 = smith_form(u * m * v)
    assert s1.gamma == s2.gamma  # delay-free parts agree; units may differ


# -- rank ----------------------------------------------------------------------


def test_rank_example_product():
    h = M("1+D^2, 1+D+D^2")
    prod = h * h.transpose_reverse()
    assert prod == M("1")
    assert rank(prod) == 1


def test_rank_zero_matrix():
    assert rank(PolyMatrix.zero(2, 3)) == 0


def test_rank_second_example_product():
    h = M("1, 1+D")
    prod = h * h.transpose_reverse()
    assert prod == M("D^-1+1+D")
    assert rank(prod) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rank_equals_nonzero_invariant_factors(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    m = _random_matrix(rng, rows, cols)
    assert rank(m) == smith_form(m).rank


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rank_invariance(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 3), rng.randint(2, 3)
    m = _random_matrix(rng, rows, cols, lowrange=(-1, 1))
    r = rank(m)
    assert rank(m.transpose_reverse()) == r
    i, j = rng.sample(range(rows), 2)
    assert rank(_elementary(rows, j, i, _random_laurent(rng)) * m) == r
    assert rank(_elementary(rows, i, i, LaurentPoly.term(rng.randint(-2, 2))) * m) == r
    ci, cj = rng.sample(range(cols), 2)
    assert rank(m * _elementary(cols, ci, cj, _random_laurent(rng))) == r
    assert rank(m * _permutation(cols, ci, cj)) == r


# -- mul / transpose_reverse ----------------------------------------------------


def test_transpose_reverse_golden():
    m = M("1+D^2, 1+D+D^2")
    assert m.transpose_reverse() == M("1+D^-2\n1+D^-1+D^-2")


def test_transpose_reverse_involution():
    m = M("1+D, D^2\n0, 1")
    assert m.transpose_reverse().transpose_reverse() == m


def test_mul_identity_and_golden():
    h1 = M("1, 1+D")
    assert h1 * PolyMatrix.identity(2) == h1
    assert h1 * h1.transpose_reverse() == M("D^-1+1+D")


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        M("1, D") * M("1, D")


# -- row spaces and text format ----------------------------------------------------


def test_row_space_equal_under_scaling():
    a = M("1, 1+D")
    b = PolyMatrix([[RationalPoly(P("1"), P("1+D+D^2")), RationalPoly(P("1+D"), P("1+D+D^2"))]])
    assert row_space_equal(numerator_rows(a), numerator_rows(b))
    assert not row_space_equal(numerator_rows(a), numerator_rows(M("1, D")))


def test_rref_idempotent():
    m = M("1+D, D\n1, 1")
    r1, piv = rref(m)
    r2, piv2 = rref(r1)
    assert (r1, piv) == (r2, piv2)


def test_matrix_text_round_trip():
    m = M("1+D^2, 1+D+D^2\n0, 1")
    assert parse_matrix(format_matrix(m)) == m


def test_matrix_text_comments():
    m = parse_matrix("# check matrix\n1, 1+D  # row 1\n")
    assert m == M("1, 1+D")


def test_entry_constructor_shapes_and_immutability():
    """The package's `PolyMatrix(entries)`: its shape from the grid or `cols`, ragged rows refused, rows compared and hashed, no attribute set."""
    empty = polymat.PolyMatrix([])
    assert (empty.rows, empty.cols) == (0, 0)
    assert polymat.PolyMatrix([], cols=3).cols == 3
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        polymat.PolyMatrix([[RationalPoly.one()], [RationalPoly.one(), RationalPoly.zero()]])
    m = polymat.PolyMatrix([[RationalPoly(P("1"), P("1+D")), P("D")]])
    parsed = parse_matrix("1/(1+D), D")
    assert m == parsed and hash(m) == hash(parsed)
    assert repr(m) == "PolyMatrix('1/(1+D), D')"
    with pytest.raises(AttributeError, match="immutable"):
        m.rows = 2
