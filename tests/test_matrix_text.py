"""Differential test: matrix text read into rows, against the per-term parser.

Seeded matrices of cells with unit, shared and distinct denominators, with
parenthesised sides, negative exponents and text that cancels ('1+1',
'(1+D)/(1+D)', 'D/D^3'), go through `parse_matrix`.  For each:

- its entries equal the canonical grid of `tests/poly_oracle.py`'s per-term
  `parse_rational`, cell by cell;
- `format_matrix` prints each entry of that grid as the per-term formatter
  does, in lowest terms;
- the parsed matrix, `PolyMatrix` of the oracle's grid and a
  `QuantumCheckMatrix` view formed from its stored rows are equal and hash
  alike.

Every malformed polynomial of `tests/test_poly.py`, rational text with a
zero or malformed denominator, and the matrix-level errors (an empty
matrix, rows of differing lengths, a bad entry named with its line and
column) raise `PolyParseError` with the message pinned here.
"""

from __future__ import annotations

import random

import pytest

import poly_oracle as oracle
from eaqconv.errors import PolyParseError
from eaqconv.gates import QuantumCheckMatrix
from eaqconv.poly import RationalPoly, parse_rational
from eaqconv.polymat import PolyMatrix, format_matrix, parse_matrix

CASES = 300
CANCELLING = ("1+1", "(1+D)/(1+D)", "D/D^3", "(1+D^2)/(1+D)", "0/(1+D)", "D^-1+D^-1+D", "(D+D^2)/(D^2+D^3)")


def _sum(rng):
    """A nonzero-looking sum of terms with negative exponents and, now and then, a repeated term."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        if terms and rng.random() < 0.15:
            terms.append(rng.choice(terms))
        else:
            k = rng.randint(-4, 4)
            terms.append("1" if k == 0 else "D" if k == 1 else f"D^{k}")
    return rng.choice(("+", " + ")).join(terms)


def _side(rng):
    s = _sum(rng)
    return f"({s})" if rng.random() < 0.3 or "+" in s and rng.random() < 0.5 else s


def _den(rng):
    """A nonzero denominator text: a polynomial, a unit D^k now and then, or a sum to cancel."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(("1", "D", "D^3", "D^-2"))
    den = _sum(rng)
    while oracle.parse_poly(den).is_zero():
        den = _sum(rng)
    return f"({den})" if "+" in den else den


def _cell(rng, kind, shared):
    if rng.random() < 0.1:
        return rng.choice(CANCELLING)
    if kind == "unit":
        return _side(rng)
    return f"{_side(rng)}/{shared if kind == 'shared' else _den(rng)}"


def _matrix_text(rng, rows, cols):
    """(text, cells) of a seeded matrix; each row has unit, shared or distinct denominators."""
    cells = []
    for _ in range(rows):
        kind = rng.choice(("unit", "shared", "distinct"))
        shared = _den(rng)
        cells.append([_cell(rng, kind, shared) for _ in range(cols)])
    lines = [rng.choice((", ", ",", " , ")).join(row) for row in cells]
    if rng.random() < 0.3:
        lines = ["# seeded", *lines[:1], "", *lines[1:]]
    return "\n".join(lines), cells


def _format_entry(e) -> str:
    """A canonical entry printed term by term with the per-term formatter."""
    text = oracle.format_poly(e.num)
    if e.den.bits == 1:
        return text
    return f"({text})/({oracle.format_poly(e.den)})" if "+" in text else f"{text}/({oracle.format_poly(e.den)})"


def _pairs(grid):
    return [[(e.num, e.den) for e in row] for row in grid]


@pytest.mark.parametrize("seed", range(3))
def test_parsed_rows_match_the_per_term_parser(seed):
    rng = random.Random(f"matrix-text/{seed}")
    for _ in range(CASES):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        text_z, cells_z = _matrix_text(rng, rows, cols)
        text_x, cells_x = _matrix_text(rng, rows, cols)
        z, x = parse_matrix(text_z), parse_matrix(text_x)
        for m, text, cells in ((z, text_z, cells_z), (x, text_x, cells_x)):
            want = [[oracle.parse_rational(c) for c in row] for row in cells]
            assert _pairs(m.entries) == _pairs(want), text
            assert format_matrix(m) == "\n".join(", ".join(map(_format_entry, row)) for row in want), text
            grid = PolyMatrix([[RationalPoly(e.num, e.den) for e in row] for row in want])
            assert grid == m and hash(grid) == hash(m), text
        qcm = QuantumCheckMatrix(z, x)
        view = QuantumCheckMatrix.from_rows(qcm.zn, qcm.xn, qcm.dens, qcm.cols)
        assert (view.z, view.x) == (z, x), (text_z, text_x)
        assert (hash(view.z), hash(view.x)) == (hash(z), hash(x))


# (cell, message): every malformed polynomial of tests/test_poly.py, then rational text
BAD_CELLS = (
    ("1+Q", "bad term 'Q'"),
    ("", "empty polynomial"),
    ("D^x", "bad exponent in term 'D^x'"),
    ("D^1_0", "bad term 'D^1_0'"),
    ("1+D^1_0", "bad term 'D^1_0'"),
    ("D^\u0663", "bad term 'D^\u0663'"),
    ("D^-\u0663", "bad term 'D^-\u0663'"),
    ("D^", "bad exponent in term 'D^'"),
    ("D^-", "bad exponent in term 'D^-'"),
    ("D^--1", "bad exponent in term 'D^--1'"),
    ("D^+1", "bad exponent in term 'D^'"),
    ("D^1000001", "exponent in term 'D^1000001' is beyond the bound |k| <= 1000000"),
    ("1+D^-1000001", "exponent in term 'D^-1000001' is beyond the bound |k| <= 1000000"),
    ("1+D^10000000000000", "exponent in term 'D^10000000000000' is beyond the bound |k| <= 1000000"),
    ("D^-10000000000000+D", "exponent in term 'D^-10000000000000' is beyond the bound |k| <= 1000000"),
    ("1/0", "zero denominator"),
    ("(1+D)/(1+1)", "zero denominator"),
    ("1/", "empty polynomial"),
    ("(1+D)/(Q)", "bad term 'Q'"),
    ("1+D)/(1", "bad term 'D)/(1'"),
    ("(1)+(D)", "bad term '(1)'"),  # outer parentheses that do not enclose the whole cell stay
)


@pytest.mark.parametrize("cell, message", BAD_CELLS, ids=[repr(c) for c, _ in BAD_CELLS])
def test_bad_cells_raise_the_pinned_message(cell, message):
    with pytest.raises(PolyParseError) as got:
        parse_rational(cell)
    assert str(got.value) == message
    text = f"# header\n1, 1+D, D\n\nD^2, 1, {cell}  # third cell\n"
    with pytest.raises(PolyParseError) as got:
        parse_matrix(text)
    assert str(got.value) == f"bad entry {cell.strip()!r}: {message} (line 4, column 3)"
    assert (got.value.line, got.value.column) == (4, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix"),
        ("# only a comment\n\n  \n", "empty matrix"),
        ("1, D\n1", "rows have differing lengths"),
        ("1, D\n1, D, D^2  # one more", "rows have differing lengths"),
        ("1,", "bad entry '': empty polynomial (line 1, column 2)"),
    ],
)
def test_matrix_errors_raise_the_pinned_message(text, message):
    with pytest.raises(PolyParseError) as got:
        parse_matrix(text)
    assert str(got.value) == message
