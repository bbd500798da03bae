"""The classification must not depend on the basis of the input rows.

Reordering the rows of H1 or H2, or adding a polynomial multiple of one row
to another (a unimodular row mix), does not change the code they define,
so it must not change the classification either.  The tests take the
class-2 codes of both benchmark corpora with a matrix of two or more rows
(a code whose matrices have one row each has nothing to reorder or mix):
every row order of the [[4, 2; 2]] code of `BASELINE`, row orders of a
seeded subset of those codes (all of them when there are at most 36, else
12 seeded ones), and `MIXES` seeded row mixes of `BASELINE` and of every
one of those codes.

- (n, k, c, s) and the printed invariant factors of H1 H2~ stay the same
  under every order and mix, and no variant is rejected.
- The class tag does not, today (strict xfail): the special-case test of
  `decompose_general` runs on whichever standard form the Smith path
  reaches, and the row basis changes that path.  On `BASELINE`, swapping the rows of both
  matrices gives `class2_special` and the other three row orders give
  `class2`.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import permutations, product
from math import factorial

import pytest

from eaqconv.construct import CLASS2, CLASS2_SPECIAL, decompose_general
from eaqconv.errors import EaqconvError
from eaqconv.poly import LaurentPoly
from eaqconv.polymat import laurent_grid, parse_matrix
from support import corpus_items

BASELINE = ("D+D^2, 1, 1, D^2; 1+D^2, 1, 1+D, 1+D+D^2", "D, 1, 1+D^2, 1+D; D^2, 1+D, D+D^2, D+D^2")
SUBSET = 48
MIXES = 4


def _class2_codes():
    """The class-2 corpus codes with a matrix of two or more rows."""
    return [(it["h1"], it["h2"]) for it in corpus_items()
            if it["expect"].get("class") in (CLASS2, CLASS2_SPECIAL) and ";" in it["h1"] + it["h2"]]


def _orders(rng, r1, r2):
    """(H1 row order, H2 row order) pairs: every one when there are at most 36, else 12 seeded ones."""
    if factorial(r1) * factorial(r2) <= 36:
        return list(product(permutations(range(r1)), permutations(range(r2))))
    return [(tuple(rng.sample(range(r1), r1)), tuple(rng.sample(range(r2), r2))) for _ in range(12)]


def _mix(rng, rows):
    """rows after two seeded row j += f * row i, f a nonzero polynomial of degree <= 2; one row stays as it is."""
    grid = laurent_grid(parse_matrix("\n".join(rows)))
    if len(grid) > 1:
        for _ in range(2):
            i, j = rng.sample(range(len(grid)), 2)
            f = LaurentPoly(rng.randrange(1, 8), 0)
            grid[j] = [a + f * b for a, b in zip(grid[j], grid[i])]
    return [", ".join(map(str, row)) for row in grid]


def _params(rows1, rows2):
    """(class tag, (n, k, c, s, printed invariant factors)); a typed rejection is ("rejected", its message)."""
    try:
        record = decompose_general(parse_matrix("\n".join(rows1)), parse_matrix("\n".join(rows2)))
    except EaqconvError as exc:
        return "rejected", f"{type(exc).__name__}: {exc}"
    return record.class_tag, (record.n, record.k, record.c, record.s, tuple(map(str, record.product_factors)))


@cache
def _classified():
    """[(H1 rows, H2 rows, params of the code, [params of each variant])].

    The variants are the row orders of `BASELINE` and of `SUBSET` seeded
    codes, then `MIXES` row mixes of `BASELINE` and of every code (a
    one-row matrix of a code keeps its row).
    """
    codes = _class2_codes()
    order_rng, mix_rng = random.Random("row-order/orders"), random.Random("row-order/mixes")
    variants = []
    for h1, h2 in [BASELINE] + random.Random("row-order").sample(codes, SUBSET):
        rows1, rows2 = h1.split("; "), h2.split("; ")
        orders = _orders(order_rng, len(rows1), len(rows2))
        variants.append((rows1, rows2, [([rows1[i] for i in p1], [rows2[i] for i in p2]) for p1, p2 in orders]))
    for h1, h2 in [BASELINE] + codes:
        rows1, rows2 = h1.split("; "), h2.split("; ")
        variants.append((rows1, rows2, [(_mix(mix_rng, rows1), _mix(mix_rng, rows2)) for _ in range(MIXES)]))
    return [(rows1, rows2, _params(rows1, rows2), [_params(*v) for v in vs]) for rows1, rows2, vs in variants]


def test_row_basis_leaves_the_parameters_and_factors_unchanged():
    changed = [(rows1, rows2, ref, got) for rows1, rows2, ref, seen in _classified() for got in seen if got[1] != ref[1]]
    assert not changed, changed


@pytest.mark.xfail(strict=True, reason="the special-case test depends on the reduction path")
def test_row_order_leaves_the_classification_unchanged():
    changed = [(rows1, rows2, ref, got) for rows1, rows2, ref, seen in _classified() for got in seen if got != ref]
    assert not changed, changed
