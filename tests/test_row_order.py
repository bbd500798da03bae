"""The class tag and [[n, k; c]] must not depend on the order of the input rows (fails today).

Permuting the rows of H1 or H2 does not change the code they define, so it
must not change the classification either.  Today `_special_condition` is
evaluated on whichever standard form the Smith path reaches, and row order
changes that path.  On the [[4, 2; 2]] code of `BASELINE`, swapping the
rows of both matrices gives `class2_special` and the other three row
orders give `class2`.  The test takes every row order of that example, and
row orders of a seeded subset of the class-2 codes of both benchmark
corpora: all of them when there are at most 36, else 12 seeded ones.
Every order must give the same `class_tag` and the same (n, k, c).
"""

from __future__ import annotations

import random
from itertools import permutations, product
from math import factorial

import pytest

from eaqconv.construct import CLASS2, CLASS2_SPECIAL, classify
from eaqconv.polymat import parse_matrix
from support import corpus_items

BASELINE = ("D+D^2, 1, 1, D^2; 1+D^2, 1, 1+D, 1+D+D^2", "D, 1, 1+D^2, 1+D; D^2, 1+D, D+D^2, D+D^2")
SUBSET = 48


def _class2_codes():
    codes = [(it["h1"], it["h2"]) for it in corpus_items() if it["expect"].get("class") in (CLASS2, CLASS2_SPECIAL)]
    return random.Random("row-order").sample(codes, SUBSET)


def _orders(rng, r1, r2):
    """(H1 row order, H2 row order) pairs: every one when there are at most 36, else 12 seeded ones."""
    if factorial(r1) * factorial(r2) <= 36:
        return list(product(permutations(range(r1)), permutations(range(r2))))
    return [(tuple(rng.sample(range(r1), r1)), tuple(rng.sample(range(r2), r2))) for _ in range(12)]


def _params(rows1, rows2):
    record = classify(parse_matrix("\n".join(rows1)), parse_matrix("\n".join(rows2)))[1]
    return record.class_tag, (record.n, record.k, record.c)


@pytest.mark.xfail(strict=True, reason="the special-case test depends on the reduction path")
def test_row_order_leaves_the_classification_unchanged():
    rng = random.Random("row-order/orders")
    changed = []
    for h1, h2 in [BASELINE] + _class2_codes():
        rows1, rows2 = h1.split("; "), h2.split("; ")
        seen = {_params(rows1, rows2)}
        for p1, p2 in _orders(rng, len(rows1), len(rows2)):
            seen.add(_params([rows1[i] for i in p1], [rows2[i] for i in p2]))
        if len(seen) > 1:
            changed.append((h1, h2, sorted(seen)))
    assert not changed, changed
