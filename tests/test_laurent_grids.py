"""Differential test: H1's row basis and the classification's invariant factors on Laurent grids.

The construction starts its top block from a row basis of H1 and classifies
a code by the invariant factors of H1(D) H2^T(D^-1).  The reference for
both is the rational-matrix path of the tests' Smith oracle: the first
rows(H1) rows of the witness B of H1's Smith decomposition H1 = A [I 0] B,
and the factors of the product formed in `PolyMatrix` arithmetic.  The
candidates are the row basis R H1 that `validate_inputs` returns, reached
by applying the Smith engine's row operations R to a copy of H1, and the
factors that the classification records.  Admission requires
R H1 C = [I 0], so R H1 = [I 0] C^-1 = [I 0] B exactly.  Both must match
on every admitted pair of both benchmark corpora and on a seeded sample of
tiers S and M; the factors also on a larger seeded sample of tiers S, M
and L.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from eaqconv.construct import decompose_general, validate_inputs
from eaqconv.errors import ValidationError
from eaqconv.polymat import format_matrix
from smith_oracle import product_factors, smith_form
from support import corpus_items, matrix

ROOT = Path(__file__).resolve().parent.parent


def _admitted(pairs):
    out = []
    for h1, h2 in pairs:
        try:
            validate_inputs(h1, h2)
        except ValidationError:
            continue
        out.append((h1, h2))
    return out


def _corpus_pairs():
    return _admitted([(matrix(it["h1"]), matrix(it["h2"])) for it in corpus_items()])


def _sample_pairs(seed, counts):
    """Seeded admitted pairs, counts[t] of them from tier t's generator."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from random_code_sweep import random_pair

    rng = random.Random(seed)
    return [random_pair(rng, *TIERS[t]) for t, count in counts.items() for _ in range(count)]


TIERS = {"S": (4, 2), "M": (6, 3), "L": (8, 4)}  # tier -> (n_max, deg_max), as in perfbench/corpus.py
PAIRS = _corpus_pairs() + _sample_pairs("laurent-grids", {"S": 24, "M": 12})


def test_the_pairs_cover_both_corpora():
    assert len(PAIRS) == 340 + 36


def test_row_basis_is_the_first_rows_of_the_smith_witness():
    for h1, h2 in PAIRS:
        b = smith_form(h1).b
        assert validate_inputs(h1, h2)[2] == [[e.num for e in row] for row in b.entries[:h1.rows]], format_matrix(h1)


def test_laurent_product_factors_match_the_rational_product():
    sample = _sample_pairs("laurent-grids/classify", {"S": 280, "M": 180, "L": 100})
    for h1, h2 in PAIRS + sample:
        got = list(decompose_general(h1, h2).product_factors)
        assert got == product_factors(h1, h2)[0], (format_matrix(h1), format_matrix(h2))
