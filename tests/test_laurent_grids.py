"""Differential test: H1's row basis and the invariant factors of H1 H2~ on Laurent grids.

The construction starts its top block from a row basis of H1 and classifies
a code by the invariant factors of H1(D) H2^T(D^-1).  The reference for
both is the rational-matrix path of the tests' Smith oracle: the first
rows(H1) rows of the witness B of H1's Smith decomposition H1 = A [I 0] B,
and the factors of the product formed in `PolyMatrix` arithmetic.  The
candidates are the row basis R H1 that `validate_inputs` returns, reached
by applying the Smith engine's row operations R to a copy of H1, and the
factors of the product that the construction forms on Laurent entries.
Admission requires R H1 C = [I 0], so R H1 = [I 0] C^-1 = [I 0] B exactly.
Both must match on every admitted pair of both benchmark corpora and on a
seeded sample of tiers S and M.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from eaqconv.construct import _product_factors, _reversed_product, validate_inputs
from eaqconv.errors import ValidationError
from eaqconv.polymat import format_matrix, laurent_grid, parse_matrix
from smith_oracle import product_factors, smith_form
from support import corpus_items

ROOT = Path(__file__).resolve().parent.parent


def _matrix(text):
    return parse_matrix(text.replace("; ", "\n"))


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
    return _admitted([(_matrix(it["h1"]), _matrix(it["h2"])) for it in corpus_items()])


def _sample_pairs():
    sys.path.insert(0, str(ROOT / "scripts"))
    from random_code_sweep import random_pair

    rng = random.Random("laurent-grids")
    return [random_pair(rng, 4, 2) for _ in range(24)] + [random_pair(rng, 6, 3) for _ in range(12)]


PAIRS = _corpus_pairs() + _sample_pairs()


def test_the_pairs_cover_both_corpora():
    assert len(PAIRS) == 340 + 36


def test_row_basis_is_the_first_rows_of_the_smith_witness():
    for h1, h2 in PAIRS:
        b = smith_form(h1).b
        assert validate_inputs(h1, h2)[2] == [[e.num for e in row] for row in b.entries[:h1.rows]], format_matrix(h1)


def test_laurent_product_factors_match_the_rational_product():
    for h1, h2 in PAIRS:
        got = _product_factors(_reversed_product(laurent_grid(h1), laurent_grid(h2)))
        assert got == product_factors(h1, h2), (format_matrix(h1), format_matrix(h2))
