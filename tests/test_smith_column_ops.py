"""Differential test: the Smith reduction's column operations and decisions stay the same.

The construction logs every Smith column operation as a CNOT string and
applies its column action to its Z and X grids.  With `want_trace` it also
steps each logged string's gates through `apply_gate` for the trace; a
traced build must reach the same string log and the same grids as a plain
one, and its trace must take one step per logged gate, labelled as
`format_gate` prints it.  Comparing the grids matters: a wrong X-side
action in a column addition can leave every report equal while the grids
differ.  As both builds run the same column addition, the logged
gates are also replayed by `Circuit.apply` on the column planes from
[H1 | 0; 0 | H2]; the rows they end as must span the same row space as the
final grid, which the reduction reached from there by row operations.
The codes are the first 24 `verify_w64` and the first 16 `build_l` pairs
of the benchmark's seed-1 corpus, plus a seeded sample of tiers S and M.

The Smith oracle's `smith_form`, which runs the package's Smith engine, is
pinned over 500 seeded Laurent matrices (zero rows and columns,
rank-deficient ones, non-unit factors, D^k units; the width fallback fires
on 22 of them) as one sha256 of its witnesses, factors and units, and on
each of them `invariant_factors`, the same reduction with no witnesses,
must give the same factors and units.  One corpus code on which
the width fallback fires has its reduction gate log pinned, so the
engine's pivot and cycle decisions are held fixed where they matter most.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from eaqconv import polymat
from eaqconv.cli import _spec_report_json
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, QuantumCheckMatrix, format_gate
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, format_matrix, laurent_grid, row_space_equal
from smith_oracle import invariant_factors, smith_form
from support import matrix

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus" / "seed-1.json"
SMITH_CASES = 500
SMITH_SHA256 = "530cc4e1a2c8de80aac950375f1adcc5cb663e5803662f5a1b78807be3eaca46"
# verify_w64 pair 19 of the seed-1 corpus: the width fallback divides 9 times
WIDE_PAIR = 19
WIDE_GATES = 429
WIDE_GATES_SHA256 = "e5cbabd42ddb6810163302214d76216c80f0fc0d745d09fbadba8ac1adeef932"


def _corpus_pairs():
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    return [(it["h1"], it["h2"]) for it in corpus["verify_w64"][:24] + corpus["build_l"][:16]]


def _sample_pairs():
    sys.path.insert(0, str(ROOT / "scripts"))
    from random_code_sweep import random_pair

    rng = random.Random("smith-column-ops")
    pairs = [random_pair(rng, 4, 2) for _ in range(12)] + [random_pair(rng, 6, 3) for _ in range(8)]
    return [tuple(format_matrix(h).replace("\n", "; ") for h in pair) for pair in pairs]


PAIRS = _corpus_pairs() + _sample_pairs()


def _stacked(h1, h2):
    """[H1 | 0; 0 | H2], the check matrix the reduction starts from."""
    zero = [RationalPoly.zero()] * h1.cols
    z = PolyMatrix([list(r) for r in h1.entries] + [zero] * h2.rows)
    x = PolyMatrix([zero] * h1.rows + [list(r) for r in h2.entries])
    return QuantumCheckMatrix(z, x)


@pytest.mark.parametrize("start", range(0, len(PAIRS), 10))
def test_traced_and_plain_reductions_agree(start):
    for h1, h2 in PAIRS[start:start + 10]:
        m1, m2 = matrix(h1), matrix(h2)
        traced = build_code(m1, m2, want_trace=True)
        plain = build_code(m1, m2)
        rt, rp = traced.record.reduction, plain.record.reduction
        assert rp.strings == rt.strings, (h1, h2)
        logged = Circuit.from_strings(rp.strings)
        steps = [s.label for s in rt.trace if s.label.startswith(("CNOT ", "H "))]
        assert steps == [format_gate(g) for g in logged], (h1, h2)  # one trace step per logged gate
        assert rp.z == rt.z, (h1, h2)
        assert rp.x == rt.x, (h1, h2)
        assert _spec_report_json(plain) == _spec_report_json(traced), (h1, h2)
        replayed = logged.apply(_stacked(m1, m2))
        rows = [list(z + x) for z, x in zip(replayed.zn, replayed.xn)]
        assert row_space_equal(rows, [z + x for z, x in zip(rp.z, rp.x)]), (h1, h2)


def _laurent(rng):
    return LaurentPoly(rng.getrandbits(rng.randint(0, 5)), rng.randint(-3, 3))


def _smith_input(rng):
    """A small Laurent matrix, sometimes with zero lines, a dependent row, a common factor or a unit."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    grid = [[_laurent(rng) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(6)
    if kind == 0:
        grid[rng.randrange(rows)] = [LaurentPoly.zero()] * cols
    elif kind == 1:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = LaurentPoly.zero()
    elif kind == 2 and rows > 1:
        i, k = rng.sample(range(rows), 2)
        f = _laurent(rng)
        grid[i] = [a + f * b for a, b in zip(grid[i], grid[k])]
    elif kind == 3:
        f = LaurentPoly(rng.choice((3, 5, 7, 11, 13)), rng.randint(-1, 1))
        j = rng.randrange(cols)
        for row in grid:
            row[j] = row[j] * f
    elif kind == 4:
        i, k = rng.randrange(rows), rng.randint(-4, 4)
        grid[i] = [e.shift(k) for e in grid[i]]
    return PolyMatrix([[RationalPoly(e) for e in row] for row in grid])


def _smith_inputs():
    rng = random.Random("smith-witnesses")
    return [_smith_input(rng) for _ in range(SMITH_CASES)]


def test_smith_form_matches_pinned_digest():
    digest = hashlib.sha256()
    for m in _smith_inputs():
        s = smith_form(m)
        gamma = ", ".join(str(g) for g in s.gamma)
        digest.update(f"{format_matrix(m)}\n{format_matrix(s.a)}\n{gamma}\n{s.unit_exps}\n{format_matrix(s.b)}\n".encode())
    assert digest.hexdigest() == SMITH_SHA256


def test_witness_free_factors_match_smith_form():
    for m in _smith_inputs():
        s = smith_form(m)
        assert invariant_factors(laurent_grid(m)) == (s.gamma, s.unit_exps), format_matrix(m)


def test_width_fallback_reduction_matches_pinned_gates(monkeypatch):
    with open(CORPUS, encoding="utf-8") as fh:
        item = json.load(fh)["verify_w64"][WIDE_PAIR]
    calls = []
    divide = polymat.divmod_width
    monkeypatch.setattr(polymat, "divmod_width", lambda a, b: calls.append(1) or divide(a, b))
    gates = Circuit.from_strings(build_code(matrix(item["h1"]), matrix(item["h2"])).record.reduction.strings).gates
    assert calls, "the width fallback no longer fires on this pair"
    assert len(gates) == WIDE_GATES
    assert hashlib.sha256("\n".join(f"{format_gate(g)} {g.note}" for g in gates).encode()).hexdigest() == WIDE_GATES_SHA256
