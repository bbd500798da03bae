"""Differential test: the package's Smith engine against `LaurentSmithEngine`.

`tests/smith_oracle.py` keeps the Smith engine that read every entry of its
block through a hook on every pass and did all its arithmetic on
`LaurentPoly` entries.  Both engines run on the same blocks and must take
the same operations, in the same order (kind, indices and multiplier f),
reach the same rank, end with the same block and spend the same budget:
each engine ticks once per pass and per step of the divisibility chain,
so they make the same passes and an over-budget block raises
`InternalError` in both.  The package
engine's operations are its log, replayed to a listener.  The blocks are
1200 seeded Laurent grids up to 5 x 5 (zero lines, dependent rows, common
factors and D^k row units planted in some), on which the width-division
fallback fires in some; and every block the package's Smith engine starts
from while it builds every op of both benchmark corpora, or rejects it.
"""

from __future__ import annotations

import functools
import random

import pytest

from eaqconv import polymat
from eaqconv.construct import build_code
from eaqconv.errors import EaqconvError
from eaqconv.poly import LaurentPoly
from smith_oracle import _SMITH_CAP as ORACLE_CAP
from smith_oracle import GridHooks, LaurentSmithEngine, replay
from support import corpus_items, matrix

RANDOM_GRIDS = 1200


class _Log:
    """Hears the package engine's log: records every operation as (kind, i, j, f)."""

    def __init__(self):
        self.ops = []

    def row_add(self, src, dst, f):
        self.ops.append(("row_add", src, dst, f))

    def row_swap(self, i, j):
        self.ops.append(("row_swap", i, j, None))

    def col_add(self, src, dst, f):
        self.ops.append(("col_add", src, dst, f))

    def col_swap(self, i, j):
        self.ops.append(("col_swap", i, j, None))


class _OracleLog(GridHooks):
    """Grid hooks of the oracle engine that record every operation as `_Log` does before applying it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.log = _Log()

    def row_add(self, src, dst, f):
        self.log.row_add(src, dst, f)
        super().row_add(src, dst, f)

    def row_swap(self, i, j):
        self.log.row_swap(i, j)
        super().row_swap(i, j)

    def col_add(self, src, dst, f):
        self.log.col_add(src, dst, f)
        super().col_add(src, dst, f)

    def col_swap(self, i, j):
        self.log.col_swap(i, j)
        super().col_swap(i, j)


def _block(engine):
    """The package engine's block as Laurent rows."""
    return [[LaurentPoly(b, low) for b, low in zip(*rows)] for rows in zip(engine.bits, engine.lows)]


def _package_run(block):
    """(operations, rank, final block, ticks spent) of the package's engine on a Laurent block."""
    engine = polymat.SmithEngine(block)
    rank = engine.run()
    log = _Log()
    replay(engine.ops, log)
    return log.ops, rank, _block(engine), polymat._SMITH_CAP - engine._budget


def _oracle_run(block):
    hooks = _OracleLog(block)
    engine = LaurentSmithEngine((len(block), len(block[0]) if block else 0), hooks)
    rank = engine.run()
    return hooks.log.ops, rank, hooks.w, ORACLE_CAP - engine._budget


def _assert_same_run(block):
    ops, rank, final, spent = _package_run(block)
    want_ops, want_rank, want_final, want_spent = _oracle_run(block)
    assert ops == want_ops, block
    assert rank == want_rank, block
    assert final == want_final, block
    assert spent == want_spent, block


def _laurent(rng, max_bits):
    return LaurentPoly(rng.getrandbits(rng.randint(0, max_bits)), rng.randint(-3, 3))


def _random_grid(rng):
    """A small Laurent grid, sometimes with a zero line, a dependent row, a common factor or a unit."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    max_bits = rng.choice((3, 5, 8))
    grid = [[_laurent(rng, max_bits) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(6)
    if kind == 0:
        grid[rng.randrange(rows)] = [LaurentPoly.zero()] * cols
    elif kind == 1:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = LaurentPoly.zero()
    elif kind == 2 and rows > 1:
        i, k = rng.sample(range(rows), 2)
        f = _laurent(rng, 3)
        grid[i] = [a + f * b for a, b in zip(grid[i], grid[k])]
    elif kind == 3:
        f = LaurentPoly(rng.choice((3, 5, 7, 11, 13)), rng.randint(-1, 1))
        j = rng.randrange(cols)
        for row in grid:
            row[j] = row[j] * f
    elif kind == 4:
        i, k = rng.randrange(rows), rng.randint(-4, 4)
        grid[i] = [e.shift(k) for e in grid[i]]
    return grid


def test_random_grids_take_the_same_operations(monkeypatch):
    wide = []
    divide = polymat.divmod_width
    monkeypatch.setattr(polymat, "divmod_width", lambda a, b: wide.append(1) or divide(a, b))
    rng = random.Random("smith-engine")
    fired = 0
    for _ in range(RANDOM_GRIDS):
        before = len(wide)
        _assert_same_run(_random_grid(rng))
        fired += len(wide) > before
    assert fired >= 50, "the width fallback no longer fires on enough of the random grids"


@functools.cache
def _corpus_blocks():
    """Every distinct block the package's engine starts from on both corpora."""
    blocks = {}
    run = polymat.SmithEngine.run

    def capturing(self):
        blocks.setdefault(tuple(map(tuple, _block(self))), None)
        return run(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymat.SmithEngine, "run", capturing)
        for item in corpus_items():
            try:
                build_code(matrix(item["h1"]), matrix(item["h2"]))
            except EaqconvError:
                pass
    return list(blocks)


@pytest.mark.parametrize("part", range(4))
def test_corpus_blocks_take_the_same_operations(part):
    blocks = _corpus_blocks()
    assert len(blocks) > 1000
    for block in blocks[part::4]:
        _assert_same_run([list(row) for row in block])
