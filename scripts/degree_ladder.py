#!/usr/bin/env python3
"""Time `params`, `build` and `verify --window 64` up a ladder of input degrees.

Run from the repository root:

    python3 scripts/degree_ladder.py                 # N = 10^3 ... 10^5, best of 3
    python3 scripts/degree_ladder.py --max 30000 --repeat 1

Each shape is a pair of sparse check matrices with one entry of degree N,
such as `--h1 '1, 1+D^N' --h2 '1, 1+D'`.  For every rung N of the ladder,
each command runs in-process through `eaqconv.cli.main`, its output
discarded, and the best wall time of --repeat runs is printed with the
exit code.  The last column is the growth exponent from the rung below,
log(t / t_prev) / log(N / N_prev): about 1 for cost linear in the degree,
2 for quadratic.  It reads "-" on the first rung and where either time is
under a millisecond, where timer noise would decide it.

A command may exit non-zero and still be timed: `verify --window 64`
exits 4 when a generator does not fit in the window, as wide entries do.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eaqconv.cli import main  # noqa: E402

SHAPES = (
    ("1, 1+D^{N}", "1, 1+D"),
    ("1, 1+D^{N}", "1, D+D^{N}"),
)
COMMANDS = (("params",), ("build",), ("verify", "--window", "64"))
RUNGS = (1_000, 3_000, 10_000, 30_000, 100_000)
NOISE_S = 1e-3


def _time(argv: list[str], repeat: int) -> tuple[int, float]:
    """(exit code, best wall time in seconds) of `eaqconv argv`, run repeat times."""
    best, code = math.inf, None
    for _ in range(repeat):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        best = min(best, time.perf_counter() - start)
    return code, best


def _exponent(prev, n: int, t: float) -> str:
    if prev is None or min(prev[1], t) < NOISE_S:
        return "-"
    return f"{math.log(t / prev[1]) / math.log(n / prev[0]):.2f}"


def main_ladder(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=int, default=RUNGS[-1], help="the largest degree N to run (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per command and rung; the best is kept")
    args = parser.parse_args(argv)
    rungs = [n for n in RUNGS if n <= args.max]
    print(f"{'shape':<28} {'command':<8} {'N':>7} {'exit':>4} {'seconds':>9} {'growth':>6}")
    for h1, h2 in SHAPES:
        shape = f"{h1} / {h2}"
        for command in COMMANDS:
            prev = None
            for n in rungs:
                code, t = _time([*command, "--h1", h1.format(N=n), "--h2", h2.format(N=n)], args.repeat)
                print(f"{shape:<28} {command[0]:<8} {n:>7} {code:>4} {t:>9.4f} {_exponent(prev, n, t):>6}", flush=True)
                prev = n, t
    return 0


if __name__ == "__main__":
    sys.exit(main_ladder())
