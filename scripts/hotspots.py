#!/usr/bin/env python3
"""Sample where one benchmark workload spends its time, function by function.

Run from the repository root:

    python3 scripts/hotspots.py --workload build_l --corpus-seed 1 --seconds 10

The ops of one workload of perfbench/corpus/seed-N.json run in-process
through `eaqconv.cli.main`, pass after pass, for about --seconds.  A
profiling timer (`signal.setitimer(signal.ITIMER_PROF, 0.0005)`) asks for
a sample every 0.5 ms of CPU time (the kernel tick may space them wider),
and each sample records the Python stack.  The report lists the functions
with the largest self share (the sample's innermost frame) and inclusive
share (anywhere on the stack) of the samples, then the calling lines of
the top self entries.  A cost spread over every layer,
such as object construction, shows here although no per-layer span of the
benchmark sees it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py: the ops' command lines and the in-process runner)

INTERVAL_S = 0.0005
TOP = 20
CALLERS_OF = 8


def _where(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)
    return f"{frame.f_globals.get('__name__', '?')}.{name}"


class Sampler:
    """Self, inclusive and caller-line counts of the stacks the profiling timer interrupts."""

    def __init__(self):
        self.samples = 0
        self.self_counts, self.inclusive, self.callers = Counter(), Counter(), Counter()

    def __call__(self, signum, frame):
        if frame is None:
            return
        self.samples += 1
        top = _where(frame)
        self.self_counts[top] += 1
        if frame.f_back is not None:
            self.callers[top, _where(frame.f_back), frame.f_back.f_lineno] += 1
        seen = set()
        while frame is not None:
            seen.add(_where(frame))
            frame = frame.f_back
        self.inclusive.update(seen)


def run(workload: str, corpus_seed: int, seconds: float) -> tuple[Sampler, int, float]:
    """Sample the workload's ops for about `seconds` of wall time; (sampler, ops run, CPU seconds)."""
    from eaqconv.cli import main

    with open(corpus.CORPUS_DIR / f"seed-{corpus_seed}.json", encoding="utf-8") as fh:
        items = json.load(fh)[workload]
    sampler, ops, cpu = Sampler(), 0, time.process_time()
    previous = signal.signal(signal.SIGPROF, sampler)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            for item in items:
                corpus.run_op(main, corpus.op_argv(workload, item))
                ops += 1
                if time.perf_counter() >= end:
                    break
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return sampler, ops, time.process_time() - cpu


def report(sampler: Sampler, ops: int, cpu_s: float, workload: str, corpus_seed: int) -> None:
    n = max(sampler.samples, 1)
    print(f"{workload}, corpus seed {corpus_seed}: {ops} ops in {cpu_s:.1f} s of CPU, {sampler.samples} samples"
          f" (the timer asks for one per {INTERVAL_S * 1e3:g} ms; the kernel may deliver them less often)")
    for title, counts in (("self", sampler.self_counts), ("inclusive", sampler.inclusive)):
        print(f"\ntop {TOP} by {title} share")
        for where, count in counts.most_common(TOP):
            print(f"  {100 * count / n:5.1f}%  {where}")
    print(f"\ncalling lines of the top {CALLERS_OF} self entries")
    for where, count in sampler.self_counts.most_common(CALLERS_OF):
        print(f"  {where} ({100 * count / n:.1f}%)")
        lines = Counter({(caller, line): c for (top, caller, line), c in sampler.callers.items() if top == where})
        for (caller, line), c in lines.most_common(4):
            print(f"    {100 * c / n:5.1f}%  {caller}:{line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(corpus.WORKLOADS), default="build_l")
    parser.add_argument("--corpus-seed", type=int, choices=(corpus.PRIMARY_SEED, corpus.HELD_OUT_SEED),
                        default=corpus.PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="sample the ops for about this long")
    args = parser.parse_args()
    report(*run(args.workload, args.corpus_seed, args.seconds), args.workload, args.corpus_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
