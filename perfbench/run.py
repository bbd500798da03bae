#!/usr/bin/env python3
"""The eaqconv benchmark: three workloads through the `eaqconv` command-line entry point.

    python3 perfbench/run.py [--workload verify_w64|build_l|screen_s|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--corpus-seed 1|2]

Run from the root of a checkout; needs only the standard library and src/.
Every op calls eaqconv.cli.main in-process with its output captured, exactly
as `eaqconv verify|build|params ... --format json` runs, single process and
single thread.  The ops are the frozen corpus of perfbench/corpus/ (see
corpus.py); --seed only fixes the order in which a run visits them, so every
run does the same work.  Each op's output is compared with its frozen
expectation outside the timed interval, and `eaqconv examples --format json`
must match tests/golden/examples.json byte for byte.  Times are scaled to a
reference speed of the host (see HostSpeed).

--trace 0 reports the end-to-end metrics: set-up time, throughput, latency,
peak memory and the failed share.  --trace 1 makes one untraced and one
traced pass over the corpus and reports the per-layer metrics of
spans.LAYER_METRICS; it writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
matched.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

import corpus
import spans

ROOT = corpus.ROOT
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = ROOT / "tests" / "golden" / "examples.json"
SETUP_PROBES = 7
# the warm-up op is the workload's command on the first worked example, which costs the same on every run
WARMUP = {"h1": "1+D^2, 1+D+D^2", "h2": "1+D^2, 1+D+D^2"}
COPIES = re.compile(r"(\d+) generator copies compared")

# The host is shared, and its speed drifts by tens of percent within seconds.
# While ops run, a timer signal times a fixed piece of work that eaqconv never
# runs every SAMPLE_EVERY_S.  Each op time is scaled by REFERENCE_S over the
# mean of the samples taken during the op (or of the nearest one on each side):
# it reads as it would on this host at its reference speed.  The handler's own
# time is taken out of the op times.
REFERENCE_S = 0.002  # about the time of reference_work on the sizing host; never change it
SAMPLE_EVERY_S = 0.1


def reference_work():
    x, table = 1, {}
    for i in range(5000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[i & 127] = x >> (i & 31)
    return sorted(table.values())


class HostSpeed:
    """Timed samples of reference_work; `scaled` turns a measured time into one at reference speed."""

    def __init__(self):
        self.at = []  # perf_counter() when each sample ended
        self.took = []
        self.paused = 0.0  # total time spent in sample()

    def sample(self, *_):
        start = perf_counter()
        reference_work()  # refills the caches the interrupted work left cold, so only the host's speed is timed
        mid = perf_counter()
        reference_work()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - mid)
        self.paused += end - start

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample now and every SAMPLE_EVERY_S of wall time, interrupting whatever runs."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds` of work done between start and end, at reference speed."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        during = self.took[lo:hi] if hi > lo else self.took[max(lo - 1, 0):lo + 1]
        return seconds * REFERENCE_S / statistics.fmean(during)


def import_cli():
    """Import eaqconv from this checkout's src/ and return its CLI entry point."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eaqconv.cli

    if src.resolve() not in Path(eaqconv.cli.__file__).resolve().parents:
        raise SystemExit(f"eaqconv was imported from {eaqconv.cli.__file__}, not from {src}")
    return eaqconv.cli.main


def probe(workload: str, corpus_seed: int) -> int:
    """One set-up: import eaqconv, load the corpus, run the warm-up op, then say so."""
    main = import_cli()
    corpus.load(corpus_seed)[workload]  # loading the corpus is part of set-up
    corpus.run_op(main, corpus.op_argv(workload, WARMUP))
    print("ready", flush=True)
    return 0


def setup_seconds(workload: str, corpus_seed: int) -> float:
    """Median over fresh processes of the time from process start to the end of set-up, at reference speed."""
    speed = HostSpeed()  # sampled between the probes, which run in other processes
    argv = [sys.executable, __file__, "--probe", "--workload", workload, "--corpus-seed", str(corpus_seed)]
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            end = perf_counter()
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise SystemExit(f"set-up probe failed with exit code {child.returncode}")
        speed.sample()
        times.append(speed.scaled(start, end, end - start))
    return statistics.median(times)


class Tally:
    """Ops attempted and failed, and how outputs differed from their expectations."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.mismatches = set()


def one_pass(main, workload, items, times, tally, speed=None, outputs=None):
    """Run every item once, timing each op alone, then check its output.

    With `speed`, an op's time leaves out the samples taken meanwhile and is
    scaled to reference speed.
    """
    for item in items:
        argv = corpus.op_argv(workload, item)
        start = perf_counter()
        paused = speed.paused if speed else 0.0
        rc, out, err = corpus.run_op(main, argv)
        end = perf_counter()
        if speed is None:
            times.append(end - start)
        else:
            times.append(speed.scaled(start, end, end - start - (speed.paused - paused)))
        mismatch, failed = corpus.check(item, rc, out, err)
        tally.attempted += 1
        tally.failed += failed
        if mismatch:
            tally.mismatches.add(mismatch)
        if outputs is not None:
            outputs.append(out)


def hd_median(times, steps=16):
    """Harrell-Davis estimate of the median: the mean of the order statistics under Beta((n+1)/2, (n+1)/2) weights.

    A run of verify_w64 times a few dozen codes of very different cost once
    each, and its sample median jumps whenever the two middle codes swap
    ranks; this estimator weighs the neighbouring ranks too.
    """
    xs = sorted(times)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def pdf(x):
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule for the weight of rank i on [i/n, (i+1)/n]
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append(h / 3 * (pdf(lo) + inner + pdf(lo + steps * h)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(times, q=0.9):
    """(nearest-rank q-quantile, number of samples beyond it)."""
    ordered = sorted(times)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(main, workload, items, seconds, tally) -> dict:
    """Whole passes until another would end after `seconds`; returns {metric: (value, unit)} at reference speed."""
    speed = HostSpeed()
    times = []
    start = perf_counter()
    passes = 0
    with speed.sampling():
        while True:
            one_pass(main, workload, items, times, tally, speed)
            passes += 1
            elapsed = perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
    print(f"  {passes} passes of {len(items)} ops; reference work took {statistics.fmean(speed.took) / REFERENCE_S:.3f}"
          f" x REFERENCE_S on average over {len(speed.took)} samples")
    p90, beyond = tail_percentile(times)
    if beyond >= 10:
        print(f"  op_s.p90          {p90:.6f} s  ({len(times)} samples, {beyond} beyond it)")
    else:
        print(f"  op_s.p90          withheld: {beyond} of {len(times)} samples beyond it, 10 needed")
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (hd_median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(main, workload, items, seed, tally) -> dict:
    """One untraced and one traced pass; returns the per-layer metrics of the traced one, as measured."""
    plain = []
    one_pass(main, workload, items, plain, tally)

    tracer = spans.Tracer()
    root = tracer.timed("cli.main", main)
    times, outputs = [], []
    with spans.instrument(tracer):
        for op, item in enumerate(items):
            tracer.op = op
            one_pass(root, workload, [item], times, tally, outputs=outputs)
    print(f"  tracing overhead  {sum(times) / sum(plain) - 1:+.1%} "
          f"(traced pass {sum(times):.3f} s, untraced {sum(plain):.3f} s; not scaled to reference speed)")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]) + "\n")
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    copies = sum(int(m.group(1)) for out in outputs for m in COPIES.finditer(out))
    return spans.layer_metrics(tracer.spans, tracer.counts, copies)


def run_workload(args) -> int:
    setup = None if args.trace else setup_seconds(args.workload, args.corpus_seed)
    main = import_cli()
    items = list(corpus.load(args.corpus_seed)[args.workload])
    Random(args.seed).shuffle(items)
    corpus.run_op(main, corpus.op_argv(args.workload, WARMUP))

    print(f"workload {args.workload}: corpus seed {args.corpus_seed}, order seed {args.seed}, "
          f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    tally = Tally()
    if args.trace:
        metrics = traced(main, args.workload, items, args.seed, tally)
    else:
        raw = end_to_end(main, args.workload, items, args.seconds, tally)
        raw["setup_s"] = (setup, "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
        print(f"  fail_share        {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} ops)")

    rc, out, _ = corpus.run_op(main, ["examples", "--format", "json"])
    if rc != 0 or out != GOLDEN.read_text(encoding="utf-8"):
        tally.mismatches.add("`eaqconv examples --format json` differs from tests/golden/examples.json")
    for mismatch in sorted(tally.mismatches):
        print(f"  MISMATCH: {mismatch}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    correct = not tally.mismatches
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="order in which the run visits the corpus")
    parser.add_argument("--seconds", type=float, default=30.0, help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=corpus.PRIMARY_SEED,
                        choices=(corpus.PRIMARY_SEED, corpus.HELD_OUT_SEED))
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "eaqconv" / "__init__.py").is_file():
        print(f"no eaqconv sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.workload, args.corpus_seed)
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for workload in corpus.WORKLOADS:  # one process each, so peak_rss_mb covers one workload only
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
