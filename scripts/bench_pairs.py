#!/usr/bin/env python3
"""Paired benchmark runs of two commits, summarised against the bounds of BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --name NAME
                                   [--pairs 10] [--workload W]... [--corpus-seed C]...
                                   [--python PYTHON]

--workload and --corpus-seed take one value each and may be repeated:
`--workload build_l --workload verify_w64 --corpus-seed 1 --corpus-seed 2`.

Each commit is checked out with `git worktree` under a temporary directory,
which is removed afterwards.  For each workload and corpus seed the script
runs `PYTHON perfbench/run.py --workload W --seconds S --trace 0
--corpus-seed C`, S being the `run_seconds` of BENCHMARK.json, in both
checkouts, one pair at a time: odd pairs run the parent first, even pairs
the change first, so a drift of the host's speed falls on both sides alike.
Every run must exit 0 with `"correct": true`.  The runs get
PYTHONDONTWRITEBYTECODE=1, so each compiles its sources, as a fresh
checkout does.

For each end-to-end metric of BENCHMARK.json, and for the failed share of
ops, it prints the medians, the quartiles, the parent's interquartile
range, the pairs the change won and two verdicts:

- `bound`: "ok" unless the change's median is worse than the parent's by
  more than the metric's bound ("WORSE"; the failed share has no bound, so
  any rise is WORSE);
- `gain`: "yes" when the change is better in at least nine pairs of ten,
  its median beats the parent's by more than the parent's interquartile
  range, and the failed share of that workload and seed is not WORSE.

It writes BENCH_<NAME>.json at the root of the checkout, with the keys
change, parent, command, order, host, summary and runs.  Quartiles are
those of `statistics.quantiles(values, n=4, method="inclusive")`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILED_SHARE = "fail_share"
ORDER = "pair i runs the parent first when i is odd, the change first when i is even"


def quartiles(values) -> tuple[float, float]:
    """The lower and upper quartiles; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(workload: str, seed: int, name: str, better: str, bound: float | None, parent, change) -> dict:
    """One summary row: the pair values of a metric on both sides, in pair order, and the verdicts."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    iqr = p_q[1] - p_q[0]
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    rel = (c_med - p_med) / p_med if p_med else (0.0 if c_med == p_med else math.copysign(math.inf, c_med - p_med))
    worse = -sign * rel
    return {
        "workload": workload, "corpus_seed": seed, "metric": name, "better": better, "bound": bound,
        "pairs": len(parent), "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": list(p_q), "change_quartiles": list(c_q), "parent_iqr": iqr,
        "change_better_pairs": won, "change_vs_parent": rel,
        "within_bound": worse <= (bound if bound is not None else 0.0),
        "gain": won >= math.ceil(0.9 * len(parent)) and sign * (c_med - p_med) > iqr,
    }


def run_pairs(run, workloads, seeds, pairs: int) -> list[dict]:
    """Every run, in the order made: run(side, workload, seed) gives perfbench's result object."""
    runs = []
    for workload in workloads:
        for seed in seeds:
            for pair in range(1, pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    result = run(side, workload, seed)
                    runs.append({"workload": workload, "corpus_seed": seed, "pair": pair, "side": side, "result": result})
    return runs


def summary(runs, end_to_end) -> list[dict]:
    """A summary row per workload, corpus seed and metric (BENCHMARK.json's end-to-end ones, then the failed share)."""
    rows = []
    keys = dict.fromkeys((r["workload"], r["corpus_seed"]) for r in runs)
    for workload, seed in keys:
        mine = [r for r in runs if (r["workload"], r["corpus_seed"]) == (workload, seed)]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"]) for s in ("parent", "change")}
        for m in end_to_end:
            values = [[r["result"]["metrics"][m["name"]]["value"] for r in side[s]] for s in ("parent", "change")]
            rows.append(summarize(workload, seed, m["name"], m["better"], m["bound"], *values))
        shares = [[r["result"]["failed"] / r["result"]["attempted"] for r in side[s]] for s in ("parent", "change")]
        rows.append(summarize(workload, seed, FAILED_SHARE, "lower", None, *shares))
        if not rows[-1]["within_bound"]:  # more failed ops void every gain of this workload and seed
            for row in rows[-1 - len(end_to_end):]:
                row["gain"] = False
    return rows


def print_summary(rows) -> None:
    print(f"{'workload':<11}{'seed':>5} {'metric':<12}{'parent':>12}{'change':>12}{'change %':>10}"
          f"{'parent IQR':>12}{'won':>7}  bound  gain")
    for r in rows:
        print(f"{r['workload']:<11}{r['corpus_seed']:>5} {r['metric']:<12}{r['parent_median']:>12.6g}"
              f"{r['change_median']:>12.6g}{100 * r['change_vs_parent']:>+9.1f}%{r['parent_iqr']:>12.4g}"
              f"{r['change_better_pairs']:>4}/{r['pairs']:<2}  {'ok   ' if r['within_bound'] else 'WORSE'}  "
              f"{'yes' if r['gain'] else 'no'}")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def worktrees(revs: dict):
    """{side: checkout directory} of detached worktrees of each rev, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        made = {}
        try:
            for side, rev in revs.items():
                path = Path(tmp) / side
                git("worktree", "add", "--detach", str(path), rev)
                made[side] = path
            yield made
        finally:
            for path in made.values():
                git("worktree", "remove", "--force", str(path))
            git("worktree", "prune")


def runner(checkouts: dict, command, seconds: float):
    """run(side, workload, seed): one perfbench run in that side's checkout, its last line of output parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side, workload, seed):
        argv = [*command, "--workload", workload, "--seconds", str(seconds), "--trace", "0", "--corpus-seed", str(seed)]
        proc = subprocess.run(argv, cwd=checkouts[side], env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode or not (result and result["correct"]):
            sys.exit(f"{side} run of {workload} (corpus seed {seed}) failed with exit {proc.returncode}:\n"
                     f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        print(f"  pair side {side:<6} {workload} seed {seed}: "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        return result

    return run


def host(python: str) -> str:
    version = subprocess.run([python, "-c", "import platform; print(platform.python_implementation(), "
                              "platform.python_version())"], capture_output=True, text=True, check=True).stdout.strip()
    return f"{version}, {os.cpu_count()}-core host"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit the change is measured against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                        help="repeat for several; default every workload of BENCHMARK.json")
    parser.add_argument("--corpus-seed", type=int, action="append", choices=(1, 2), help="repeat for both; default 1")
    parser.add_argument("--python", default=bench["command"][0], help="the interpreter of every run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.corpus_seed or [1]
    command = [args.python, *bench["command"][1:]]
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))  # so the worktrees and the running child go too
    with worktrees(revs) as checkouts:
        runs = run_pairs(runner(checkouts, command, bench["run_seconds"]), workloads, seeds, args.pairs)
    rows = summary(runs, bench["end_to_end"])
    print_summary(rows)
    record = {
        "change": {"commit": revs["change"], "subject": git("log", "-1", "--format=%s", revs["change"])},
        "parent": {"commit": revs["parent"], "subject": git("log", "-1", "--format=%s", revs["parent"])},
        "command": " ".join(command) + f" --workload W --seconds {bench['run_seconds']:g} --trace 0 --corpus-seed C, "
                   "with PYTHONDONTWRITEBYTECODE=1, in a worktree of each commit",
        "order": ORDER,
        "host": host(args.python),
        "summary": rows,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
