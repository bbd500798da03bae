"""scripts/bench_pairs.py, hermetically: a throwaway git repository whose two commits hold a fake perfbench/run.py.

Each fake prints scripted metrics for its side and logs every call, so the
test checks the alternation of the pairs, the quartile arithmetic, the
bound and gain verdicts and the schema of the written record.  It makes no
timing assertion.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
METRICS = ("ops_per_s", "op_s.p50", "peak_rss_mb", "setup_s")

# per side and workload, per pair: the four metrics, then the failed ops of 24
SCRIPTED = {
    "parent": {
        "verify_w64": [(100, 0.010, 20, 0.2, 1), (102, 0.010, 20, 0.2, 1), (98, 0.010, 20, 0.2, 1), (101, 0.010, 20, 0.2, 1)],
        "build_l": [(50, 0.020, 20, 0.2, 1)] * 4,
    },
    "change": {
        "verify_w64": [(110, 0.013, 21, 0.2, 1), (112, 0.013, 21, 0.2, 1), (109, 0.013, 21, 0.2, 1), (111, 0.013, 21, 0.2, 1)],
        "build_l": [(60, 0.020, 20, 0.2, 2)] * 4,
    },
}

FAKE_RUN = """\
import json, os, sys
args = sys.argv[1:]
workload, seed, seconds = (args[args.index(flag) + 1] for flag in ("--workload", "--corpus-seed", "--seconds"))
log = os.environ["BENCH_PAIRS_TEST_LOG"]
with open(log, "a") as fh:
    fh.write(f"{SIDE} {workload} {seed} {seconds}\\n")
with open(log) as fh:
    n = sum(line.split()[:3] == [SIDE, workload, seed] for line in fh)
*values, failed = SCRIPTED[SIDE][workload][n - 1]
print("workload", workload)
metrics = {name: {"value": v, "unit": "-"} for name, v in zip(METRICS, values)}
print(json.dumps({"correct": True, "attempted": 24, "failed": failed, "metrics": metrics}))
"""


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=repo, check=True,
                   capture_output=True)


def _commit(repo, side):
    (repo / "perfbench" / "run.py").write_text(
        f"SIDE = {side!r}\nSCRIPTED = {SCRIPTED!r}\nMETRICS = {METRICS!r}\n" + FAKE_RUN, encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", f"{side} side")


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """(record written, calls logged, script output) of a two-workload, four-pair run in a throwaway repository."""
    repo = tmp_path_factory.mktemp("repo")
    (repo / "scripts").mkdir()
    (repo / "perfbench").mkdir()
    shutil.copy(SCRIPT, repo / "scripts" / "bench_pairs.py")
    shutil.copy(ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    _git(repo, "init", "-q")
    _commit(repo, "parent")
    _commit(repo, "change")
    log = repo.parent / f"{repo.name}.log"
    out = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD~1", "--change", "HEAD", "--name", "fake",
         "--pairs", "4", "--workload", "verify_w64", "--workload", "build_l", "--python", sys.executable],
        cwd=repo, env=dict(os.environ, BENCH_PAIRS_TEST_LOG=str(log)), check=True, capture_output=True, text=True)
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True).stdout
    assert len(worktrees.strip().splitlines()) == 1, "the temporary worktrees are removed"
    calls = [tuple(line.split()) for line in log.read_text().splitlines()]
    return json.loads((repo / "BENCH_fake.json").read_text()), calls, out.stdout


def _row(record, workload, metric):
    return next(r for r in record["summary"] if (r["workload"], r["metric"]) == (workload, metric))


def test_odd_pairs_run_the_parent_first(record):
    _, calls, _ = record
    pairs = ["parent", "change", "change", "parent"] * 2  # pairs 1 to 4
    assert [side for side, _, _, _ in calls] == pairs * 2
    assert [w for _, w, _, _ in calls] == ["verify_w64"] * 8 + ["build_l"] * 8
    assert {seed for _, _, seed, _ in calls} == {"1"}


def test_every_run_lasts_the_benchmarks_run_seconds(record):
    rec, calls, _ = record
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {float(s) for _, _, _, s in calls} == {seconds}
    assert f"--seconds {seconds:g} " in rec["command"]


def test_the_record_has_one_schema(record):
    rec, _, out = record
    assert list(rec) == ["change", "parent", "command", "order", "host", "summary", "runs"]
    assert rec["parent"]["subject"] == "parent side" and rec["change"]["subject"] == "change side"
    assert len(rec["runs"]) == 16
    assert {(r["workload"], r["pair"], r["side"]) for r in rec["runs"]} == {
        (w, p, s) for w in ("verify_w64", "build_l") for p in range(1, 5) for s in ("parent", "change")}
    assert [r["metric"] for r in rec["summary"]] == [*METRICS, "fail_share"] * 2
    assert "wrote" in out and "WORSE" in out


def test_quartiles_and_medians(record):
    rec, _, _ = record
    row = _row(rec, "verify_w64", "ops_per_s")
    assert row["parent_median"] == 100.5 and row["change_median"] == 110.5
    # inclusive quartiles of 98, 100, 101, 102: 98 + 0.75 * 2 and 101 + 0.25 * 1
    assert row["parent_quartiles"] == [99.5, 101.25]
    assert row["parent_iqr"] == 1.75
    assert row["change_quartiles"] == [109.75, 111.25]
    assert row["change_better_pairs"] == 4
    assert row["change_vs_parent"] == pytest.approx(10 / 100.5)


def test_bound_and_gain_verdicts(record):
    rec, _, _ = record
    verdicts = {(r["workload"], r["metric"]): (r["within_bound"], r["gain"]) for r in rec["summary"]}
    assert verdicts[("verify_w64", "ops_per_s")] == (True, True)  # 4 of 4 pairs, median gap 10 > IQR 1.75
    assert verdicts[("verify_w64", "op_s.p50")] == (False, False)  # 30% slower against a 25% bound
    assert verdicts[("verify_w64", "peak_rss_mb")] == (True, False)  # 5% more against a 10% bound
    assert verdicts[("verify_w64", "setup_s")] == (True, False)  # no change
    assert verdicts[("verify_w64", "fail_share")] == (True, False)
    assert verdicts[("build_l", "fail_share")] == (False, False)  # 2 of 24 ops failed where 1 did
    # 4 of 4 pairs faster by more than the IQR of 0, but one more op failed: no gain
    assert verdicts[("build_l", "ops_per_s")] == (True, False)
    assert _row(rec, "build_l", "ops_per_s")["change_better_pairs"] == 4


def test_quartiles_of_few_values():
    bench_pairs = _load()
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0)
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 4)
    row = bench_pairs.summarize("w", 1, "op_s.p50", "lower", 0.25, [1.0, 1.0], [0.5, 1.5])
    assert row["change_better_pairs"] == 1 and row["within_bound"] and not row["gain"]
