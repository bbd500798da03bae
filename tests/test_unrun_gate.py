"""scripts/corpus_traffic.py's verdicts on synthetic traces, and the tests scripts/unrun.txt names against collection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import corpus_traffic  # noqa: E402

T = "tests/test_m.py::"
UNRUN = {"m.py:f": {("m.py", 3): "x = 1", ("m.py", 4): "y = 2"}, "m.py:g": {("m.py", 8): "raise Never()"}}


def test_an_unexplained_function_and_a_stale_entry_fail():
    known = {"m.py:f": [T + "test_f"], "m.py:h": [T + "test_h"]}
    reached = {T + "test_f": {("m.py", 3), ("m.py", 4)}, T + "test_h": set()}
    assert corpus_traffic.verdicts(UNRUN, known, reached, {}) == (
        ["unexplained: 1", "stale: m.py:h", "reached: 2 of 2 entries"], False)
    known = {"m.py:f": [T + "test_f"], "m.py:g": [T + "test_g"]}
    reached[T + "test_g"] = {("m.py", 8)}
    assert corpus_traffic.verdicts(UNRUN, known, reached, {}) == (["unexplained: 0", "reached: 2 of 2 entries"], True)


def test_a_line_no_named_test_runs_fails_unless_excused():
    known = {"m.py:f": [T + "test_f"], "m.py:g": [T + "test_g"]}
    reached = {T + "test_f[1]": {("m.py", 3)}, T + "test_g": set()}
    excused = "excused: m.py:g 8 (a reason)"
    assert corpus_traffic.verdicts(UNRUN, known, reached, {"m.py:g": ("Never", "a reason")}) == (
        ["unexplained: 0", "not reached: m.py:f 4", excused, "reached: 1 of 2 entries"], False)
    reached[T + "test_f[2]"] = {("m.py", 4)}  # the parametrizations of a named test reach its lines together
    assert corpus_traffic.verdicts(UNRUN, known, reached, {"m.py:g": ("", "a reason")}) == (
        ["unexplained: 0", excused, "reached: 2 of 2 entries"], True)


def test_an_exception_that_excuses_no_line_is_stale():
    known = {"m.py:f": [T + "test_f"], "m.py:g": [T + "test_g"]}
    reached = {T + "test_f": {("m.py", 3), ("m.py", 4)}, T + "test_g": {("m.py", 8)}}
    exceptions = {"m.py:g": ("Never", "a reason"), "m.py:f": ("z = 3", "another")}
    assert corpus_traffic.verdicts(UNRUN, known, reached, exceptions) == (
        ["unexplained: 0", "reached: 2 of 2 entries", "stale exception: m.py:f", "stale exception: m.py:g"], False)


def test_a_named_test_that_matches_no_test_run_is_missing():
    known = {"m.py:f": [T + "test_f", T + "test_f[bogus]", T + "test_fa"], "m.py:g": [T + "test_g"]}
    reached = {T + "test_f[1]": {("m.py", 3), ("m.py", 4)}, T + "test_g": {("m.py", 8)}, T + "test_fab": set()}
    assert corpus_traffic.verdicts(UNRUN, known, reached, {}) == (
        ["unexplained: 0", "reached: 2 of 2 entries", f"missing test: {T}test_f[bogus]", f"missing test: {T}test_fa"],
        False)


def test_every_named_test_is_collected():
    named = sorted({test for tests in corpus_traffic.explained().values() for test in tests})
    files = sorted({test.split("::")[0] for test in named})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    collect = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    nodes = subprocess.run(collect, cwd=ROOT, env=env, capture_output=True, text=True).stdout.splitlines()
    assert len(named) > 70 and [t for t in named if not any(corpus_traffic.runs(n, t) for n in nodes)] == []
