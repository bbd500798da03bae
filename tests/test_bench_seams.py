"""The benchmark's Smith and window spans still see the work they name.

`perfbench/spans.py` counts `polymat.smith_calls` by wrapping
`polymat.SmithEngine.run`, and `polymat.smith_wide_divs` by wrapping
`polymat.divmod_width`.  This test wraps the same two names while the CLI
runs every seed-1 `screen_s` op (`params`) and `verify_w64` pair 19 (where
the width fallback fires), and pins both counts, so a Smith engine that
reduced or divided by width past those names would show here.  Likewise it
wraps `simulate.run_circuit` and `simulate.expand` by module name, as the
traced spans do, and pins one circuit run and two expansions per
`verify --window 64`, so `simulate.run_circuit_s` keeps timing the window
kernel.  It wraps `gates.Circuit.apply`, which `gates.circuit_apply_calls`
counts, and the replay behind it: a `build` makes two calls and two
replays, and a `verify` four calls (two for the build, two for its checks)
but still only two replays, one per circuit.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from eaqconv import gates, polymat, simulate
from eaqconv.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "seed-1.json"
SCREEN_S_RUNS, SCREEN_S_WIDE_DIVS = 823, 14
VERIFY_PAIR = 19
VERIFY_RUNS, VERIFY_WIDE_DIVS = 4, 9
WINDOW_PAIR = 0


def _counted(monkeypatch, argvs):
    """(SmithEngine.run calls, divmod_width calls) while the CLI runs each argv."""
    runs, divs = [], []
    run, divide = polymat.SmithEngine.run, polymat.divmod_width
    monkeypatch.setattr(polymat.SmithEngine, "run", lambda self: runs.append(1) or run(self))
    monkeypatch.setattr(polymat, "divmod_width", lambda a, b: divs.append(1) or divide(a, b))
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    return len(runs), len(divs)


def _corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_screen_s_smith_counts(monkeypatch):
    argvs = [["params", "--h1", it["h1"], "--h2", it["h2"], "--format", "json"] for it in _corpus()["screen_s"]]
    assert _counted(monkeypatch, argvs) == (SCREEN_S_RUNS, SCREEN_S_WIDE_DIVS)


def test_verify_w64_width_fallback_counts(monkeypatch):
    it = _corpus()["verify_w64"][VERIFY_PAIR]
    argv = ["verify", "--h1", it["h1"], "--h2", it["h2"], "--window", "64", "--format", "json"]
    assert _counted(monkeypatch, [argv]) == (VERIFY_RUNS, VERIFY_WIDE_DIVS)


def test_verify_w64_window_calls(monkeypatch):
    it = _corpus()["verify_w64"][WINDOW_PAIR]
    calls = []
    for name in ("run_circuit", "expand"):
        fn = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    argv = ["verify", "--h1", it["h1"], "--h2", it["h2"], "--window", "64", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert sorted(calls) == ["expand", "expand", "run_circuit"]


@pytest.mark.parametrize("command, applies", [("build", 2), ("verify", 4)])
def test_circuit_applies_and_replays(monkeypatch, command, applies):
    it = _corpus()["verify_w64"][WINDOW_PAIR]
    calls = []
    for name in ("apply", "_replay"):
        fn = getattr(gates.Circuit, name)
        monkeypatch.setattr(gates.Circuit, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    argv = [command, "--h1", it["h1"], "--h2", it["h2"], "--format", "json"]
    if command == "verify":
        argv += ["--window", "64"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert (calls.count("apply"), calls.count("_replay")) == (applies, 2)
