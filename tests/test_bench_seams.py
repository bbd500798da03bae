"""The benchmark's Smith counters still see every Smith run and width division.

`perfbench/spans.py` counts `polymat.smith_calls` by wrapping
`polymat.SmithEngine.run`, and `polymat.smith_wide_divs` by wrapping
`polymat.divmod_width`.  This test wraps the same two names while the CLI
runs every seed-1 `screen_s` op (`params`) and `verify_w64` pair 19 (where
the width fallback fires), and pins both counts, so a Smith engine that
reduced or divided by width past those names would show here.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from eaqconv import polymat
from eaqconv.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "seed-1.json"
SCREEN_S_RUNS, SCREEN_S_WIDE_DIVS = 823, 14
VERIFY_PAIR = 19
VERIFY_RUNS, VERIFY_WIDE_DIVS = 4, 9


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
