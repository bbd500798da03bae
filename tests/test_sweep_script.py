"""scripts/random_code_sweep.py: a typed error on an admitted pair is a FAIL line, not the end of the sweep."""

from __future__ import annotations

import sys
from pathlib import Path

from eaqconv.errors import InternalError


def test_typed_error_counts_as_a_failure(monkeypatch, capsys):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    import random_code_sweep

    build, calls = random_code_sweep.build_code, []

    def build_failing_once(h1, h2):
        calls.append(1)
        if len(calls) == 1:
            raise InternalError("injected")
        return build(h1, h2)

    monkeypatch.setattr(random_code_sweep, "build_code", build_failing_once)
    monkeypatch.setattr(sys, "argv", ["random_code_sweep.py", "3", "--n-max", "3", "--deg-max", "1"])
    assert random_code_sweep.main() == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "  1. InternalError: injected  FAIL"
    assert lines[1].startswith("     H1: ") and lines[2].startswith("     H2: ")
    assert lines[3].startswith("  2. [[") and lines[3].endswith("ok")
    assert lines[4].startswith("  3. [[") and lines[4].endswith("ok")
    assert "failures: 1" in out
