"""Command-line interface: subcommands, exit codes, golden reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eaqconv import polymat
from eaqconv.cli import main
from eaqconv.construct import build_code
from eaqconv.errors import InternalError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_first_example(capsys):
    code, out, _ = run(capsys, "build", "--h1", "1+D^2, 1+D+D^2", "--h2", "1+D^2, 1+D+D^2")
    assert code == 0
    assert "[[2, 1; 1]]" in out
    assert "class: class1" in out
    assert "CNOT 1 2 delay=1" in out


def test_build_second_example_json(capsys):
    code, out, _ = run(capsys, "build", "--h1", "1, 1+D", "--h2", "1, 1+D", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert (payload["n"], payload["k"], payload["c"]) == (2, 1, 1)
    assert payload["class"] == "class2_special"
    assert sum("INF" in g for g in payload["encoder"]) == 1
    assert payload["rates"]["catalytic"] == "0"
    # documented schema round-trips
    assert json.loads(json.dumps(payload)) == payload


def test_params_subcommand(capsys):
    code, out, _ = run(capsys, "params", "--h1", "1, 1+D", "--h2", "1, 1+D")
    assert code == 0
    assert "[[2, 1; 1]] class=class2_special" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "build", "--h1", "1+Q", "--h2", "1, 1+D")
    assert code == 2
    assert "parse error" in err


def test_validation_error_names_factor(capsys):
    code, _, err = run(capsys, "build", "--h1", "1+D, 1+D", "--h2", "1, 1+D")
    assert code == 3
    assert "catastrophic" in err
    assert "1+D" in err


def test_internal_error_is_typed_and_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(polymat, "_SMITH_CAP", 1)
    h = polymat.parse_matrix("1+D^2, 1+D+D^2")
    with pytest.raises(InternalError, match="operation budget"):
        build_code(h, h)
    code, _, err = run(capsys, "build", "--h1", "1+D^2, 1+D+D^2", "--h2", "D, 1+D")
    assert code == 5
    assert err.startswith("internal error: Smith reduction exceeded its operation budget")
    assert "--h1 '1+D^2, 1+D+D^2' --h2 'D, 1+D'" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--h1", "1+D^2, 1+D+D^2", "--h2", "1+D^2, 1+D+D^2", "--window", "12")
    assert code == 0
    assert out.count("[pass]") == 4


def test_verify_window_too_small(capsys):
    code, out, _ = run(capsys, "verify", "--h1", "1+D^2, 1+D+D^2", "--h2", "1+D^2, 1+D+D^2", "--window", "2")
    assert code == 4
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["verify", "examples"])
@pytest.mark.parametrize("option, value", [("--window", "0"), ("--window", "-3"), ("--scratch", "-100")])
def test_window_and_scratch_out_of_range_are_usage_errors(capsys, command, option, value):
    matrices = ["--h1", "1+D^2, 1+D+D^2", "--h2", "1+D^2, 1+D+D^2"] if command == "verify" else []
    with pytest.raises(SystemExit) as exit_:
        main([command, *matrices, option, value])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert f"argument {option}: must be at least" in captured.err
    assert "FAIL" not in captured.out


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    """main builds its parser once per process; every later call, after a
    success or a usage error, prints and exits exactly as a fresh process."""
    calls = [
        ["build", "--h1", "1, 1+D", "--h2", "1, 1+D"],
        ["verify", "--h1", "1+D^2, 1+D+D^2", "--h2", "1+D^2, 1+D+D^2", "--window", "0"],
        ["params", "--h1", "1, 1+D", "--h2", "1, 1+D", "--format", "json"],
        ["params", "--h1", "1, 1+D"],
        ["build", "--h1", "1, 1+D", "--h2", "1, 1+D"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "eaqconv.cli", *argv], capture_output=True, text=True, env=env)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_matrix_file_input(tmp_path, capsys):
    path = tmp_path / "h.mat"
    path.write_text("# one generator per frame\n1+D^2, 1+D+D^2\n", encoding="utf-8")
    code, out, _ = run(capsys, "params", "--h1", str(path), "--h2", str(path))
    assert code == 0
    assert "[[2, 1; 1]]" in out


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_unreadable_matrix_file_is_a_parse_error(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not UTF-8":
        path = tmp_path / "h.mat"
        path.write_bytes(b"1+D^2, 1+D\xff\n")
    code, out, err = run(capsys, "build", "--h1", str(path), "--h2", "1, 1+D")
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot read matrix file {str(path)!r}")


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "build", "--h1", "1, 1+D", "--h2", "1, 1+D")
    _, out2, _ = run(capsys, "build", "--h1", "1, 1+D", "--h2", "1, 1+D")
    assert out1 == out2


def test_examples_regenerate_golden_text(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out == (GOLDEN / "examples.txt").read_text(encoding="utf-8")


def test_examples_regenerate_golden_json(capsys):
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "examples.json").read_text(encoding="utf-8")
    payload = json.loads(out)
    assert [e["name"] for e in payload["examples"]] == ["finite-depth", "infinite-depth"]
    assert all(e["verification"]["passed"] for e in payload["examples"])
