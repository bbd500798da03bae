"""Command-line interface: subcommands, exit codes, golden reports."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eaqconv import cli, construct, gates, polymat
from eaqconv.cli import EXAMPLES, main
from eaqconv.construct import CLASS1, build_code
from eaqconv.errors import DimensionMismatch, EaqconvError, InternalError, ValidationError
from eaqconv.poly import ONE, LaurentPoly, RationalPoly
from support import golden_pairs

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


# tier -> (n_max, deg_max, pairs) of the unfiltered draw below
PARAMS_TIERS = {"S": (4, 2, 200), "M": (6, 3, 80), "L": (8, 4, 40)}
PARAMS_SHA256 = "7a912e015bd8246a934e804c0f7a734cbf41e76a000091b06267e07dd773c653"


def _unfiltered_pairs(tier):
    """Seeded check-matrix pairs with no admission filter, as (h1 text, h2 text)."""
    n_max, deg_max, count = PARAMS_TIERS[tier]
    rng = random.Random(f"eaqconv-params/{tier}")
    text = lambda m: polymat.format_matrix(m).replace("\n", "; ")
    for _ in range(count):
        n = rng.randint(2, n_max)
        r1, r2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        h1, h2 = (
            polymat.PolyMatrix(
                [[RationalPoly(LaurentPoly(rng.randrange(0, 1 << (deg_max + 1)), 0)) for _ in range(n)] for _ in range(r)]
            )
            for r in (r1, r2)
        )
        yield text(h1), text(h2)


def _printed_params(h1, h2):
    """{format: (exit code, stdout, stderr)} of printing the parameters and rates of build_code(h1, h2),
    or of its typed error, and the class or error kind."""
    try:
        spec = build_code(*(polymat.parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
    except ValidationError as exc:
        failed, kind = (3, "", f"validation error: {exc}\n"), type(exc).__name__
    except InternalError as exc:
        failed, kind = (5, "", f"internal error: {exc}\ninput: --h1 {h1!r} --h2 {h2!r}\n"), type(exc).__name__
    except EaqconvError as exc:
        failed, kind = (1, "", f"error: {exc}\n"), type(exc).__name__
    else:
        p = {"n": spec.n, "k": spec.k, "c": spec.c, "s": spec.s, "class": spec.class_tag}
        rates = (spec.rates.entanglement_assisted, *spec.rates.tradeoff, spec.rates.catalytic)
        doc = {
            "schema": 1,
            **p,
            "rates": {
                "entanglement_assisted": str(rates[0]),
                "tradeoff": [str(rates[1]), str(rates[2])],
                "catalytic": str(rates[3]),
            },
        }
        text = (
            f"[[{p['n']}, {p['k']}; {p['c']}]] class={p['class']}\n"
            f"rates: entanglement-assisted {rates[0]}, trade-off ({rates[1]}, {rates[2]}), catalytic {rates[3]}\n"
        )
        return {"text": (0, text, ""), "json": (0, json.dumps(doc, indent=2) + "\n", "")}, p["class"]
    return {"text": failed, "json": failed}, kind


def test_params_matches_the_full_build(capsys):
    """`params` prints exactly the parameters and rates of build_code(...), or the same typed error,
    on unfiltered tier S, M and L pairs; one sha256 pins every output."""
    digest = hashlib.sha256()
    outcomes = set()
    for tier in PARAMS_TIERS:
        for h1, h2 in _unfiltered_pairs(tier):
            want, outcome = _printed_params(h1, h2)
            outcomes.add(outcome)
            for fmt in ("text", "json"):
                got = run(capsys, "params", "--h1", h1, "--h2", h2, "--format", fmt)
                assert got == want[fmt], (h1, h2, fmt)
                digest.update(repr((tier, h1, h2, fmt, *got)).encode())
    assert outcomes == {
        "class1", "class2", "class2_special", "CatastrophicInput", "NotDelayFree", "RankDeficient"
    }
    assert digest.hexdigest() == PARAMS_SHA256


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "build", "--h1", "1+Q", "--h2", "1, 1+D")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("h1", ["1, D^1_0", "1, D^\u0663"])
def test_params_rejects_exponents_outside_the_grammar(capsys, h1):
    code, out, err = run(capsys, "params", "--h1", h1, "--h2", "1, 1+D")
    assert (code, out) == (2, "")
    assert "bad term" in err


def test_params_rejects_an_exponent_beyond_the_bound():
    """A typo of 10^13 ends in one parse error line and exit 2, not a MemoryError traceback.

    The command runs in a process capped at 2 GB of address space, so a
    parser that formed the term's mask would fail fast instead of paging.
    """
    pytest.importorskip("resource")
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9)); "
              "from eaqconv.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["params", "--h1", "1, 1+D^10000000000000", "--h2", "1, 1"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", capped, *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("parse error:") and "|k| <= 1000000" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_validation_error_names_factor(capsys):
    code, _, err = run(capsys, "build", "--h1", "1+D, 1+D", "--h2", "1, 1+D")
    assert code == 3
    assert "catastrophic" in err
    assert "1+D" in err


def test_negative_exponent_is_named_as_an_entry(capsys):
    code, out, err = run(capsys, "params", "--h1", "1, D^-1", "--h2", "1, 1")
    assert (code, out) == (3, "")
    assert err == "validation error: H1 is not delay-free: entry D^-1 has a negative exponent\n"


def test_reports_print_rows_not_views(capsys, monkeypatch):
    """Every subcommand prints check matrices from their stored rows: with the
    `QuantumCheckMatrix.z` and `.x` views raising, each output is unchanged."""
    class2 = ("1+D^2, D^2", "D, 1+D+D^2")  # seed-1 verify_w64 op 4: rational stabilizer rows
    pairs = (*EXAMPLES.values(), class2)
    calls = [[cmd, "--h1", h1, "--h2", h2] for cmd in ("build", "params", "verify") for h1, h2 in pairs]
    calls = [[*argv, "--format", fmt] for argv in [*calls, ["examples"]] for fmt in ("text", "json")]
    want = [run(capsys, *argv) for argv in calls]
    assert {code for code, _, _ in want} == {0}
    assert "/(1+D^2+D^3)" in want[calls.index(["build", "--h1", class2[0], "--h2", class2[1], "--format", "text"])][1]

    def view(self):
        raise AssertionError("a report formed a PolyMatrix view")

    for name in ("z", "x"):
        monkeypatch.setattr(gates.QuantumCheckMatrix, name, property(view))
    assert [run(capsys, *argv) for argv in calls] == want


def test_the_pipeline_builds_no_rational_poly(capsys, monkeypatch):
    """From the command line to the printed report no command forms a RationalPoly: each cell parses to
    a (num, den) pair, and every matrix keeps its rows of numerators over row denominators."""
    built = []
    init = RationalPoly.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RationalPoly, "__init__", counted)
    calls = [[cmd, "--h1", h1, "--h2", h2] for _, h1, h2 in golden_pairs() for cmd in ("params", "build", "verify")]
    calls = [[*argv, "--format", fmt] for argv in [*calls, ["examples"]] for fmt in ("json", "text")]
    codes = [run(capsys, *argv)[0] for argv in calls]
    assert len(calls) == 86 and set(codes) <= {0, 4}  # 4: a golden code wider than the default window
    assert built == []
    RationalPoly(ONE, ONE)  # the count is live
    assert built == [(ONE, ONE)]


def test_internal_error_is_typed_and_exits_5(capsys, monkeypatch):
    """A Smith run over its operation budget, and a finish whose E diagonal is no power of D, each exit 5.

    `build_code` finishes the record it has just classified, so only a broken
    construction invariant reaches a power-of-D guard: here a class-2 record
    handed to the class-1 finish.  stderr echoes the input either way.
    """
    with monkeypatch.context() as patch:
        patch.setattr(polymat, "_SMITH_CAP", 1)
        h = polymat.parse_matrix("1+D^2, 1+D+D^2")
        with pytest.raises(InternalError, match="operation budget"):
            build_code(h, h)
        code, _, err = run(capsys, "build", "--h1", "1+D^2, 1+D+D^2", "--h2", "D, 1+D")
    assert code == 5
    assert err.startswith("internal error: Smith reduction exceeded its operation budget")
    assert "--h1 '1+D^2, 1+D+D^2' --h2 'D, 1+D'" in err

    decompose = construct.decompose_general

    def misclassified(*args, **kw):
        record = decompose(*args, **kw)
        record.class_tag = CLASS1
        return record

    monkeypatch.setattr(construct, "decompose_general", misclassified)
    assert run(capsys, "build", "--h1", "1, 1+D", "--h2", "1, 1+D") == (5, "", (
        "internal error: invariant factor 1+D+D^2 of E is not a power of D\n"
        "input: --h1 '1, 1+D' --h2 '1, 1+D'\n"
    ))


def test_any_other_typed_error_exits_1(capsys, monkeypatch):
    """A typed error that is no parse, validation or internal error prints its message and exits 1."""

    def mismatch(h1, h2):
        raise DimensionMismatch("ragged rows")

    monkeypatch.setattr(cli, "build_code", mismatch)
    for command in ("build", "verify"):
        code, out, err = run(capsys, command, "--h1", "1, 1+D", "--h2", "1, 1+D")
        assert (code, out, err) == (1, "", "error: ragged rows\n")


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


def test_the_module_exits_with_the_status_of_main():
    """`python -m eaqconv.cli` passes main's return value to the process exit status."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["build", "--h1", "1+D, 1+D", "--h2", "1, 1+D"]
    proc = subprocess.run([sys.executable, "-m", "eaqconv.cli", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "validation error: H1 is catastrophic: invariant factor 1+D != 1\n"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_examples_stop_at_the_first_failed_verification(capsys, fmt):
    """At --window 1 the first example fails its verification: examples exits 4 without running the second."""
    code, out, _ = run(capsys, "examples", "--window", "1", "--format", fmt)
    assert code == 4
    if fmt == "text":
        assert out.startswith("=== example: finite-depth ===\n") and "FAIL" in out
        assert "infinite-depth" not in out
    else:
        assert out == ""


def test_examples_regenerate_golden_json(capsys):
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "examples.json").read_text(encoding="utf-8")
    payload = json.loads(out)
    assert [e["name"] for e in payload["examples"]] == ["finite-depth", "infinite-depth"]
    assert all(e["verification"]["passed"] for e in payload["examples"])
