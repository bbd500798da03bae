"""The benchmark's Smith and window spans still see the work they name.

`perfbench/spans.py` counts `polymat.smith_calls` by wrapping
`polymat.SmithEngine.run`, and `polymat.smith_wide_divs` by wrapping
`polymat.divmod_width`.  This test wraps the same two names while the CLI
runs every seed-1 `screen_s` op (`params`) and `verify_w64` pair 19 (where
the width fallback fires), and pins both counts, so a Smith engine that
reduced or divided by width past those names would show here.  Over the
`screen_s` ops it also pins the engine's passes (`SmithEngine._scan`, one
per pass) and its block snapshots (`SmithEngine._snapshot`): only a pass
that divides takes one, so an engine that took one on every pass again
would show here.  Likewise it wraps `simulate.run_circuit` and
`simulate.expand` by module name, as the traced spans do, and pins one
circuit run and two expansions per `verify --window 64`, so
`simulate.run_circuit_s` keeps timing the window kernel.  It wraps `gates.Circuit.apply`, which `gates.circuit_apply_calls`
counts, and the replay behind it, and names the circuit of each replay.
A `build` makes two calls: the encoder on the bare stream, and the stage
circuit (the stage gates, then the decoder's tail gates) on the same stream
for the decoded state, which its report's frame offsets read.  It replays
the encoder, and the stage circuit when it has gates (class 2; a class-1
code has none, and an empty circuit returns its input).  A `verify` reads
no decoded state, so it makes three calls, the encoder in the build and the
encoder and the decoder for its checks, and replays the decoder once, on
the encoder's stored result; the encoder is not replayed again.

It wraps `polymat._eliminate`, the elimination behind `echelon` and
`row_space_equal`, and pins three per `verify` on a pair with k > 0: one for
the check matrices, one that the stored stabilizer shares with the
re-encoded one (the same rows, permuted and scaled by powers of D), and
one for the decode check.  A stored stabilizer with other rows gets its
own elimination.

It also pins one sha256 over the exit code, stdout and stderr of `build` in
both formats on the seed-1 `build_l` pairs that print the widest reports:
thousands of polynomial terms and over a thousand gates each.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

import pytest

from eaqconv import gates, polymat, simulate
from eaqconv.cli import main
from eaqconv.construct import build_code
from eaqconv.gates import QuantumCheckMatrix
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, parse_matrix

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "seed-1.json"
SCREEN_S_RUNS, SCREEN_S_WIDE_DIVS = 823, 14
SCREEN_S_PASSES, SCREEN_S_SNAPSHOTS = 4408, 3190
VERIFY_PAIR = 19
VERIFY_RUNS, VERIFY_WIDE_DIVS = 4, 9
WINDOW_PAIR = 0
ELIMINATION_PAIR = CLASS1_PAIR = 1
WIDE_BUILDS = (8, 12, 15)
WIDE_BUILDS_SHA256 = "8daf5314ef00b4fa6f91e8c62e5afb417b05f1a88efe2c633460501745c3b07d"


def _counted(monkeypatch, argvs):
    """(SmithEngine.run calls, divmod_width calls, passes, snapshots) while the CLI runs each argv."""
    runs, divs, passes, snaps = [], [], [], []
    engine = polymat.SmithEngine
    run, divide, scan, snapshot = engine.run, polymat.divmod_width, engine._scan, engine._snapshot
    monkeypatch.setattr(engine, "run", lambda self: runs.append(1) or run(self))
    monkeypatch.setattr(polymat, "divmod_width", lambda a, b: divs.append(1) or divide(a, b))
    monkeypatch.setattr(engine, "_scan", lambda self, t: passes.append(1) or scan(self, t))
    monkeypatch.setattr(engine, "_snapshot", lambda self, t: snaps.append(1) or snapshot(self, t))
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    return len(runs), len(divs), len(passes), len(snaps)


def _corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_screen_s_smith_counts(monkeypatch):
    argvs = [["params", "--h1", it["h1"], "--h2", it["h2"], "--format", "json"] for it in _corpus()["screen_s"]]
    assert _counted(monkeypatch, argvs) == (SCREEN_S_RUNS, SCREEN_S_WIDE_DIVS, SCREEN_S_PASSES, SCREEN_S_SNAPSHOTS)


def test_verify_w64_width_fallback_counts(monkeypatch):
    it = _corpus()["verify_w64"][VERIFY_PAIR]
    argv = ["verify", "--h1", it["h1"], "--h2", it["h2"], "--window", "64", "--format", "json"]
    assert _counted(monkeypatch, [argv])[:2] == (VERIFY_RUNS, VERIFY_WIDE_DIVS)


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


def _spec(it):
    return build_code(*(parse_matrix(t.replace(";", "\n")) for t in (it["h1"], it["h2"])))


# verify_w64 pair -> the circuits its build replays; a verify replays the encoder and the decoder alone
BUILD_REPLAYS = {WINDOW_PAIR: ["encoder", "stage"], CLASS1_PAIR: ["encoder"]}  # class 2; class 1, no stage gates


@pytest.mark.parametrize("command, applies", [("build", 2), ("verify", 3)])
def test_circuit_applies_and_replays(monkeypatch, command, applies):
    items = {pair: _corpus()["verify_w64"][pair] for pair in BUILD_REPLAYS}
    specs = {pair: _spec(it) for pair, it in items.items()}
    calls, replays = [], []
    apply, replay = gates.Circuit.apply, gates.Circuit._replay

    def replaying(circuit, qcm):
        out = replay(circuit, qcm)
        replays.append((circuit.gates, qcm, out))
        return out

    monkeypatch.setattr(gates.Circuit, "apply", lambda *a: calls.append(1) or apply(*a))
    monkeypatch.setattr(gates.Circuit, "_replay", replaying)
    for pair, built in BUILD_REPLAYS.items():
        spec, it = specs[pair], items[pair]
        stage = tuple(g for g in spec.encoder if g.note == "ebit-stage") + tuple(
            g for g in spec.decoder if g.note == "ebit-unstage")
        named = (("encoder", spec.encoder.gates), ("decoder", spec.decoder.gates), ("stage", stage))
        calls.clear()
        replays.clear()
        argv = [command, "--h1", it["h1"], "--h2", it["h2"], "--format", "json"]
        if command == "verify":
            argv += ["--window", "64"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        assert len(calls) == applies
        ran = {next(name for name, gs in named if gs == circuit): (qcm, out) for circuit, qcm, out in replays}
        assert list(ran) == (["encoder", "decoder"] if command == "verify" else built) and len(ran) == len(replays)
        assert ran["encoder"][0] == spec.bare
        if "stage" in ran:
            assert ran["stage"][0] is ran["encoder"][0]
        if "decoder" in ran:
            assert ran["decoder"][0] is ran["encoder"][1]


def _eliminations(monkeypatch):
    """The list that gets one entry per `polymat._eliminate` run from now on."""
    runs, eliminate = [], polymat._eliminate
    monkeypatch.setattr(polymat, "_eliminate", lambda rows: runs.append(1) or eliminate(rows))
    return runs


def test_verify_eliminations(monkeypatch):
    it = _corpus()["verify_w64"][ELIMINATION_PAIR]
    runs = _eliminations(monkeypatch)
    argv = ["verify", "--h1", it["h1"], "--h2", it["h2"], "--window", "64", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert len(runs) == 3


def _with_stored(spec, change):
    """spec with the Z and X grids of its final stabilizer passed through change(z, x)."""
    fs = spec.final_stabilizer
    z, x = ([list(row) for row in m.entries] for m in (fs.z, fs.x))
    change(z, x)
    out = copy.copy(spec)
    grids = (PolyMatrix(g, cols=fs.cols) for g in (z, x))
    out.final_stabilizer = QuantumCheckMatrix(*grids, fs.bob_cols, fs.row_labels, fs.info)
    return out


def test_other_stored_rows_get_their_own_elimination(monkeypatch):
    """A stored stabilizer that is not the re-encoded one is eliminated apart, in the same span or not."""
    it = _corpus()["verify_w64"][ELIMINATION_PAIR]
    spec = _spec(it)
    d, col = RationalPoly(LaurentPoly.term(1)), spec.final_stabilizer.bob_cols
    runs = _eliminations(monkeypatch)

    def mixed(z, x):  # row 0 += D * row 1: the same span, other rows
        for g in (z, x):
            g[0] = [a + d * b for a, b in zip(g[0], g[1])]

    check = simulate.verify_code(_with_stored(spec, mixed), 64).checks[1]
    assert check.passed and len(runs) == 4  # check matrices, stored, re-encoded; decode

    def spoiled(z, x):  # a sender entry gains a term: another span
        z[0][col] = z[0][col] + d

    runs.clear()
    check = simulate.verify_code(_with_stored(spec, spoiled), 64).checks[1]
    assert not check.passed and check.detail.startswith("stored")
    assert len(runs) == 5  # check matrices, stored; again for the detail; decode


def _output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_widest_build_reports_match_pinned_digest():
    items = _corpus()["build_l"]
    digest = hashlib.sha256()
    for i in WIDE_BUILDS:
        for fmt in ("text", "json"):
            argv = ["build", "--h1", items[i]["h1"], "--h2", items[i]["h2"], "--format", fmt]
            digest.update(repr((i, fmt, *_output(argv))).encode())
    assert digest.hexdigest() == WIDE_BUILDS_SHA256
