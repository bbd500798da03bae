"""Differential test: circuits of gate strings against the per-term gate lists they replaced.

A `Circuit` holds gate strings, (gate, delays) each, and its `gates` view
makes one `Gate` per term.  `tests/circuit_oracle.py` keeps `steps`, the
grouping into replay steps that ran over per-term gate lists.  Seeded gate
lists mix all six kinds and both frame flags, change the note inside a run
of gates on the same qubits, and follow a run by one that differs in its
frame flag alone.  For each, `Circuit(gates)` must give the
gates back as its view, its `_runs` must be the oracle's steps of the same
gates, and its `inverse()` must hold the gates of `Circuit(gates[::-1])` in
the same steps.  Seeded string lists, adjacent strings often equal in all
but their delays, must view as their terms in order and run in the
oracle's steps of that view.

Over every admitted op of both benchmark corpora, a built encoder's and
decoder's len() must be the length of their views, and their steps the
oracle's steps of their views.

A plain build makes one `Gate` per string, and the build and verify
commands form no view: `Gate.__new__` is counted while the command line
runs seed-1 `build_l` and `verify_w64` ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import circuit_oracle as oracle
from eaqconv import cli
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, Gate
from eaqconv.poly import LaurentPoly
from eaqconv.polymat import parse_matrix
from support import corpus_items

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "seed-1.json"
CASES = 300
NOTES = ("", "standard-form", "E-block")


def _gates(rng) -> list[Gate]:
    """Runs of gates on the same qubits and frame flag whose notes change inside the run, broken by other gates
    or by the frame flag alone."""
    cols = rng.randint(2, 4)
    out, last = [], None
    for _ in range(rng.randint(1, 8)):
        if last and rng.random() < 0.3:
            kind, i, j, full = *last[:3], not last[3]  # the next run differs in its frame flag alone
        else:
            kind = rng.choice(("CNOT", "P", "CPHASE", "CPHASE_SELF", "H", "INF"))
            (i, j), full = rng.sample(range(cols), 2), rng.random() < 0.3
        last = kind, i, j, full
        if kind == "H":
            out.append(Gate("H", i, full_frame=full, note=rng.choice(NOTES)))
        elif kind == "INF":
            f = LaurentPoly(rng.randrange(1, 16), rng.randint(-1, 1))
            out.append(Gate("INF", i, f=f, time_reversed=rng.random() < 0.5, full_frame=full))
        else:
            j = j if kind in ("CNOT", "CPHASE") else None
            note = rng.choice(NOTES)
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.3:
                    note = rng.choice(NOTES)
                delay = 0 if kind == "P" else rng.randint(-4, 4)
                out.append(Gate(kind, i, j, delay, full_frame=full, note=note))
    return out


def _step_keys(steps):
    return [(g.kind, g.i, g.j, g.full_frame, list(delays)) for g, delays in steps]


def test_gate_lists_group_into_strings_that_view_and_run_as_before():
    merged = noted = 0
    for seed in range(CASES):
        gates = _gates(random.Random(f"strings/{seed}"))
        circuit = Circuit(gates)
        assert circuit.gates == tuple(gates) and len(circuit) == len(gates)
        want = oracle.steps(gates)
        assert _step_keys(circuit._runs) == _step_keys(want)
        assert [g for g, _ in circuit._runs] == [g for g, _ in want]
        at, notes = 0, set()
        for _, delays in circuit._runs:
            notes.add(len({g.note for g in gates[at:at + len(delays)]}))
            at += len(delays)
        noted += max(notes) > 1
        if all(g.kind != "INF" for g in gates):
            inverse, reversed_ = circuit.inverse(), Circuit(gates[::-1])
            assert inverse.gates == reversed_.gates
            assert _step_keys(inverse._runs) == _step_keys(reversed_._runs)
        merged += len(circuit._runs) < len(circuit.strings)
    assert merged > CASES // 4 and noted > CASES // 4


def test_string_lists_view_as_their_terms_and_run_in_the_oracle_steps():
    for seed in range(CASES):
        rng = random.Random(f"string-lists/{seed}")
        strings = []
        for g in _gates(rng):
            if strings and rng.random() < 0.5 and strings[-1][0].kind not in ("H", "INF"):
                g = strings[-1][0]  # an adjacent string equal in all but its delays
            more = rng.randrange(3) if g.kind not in ("H", "INF") else 0  # H and INF are strings of one term
            delays = [g.delay] + [rng.randint(-4, 4) for _ in range(more)]
            strings.append((g, delays))
        circuit = Circuit.from_strings(strings)
        view = [g._replace(delay=d) for g, delays in strings for d in delays]
        assert list(circuit.gates) == view and len(circuit) == len(view)
        assert _step_keys(circuit._runs) == _step_keys(oracle.steps(view))


def _build(item):
    return build_code(*(parse_matrix(t.replace(";", "\n")) for t in (item["h1"], item["h2"])))


def test_built_circuits_count_their_terms_and_run_in_the_oracle_steps():
    built = 0
    for item in corpus_items():
        if item["expect"]["exit"] == 3:
            continue
        spec = _build(item)
        for circuit in (spec.encoder, spec.decoder):
            assert len(circuit) == len(circuit.gates)
            assert _step_keys(circuit._runs) == _step_keys(oracle.steps(circuit.gates))
        built += 1
    assert built > 200


def _counted(monkeypatch):
    """The list that gets one entry per `Gate.__new__` call from now on."""
    calls, new = [], Gate.__new__
    monkeypatch.setattr(Gate, "__new__", lambda cls, *a, **kw: calls.append(1) or new(cls, *a, **kw))
    return calls


@pytest.mark.parametrize("workload", ["build_l", "verify_w64"])
def test_commands_make_one_gate_per_string_and_no_view(monkeypatch, workload):
    with open(CORPUS, encoding="utf-8") as fh:
        items = json.load(fh)[workload]
    specs = []
    monkeypatch.setattr(cli, "build_code", lambda *a: specs.append(build_code(*a)) or specs[-1])
    calls = _counted(monkeypatch)
    for item in items:
        command = ["build"] if workload == "build_l" else ["verify", "--window", "64"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([*command, "--h1", item["h1"], "--h2", item["h2"], "--format", "json"]) in (0, 4)
    strings = {id(g) for spec in specs for c in (spec.encoder, spec.decoder) for g, _ in c.strings}
    terms = sum(len(spec.encoder) for spec in specs)
    assert len(calls) <= len(strings) < terms
    assert not any("gates" in vars(c) for spec in specs for c in (spec.encoder, spec.decoder))
