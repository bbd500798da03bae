"""How the CLI prints its records: shared gate and row text, the JSON printer, and no cyclic garbage.

The build report formats each reduction string once, for the encoder's
tail and the decoder's head, and takes the measurable stabilizer's rows over
denominator 1 from the final stabilizer's text.  It may do so only where
the circuit or matrix holds the very objects that were formatted, so these
tests hand the report specs whose circuits and rows were replaced and
require each printed line to be `format_gate` of its own gate, or
`format_rows` of its own row.

`cli._json` must print the bytes of `json.dumps(value, indent=2)`, the
oracle, on every record that `build`, `params`, `verify` and `examples`
print for both corpora, and on seeded synthetic records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import random
from pathlib import Path

import pytest

from eaqconv import cli
from eaqconv.cli import EXAMPLES, main
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, QuantumCheckMatrix, cnot, format_gate
from eaqconv.polymat import format_rows, parse_matrix

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
COMMANDS = {
    "verify_w64": ["verify", "--window", "64", "--format", "json"],
    "build_l": ["build", "--format", "json"],
    "screen_s": ["params", "--format", "json"],
}


def _corpus(seed):
    with open(CORPUS / f"seed-{seed}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _argv(workload, item):
    command, *options = COMMANDS[workload]
    return [command, "--h1", item["h1"], "--h2", item["h2"], *options]


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        return main(argv), out.getvalue()


def _spec(name="infinite-depth"):
    return build_code(*(parse_matrix(text) for text in EXAMPLES[name]))


def _printed(spec):
    """The build report's record, and its text report's lines."""
    return cli._spec_report_json(spec), cli._spec_report_text(spec).splitlines()


def _own_gates(spec, record, lines):
    for side in ("encoder", "decoder"):
        own = [format_gate(g) for g in getattr(spec, side)]
        assert record[side] == own, side
        head = lines.index(f"{side} ({len(own)} gates):")
        assert lines[head + 1 : head + 1 + len(own)] == [f"  {g}" for g in own], side


def _own_rows(qcm, record):
    assert record["z"] == format_rows([n[:qcm.cols] for n in qcm.nums], qcm.dens)
    assert record["x"] == format_rows([n[qcm.cols:] for n in qcm.nums], qcm.dens)


def test_built_reports_print_each_circuit_and_matrix_from_its_own_objects():
    for name in EXAMPLES:
        spec = _spec(name)
        record, lines = _printed(spec)
        _own_gates(spec, record, lines)
        _own_rows(spec.final_stabilizer, record["final_stabilizer"])
        _own_rows(spec.measurable_stabilizer, record["measurable_stabilizer"])


@pytest.mark.parametrize("edit", ["drop", "swap"])
def test_replaced_circuits_print_their_own_gates(edit):
    """Each circuit loses one reduction gate, or has it swapped for another at the same place."""
    spec = _spec()
    red = Circuit.from_strings(spec.record.reduction.strings).gates
    enc, dec = list(spec.encoder.gates), list(spec.decoder.gates)
    at_enc, at_dec = len(enc) - 1 - len(red) // 2, len(red) // 2
    assert enc[at_enc] == dec[at_dec] == red[len(red) // 2]
    other = cnot(0, 1, delay=7)
    for gates, at in ((enc, at_enc), (dec, at_dec)):
        if edit == "drop":
            del gates[at]
        else:
            gates[at] = other
    changed = dataclasses.replace(spec, encoder=Circuit(tuple(enc)), decoder=Circuit(tuple(dec)))
    record, lines = _printed(changed)
    _own_gates(changed, record, lines)
    assert record["encoder"] != cli._spec_report_json(spec)["encoder"]
    assert record["decoder"] != cli._spec_report_json(spec)["decoder"]


def _rebuilt(qcm, rows):
    """qcm with its rows in new tuples ("copied"), or with its own row tuples in reverse order ("reversed")."""
    order = range(qcm.rows)[::-1] if rows == "reversed" else range(qcm.rows)
    pick = lambda items: tuple(items[r] for r in order)
    nums = tuple(map(tuple, qcm.nums)) if rows == "copied" else pick(qcm.nums)
    labels = pick(qcm.row_labels) if qcm.row_labels else ()
    return QuantumCheckMatrix.from_rows(nums, pick(qcm.dens), qcm.cols, qcm.bob_cols, labels)


def test_measurable_rows_over_other_denominators_are_formatted_again():
    """The example's final stabilizer has a row over 1 + D + D^2: the measurable row holds the same tuples over 1."""
    spec = _spec()
    final, measurable = spec.final_stabilizer, spec.measurable_stabilizer
    assert measurable.nums is final.nums and [d.bits for d in final.dens] == [0b111, 1]
    record = cli._spec_report_json(spec)
    _own_rows(measurable, record["measurable_stabilizer"])
    assert record["measurable_stabilizer"]["z"][0] != record["final_stabilizer"]["z"][0]
    assert record["measurable_stabilizer"]["z"][1] == record["final_stabilizer"]["z"][1]


@pytest.mark.parametrize("rows", ["copied", "reversed"])
@pytest.mark.parametrize("side", ["final_stabilizer", "measurable_stabilizer"])
def test_replaced_rows_print_their_own_text(side, rows):
    spec = _spec()
    changed = dataclasses.replace(spec, **{side: _rebuilt(getattr(spec, side), rows)})
    record = cli._spec_report_json(changed)
    _own_rows(changed.final_stabilizer, record["final_stabilizer"])
    _own_rows(changed.measurable_stabilizer, record["measurable_stabilizer"])


def test_json_matches_json_dumps_on_every_printed_record(monkeypatch):
    records, emit = [], cli._json
    monkeypatch.setattr(cli, "_json", lambda value: records.append(value) or emit(value))
    argvs = [_argv(workload, it) for seed in (1, 2) for workload, items in _corpus(seed).items() for it in items]
    for argv in [*argvs, ["examples", "--format", "json"]]:
        _quiet(argv)
    commands = {argv[0] for argv in argvs}
    assert commands == {"build", "params", "verify"} and len(records) > len(argvs) // 4
    for value in records:
        assert emit(value) == json.dumps(value, indent=2)


TEXT = ['a', 'Z', ' ', '"', '\\', '/', "'", '\n', '\t', '\x00', '\x1f', '\x7f', 'é', 'λ', '€', '\U0001d11e']


def _scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choice(TEXT) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.randint(-10**20, 10**20) if rng.random() < 0.2 else rng.randint(-9, 9)
    return (True, False, None)[kind - 2]


def _synthetic(rng, depth):
    """A scalar, an empty container, or at depth > 0 a list, tuple or dict of up to four values."""
    kind, size = rng.randrange(8 if depth else 2), rng.randrange(5)
    if kind == 0:
        return _scalar(rng)
    if kind == 1:
        return rng.choice([[], {}, ()])
    if kind == 2:
        return ["".join(rng.sample(TEXT, 3)) if rng.random() < 0.7 else _scalar(rng) for _ in range(size)]
    if kind == 3:
        return [rng.randint(-99, 99) for _ in range(size)]
    if kind == 4:
        return tuple(_synthetic(rng, depth - 1) for _ in range(size))
    if kind == 5:
        return [{"k": _synthetic(rng, depth - 1)} for _ in range(size)]
    keys = [_scalar(rng) if kind == 6 else "".join(rng.sample(TEXT, 2)) for _ in range(size)]
    return {key: _synthetic(rng, depth - 1) for key in keys}


FALLBACKS = [1.5, -0.0, float("inf"), {1: [2, {}]}, {"a": {None: "b", True: [1.25]}}, [[{2.5: ()}]], 10**30 * 1.0]


def test_json_matches_json_dumps_on_synthetic_records():
    """Nested empty lists and dicts, lists of dicts, mixed lists, tuples, True/False/None, negative ints, strings
    with quotes, backslashes, control characters and non-ASCII text; then values that fall back to json.dumps."""
    rng = random.Random(20261020)
    values = [_synthetic(rng, 4) for _ in range(600)]
    values += [[[], {}], {"a": [], "b": {}, "c": [{}]}, ("x", "y"), [1, True], [True, False], [None], [-1, -2]]
    values += [{"nest": [value]} for value in FALLBACKS] + FALLBACKS
    for value in values:
        assert cli._json(value) == json.dumps(value, indent=2), value


def test_cli_ops_leave_no_cyclic_garbage():
    """A build, a params and a verify op of the seed-1 corpus, each run once before to warm caches."""
    items = _corpus(1)
    argvs = [_argv(w, next(it for it in items[w] if "error" not in it["expect"])) for w in COMMANDS]
    assert [argv[0] for argv in argvs] == ["verify", "build", "params"]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in argvs:
            _quiet(argv)
            gc.collect()
            assert _quiet(argv)[0] == 0
            assert gc.collect() == 0, argv[0]
    finally:
        if enabled:
            gc.enable()
