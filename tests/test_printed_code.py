"""The printed code is the verified code: `build --format json` read back.

For the 12 pairs of tests/golden/random_codes.json, both worked examples
and every admitted op of both benchmark corpora (the `build_l` and
`verify_w64` pairs and the `screen_s` pairs that pass admission, each
distinct pair once), the JSON build report is parsed back with the grammar
the tests keep (`support.parse_gate`, `polymat.parse_matrix`,
`poly.parse_poly`):

- every encoder and decoder line parses to the built gate, notes aside;
- the final and measurable stabilizers parse to the stored rows, and the
  row multipliers to the stored row denominators;
- `verify_code` on the spec with the parsed circuits in place of the built
  ones gives the same report as on the spec itself.

A sha256 pin notices that the text changed; this test says whether the
new text still describes the code that was verified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import pytest

from eaqconv.cli import main
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, QuantumCheckMatrix
from eaqconv.poly import parse_poly
from eaqconv.polymat import parse_matrix
from eaqconv.simulate import verify_code
from support import corpus_items, golden_pairs, parse_gate


def _pairs() -> list[tuple[str, str, str]]:
    """(id, H1 text, H2 text) of the golden pairs, then of each distinct admitted corpus op."""
    pairs = golden_pairs()
    seen = {(h1, h2) for _, h1, h2 in pairs}
    for k, item in enumerate(corpus_items()):
        if item["expect"]["exit"] != 3 and (item["h1"], item["h2"]) not in seen:
            seen.add((item["h1"], item["h2"]))
            pairs.append((f"corpus-{k}-{item['tier']}", item["h1"], item["h2"]))
    return pairs


PAIRS = _pairs()


def _report(h1: str, h2: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", "--h1", h1, "--h2", h2, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _rows(qcm: QuantumCheckMatrix) -> tuple:
    """What a report prints of a check matrix: its stored rows, receiver columns and row labels."""
    return qcm.nums, qcm.dens, qcm.cols, qcm.bob_cols, qcm.row_labels


def _parsed(doc: dict) -> QuantumCheckMatrix:
    z, x = (parse_matrix("\n".join(doc[side])) for side in ("z", "x"))
    return QuantumCheckMatrix(z, x, doc["bob_cols"], doc["row_labels"])


@pytest.mark.parametrize("name, h1, h2", PAIRS, ids=[p[0] for p in PAIRS])
def test_build_report_parses_back_to_the_verified_code(name, h1, h2):
    h1, h2 = (t.replace(";", "\n") for t in (h1, h2))
    doc = _report(h1, h2)
    spec = build_code(parse_matrix(h1), parse_matrix(h2))

    encoder = Circuit(tuple(parse_gate(line) for line in doc["encoder"]))
    decoder = Circuit(tuple(parse_gate(line) for line in doc["decoder"]))
    assert encoder.gates == tuple(g._replace(note="") for g in spec.encoder)
    assert decoder.gates == tuple(g._replace(note="") for g in spec.decoder)

    assert _rows(_parsed(doc["final_stabilizer"])) == _rows(spec.final_stabilizer)
    assert _rows(_parsed(doc["measurable_stabilizer"])) == _rows(spec.measurable_stabilizer)
    assert tuple(map(parse_poly, doc["measurement_multipliers"])) == spec.measurement_multipliers

    printed = verify_code(dataclasses.replace(spec, encoder=encoder, decoder=decoder))
    assert printed == verify_code(spec)
