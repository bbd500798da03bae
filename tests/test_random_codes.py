"""Differential golden: `eaqconv build --format json` on seeded random codes.

tests/golden/random_codes.json freezes the H1/H2 text and the full build
report of 12 admissible pairs (8 drawn with n<=4, deg<=2 and 4 with n<=6,
deg<=3, all from one `random.Random(7)` stream through `random_pair` of
scripts/random_code_sweep.py).  Any change to the reduction, the gate
semantics or the assembly that alters a gate sequence or a stabilizer shows
up here byte for byte.  Regenerate only when such a change is intended:

    PYTHONPATH=src python3 tests/test_random_codes.py

A second check pins, as one sha256, the build reports of the first 24
tier-L pairs (n<=8, deg<=4) of the benchmark's seed-1 `build_l` stream.
Their encoders run to 12337 gates with CNOT delays up to 2560, which no
hand-sized case reaches.

A third pins, as one sha256, the exit code, stdout and stderr of `build`
in both text and JSON on the 12 golden pairs and both worked examples;
only the examples' text report has a golden file of its own.

Two more sha256 pins hold the check-matrix states that the reports print
only in part.  For the 12 golden pairs and both worked examples, built with
`want_trace`, one digest covers every reduction, encode and decode trace
state, the decoded state, the final and measurable stabilizers and the row
multipliers; for the 24 tier-L pairs, built without it, one digest covers
the decoded state.  A state is hashed as its formatted Z and X entries, its
row labels, its receiver column count and, in the same form, its `info`.

One more sha256 pins the decoded state and the decoded frame offsets of
plain builds (no `want_trace`) of the 12 golden pairs, both worked examples
and the 32 `build_l` pairs of both benchmark corpora.  Every build takes
its decoded state from the stage and tail gates on the bare stream, while a
traced build also steps the decoder gate by gate from the encoder's result.
For each golden pair and worked example, that decode trace's last state,
with its logical rows reduced, must equal the decoded state; the traced
build must agree with its plain build on the decoded offsets and the final
stabilizer, and its decode trace must hold one step per decoder gate, in
the decoder's order.

A plain build of the 12 golden pairs, both worked examples and the 16
seed-1 `build_l` pairs calls `eaqconv.poly.format_poly` not once: only a
traced reduction forms its step labels.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from eaqconv import gates, poly
from eaqconv.cli import EXAMPLES, main
from eaqconv.construct import build_code
from eaqconv.gates import format_gate
from eaqconv.polymat import format_matrix, parse_matrix
from support import corpus_items

GOLDEN = Path(__file__).parent / "golden" / "random_codes.json"
SEED = 7
TIERS = ((4, 2, 8), (6, 3, 4))  # (n_max, deg_max, count)
TIER_L_STREAM = "eaqconv-bench/1/build_l/L"
TIER_L_SHA256 = "5631a22fb9e894fbd838e397da5f68c3ff1c3c02ae967bd1fa834a9234716792"
TRACE_STATES_SHA256 = "524ddabcc56fc3bf7a1b4cb994d07f9356b8a6efc8f162f3d74fc50332c6dd10"
TIER_L_DECODED_SHA256 = "362ffd83ee2f4c924455661a39e064e9fad1b06880dc55faed2eb2b6e291fefd"
BUILD_REPORTS_SHA256 = "885709992b12a3777968bdaac85d201a776d5df5293adb08b7be07723a5e653c"
DECODED_SHA256 = "b575b643f52a572096fdc8277636d499125637d3d2f6bdc277b9b9e7f12d373c"
# decode trace steps that no decoder gate makes
DECODE_TRACE_FRAMES = ("received stream", "reduction row scalings reapplied", "logical operators reduced by stabilizer rows")


def _build_output(h1: str, h2: str, fmt: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `eaqconv build` in the given format."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["build", "--h1", h1, "--h2", h2, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def build_json(h1: str, h2: str) -> str:
    code, out, _ = _build_output(h1, h2, "json")
    assert code == 0
    return out


def _cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["codes"]


def _golden_and_example_pairs():
    return [(c["h1"], c["h2"]) for c in _cases()] + [pair for _, pair in sorted(EXAMPLES.items())]


def test_build_matches_golden():
    for case in _cases():
        assert build_json(case["h1"], case["h2"]) == case["build"], case["id"]


def test_golden_covers_every_class():
    assert {json.loads(c["build"])["class"] for c in _cases()} == {"class1", "class2", "class2_special"}


def _random_pairs(rng, n_max, deg_max, count):
    """The H1/H2 text of `count` pairs from `random_pair` of scripts/random_code_sweep.py."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    from random_code_sweep import random_pair

    return [tuple(format_matrix(h).replace("\n", "; ") for h in random_pair(rng, n_max, deg_max)) for _ in range(count)]


def test_tier_l_builds_match_pinned_digest():
    digest = hashlib.sha256()
    for h1, h2 in _random_pairs(random.Random(TIER_L_STREAM), 8, 4, 24):
        digest.update(f"{h1}\n{h2}\n{build_json(h1, h2)}".encode())
    assert digest.hexdigest() == TIER_L_SHA256


def test_build_reports_match_pinned_digest():
    digest = hashlib.sha256()
    for h1, h2 in _golden_and_example_pairs():
        for fmt in ("text", "json"):
            digest.update(repr((h1, h2, fmt, *_build_output(h1, h2, fmt))).encode())
    assert digest.hexdigest() == BUILD_REPORTS_SHA256


def _state_text(qcm) -> str:
    """A check matrix as text: receiver columns, row labels, Z, X, then its info the same way."""
    if qcm is None:
        return "no info"
    parts = [str(qcm.bob_cols), ",".join(qcm.row_labels), format_matrix(qcm.z), format_matrix(qcm.x)]
    return "\n".join(parts + [_state_text(qcm.info)])


def _build(h1: str, h2: str, want_trace: bool = False):
    return build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)), want_trace=want_trace)


def test_traced_states_match_pinned_digest():
    digest = hashlib.sha256()
    for h1, h2 in _golden_and_example_pairs():
        spec = _build(h1, h2, want_trace=True)
        steps = spec.record.reduction.trace + spec.encode_trace + spec.decode_trace
        states = [(s.label, s.state) for s in steps] + [
            ("decoded state", spec.decoded_state),
            ("final stabilizer", spec.final_stabilizer),
            ("measurable stabilizer", spec.measurable_stabilizer),
        ]
        digest.update(f"{h1}\n{h2}\n".encode())
        for label, state in states:
            digest.update(f"{label}\n{_state_text(state)}\n".encode())
        digest.update(", ".join(map(str, spec.measurement_multipliers)).encode())
    assert digest.hexdigest() == TRACE_STATES_SHA256


def test_tier_l_decoded_states_match_pinned_digest():
    digest = hashlib.sha256()
    for h1, h2 in _random_pairs(random.Random(TIER_L_STREAM), 8, 4, 24):
        digest.update(f"{h1}\n{h2}\n{_state_text(_build(h1, h2).decoded_state)}\n".encode())
    assert digest.hexdigest() == TIER_L_DECODED_SHA256


def test_decoded_states_match_pinned_digest():
    pairs = _golden_and_example_pairs() + [(it["h1"], it["h2"]) for it in corpus_items() if it["tier"] == "L"]
    assert len(pairs) == 14 + 32
    digest = hashlib.sha256()
    for h1, h2 in pairs:
        spec = _build(h1, h2)
        digest.update(f"{h1}\n{h2}\n{_state_text(spec.decoded_state)}\n{spec.decoded_offsets}\n".encode())
    assert digest.hexdigest() == DECODED_SHA256


def test_traced_and_plain_builds_decode_alike():
    for h1, h2 in _golden_and_example_pairs():
        plain, traced = _build(h1, h2), _build(h1, h2, want_trace=True)
        assert traced.decode_trace[-1].state == traced.decoded_state
        assert traced.decoded_offsets == plain.decoded_offsets
        assert traced.final_stabilizer == plain.final_stabilizer
        steps = [s.label for s in traced.decode_trace if s.label not in DECODE_TRACE_FRAMES]
        assert steps == [format_gate(g) for g in traced.decoder]


def test_plain_builds_format_no_polynomial(monkeypatch):
    """A build without want_trace forms no trace label, so it formats no polynomial."""
    with open(Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "seed-1.json", encoding="utf-8") as fh:
        build_l = [(it["h1"], it["h2"]) for it in json.load(fh)["build_l"]]
    pairs = [[parse_matrix(t.replace(";", "\n")) for t in pair] for pair in _golden_and_example_pairs() + build_l]
    assert len(pairs) == 14 + 16
    calls, format_poly = [], poly.format_poly

    def counted(p):
        calls.append(p)
        return format_poly(p)

    for module in (poly, gates):  # gates imports it by name
        monkeypatch.setattr(module, "format_poly", counted)
    for h1, h2 in pairs:
        build_code(h1, h2)
    assert len(calls) == 0


def _regenerate():
    rng = random.Random(SEED)
    codes = []
    for n_max, deg_max, count in TIERS:
        for h1, h2 in _random_pairs(rng, n_max, deg_max, count):
            codes.append({"id": f"n{n_max}d{deg_max}-{len(codes) + 1}", "h1": h1, "h2": h2, "build": build_json(h1, h2)})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "codes": codes}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
