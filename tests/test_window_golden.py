"""Golden: every simulated window row of the encoders of known codes.

For the 12 pairs of tests/golden/random_codes.json and both worked examples,
the encoder runs on the expanded bare stream at W=64 and W=128 with the
scratch that `verify_code` picks.  Every row after the circuit (bits, label,
shift, truncated flag, each track's interval and spill flags, `valid_mask`
at margins (0, 0) and (2, 3)) goes into one sha256 per code and window;
tests/golden/window_rows.json holds the digests and row counts.  A change to
the window simulator's layout must leave them byte-identical.  Regenerate
only when the simulator's semantics change on purpose:

    PYTHONPATH=src python3 tests/test_window_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from eaqconv.construct import build_code
from eaqconv.errors import WindowTooSmall
from eaqconv.polymat import parse_matrix
from eaqconv.simulate import default_scratch, expand, run_circuit
from support import golden_pairs

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "window_rows.json"
WINDOWS = (64, 128)
MARGINS = ((0, 0), (2, 3))


def digest(h1: str, h2: str, window: int) -> dict:
    spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
    scratch = min(default_scratch(spec.encoder), window // 3)
    try:
        out = run_circuit(expand(spec.bare, window, scratch), spec.encoder)
    except WindowTooSmall as exc:
        return {"error": str(exc)}
    h = hashlib.sha256()
    for r in out.rows:
        tracks = [(t.vf, t.vu, t.head_lost, t.tail_lost) for t in r.tracks]
        masks = [r.valid_mask(out, head, tail) for head, tail in MARGINS]
        h.update(repr((r.z, r.x, r.source, r.shift, r.label, r.truncated, tracks, masks)).encode())
    return {"rows": len(out.rows), "sha256": h.hexdigest()}


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["codes"]


def test_simulated_rows_match_golden():
    golden = _golden()
    assert [c["id"] for c in golden] == [name for name, _, _ in golden_pairs()]
    for case, (name, h1, h2) in zip(golden, golden_pairs()):
        for w in WINDOWS:
            assert digest(h1, h2, w) == case[str(w)], f"{name} W={w}"


def test_golden_simulates_rows_at_every_window():
    assert all("rows" in case[str(w)] for case in _golden() for w in WINDOWS)


def _regenerate():
    codes = [{"id": name, **{str(w): digest(h1, h2, w) for w in WINDOWS}} for name, h1, h2 in golden_pairs()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"windows": list(WINDOWS), "codes": codes}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
