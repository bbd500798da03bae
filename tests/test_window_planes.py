"""Differential pin: the window planes of every admitted benchmark code, bit for bit.

For every admitted `verify_w64` and `build_l` op of both benchmark corpora
(80 codes), at W = 32, 64 and 256 with the scratch that `verify_code` picks,
one sha256 covers:

- the planes after `run_circuit(expand(spec.bare, W, scratch), spec.encoder)`:
  `z`, `x`, `prefix`, `suffix`, and the spill flags reduced to each row's
  frame 0 (`plane & win._base`), so the pin holds whichever frames of a
  flagged row the flag planes set;
- the planes, flags and blocks of `expand(evolved, W, scratch)`, `evolved`
  being the encoder's replay on the bare stream;
- the message of each `WindowTooSmall` where a code does not fit.

A change to how the window computes its planes must leave the digest as it
is.  Print it again, only when the window's semantics change on purpose:

    PYTHONPATH=src:tests python3 tests/test_window_planes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from eaqconv.construct import build_code
from eaqconv.errors import WindowTooSmall
from eaqconv.polymat import parse_matrix
from eaqconv.simulate import default_scratch, expand, run_circuit

CORPUS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
WINDOWS = (32, 64, 256)
DIGEST = "b4533407dcf0a140314742fe834db9c68f9b4b48cb06d7f0ad00d8a63e7274d8"


def _admitted():
    """(H1 text, H2 text) of each verify_w64 and build_l op of both corpora, all admitted, in corpus order."""
    pairs = []
    for seed in (1, 2):
        with open(CORPUS_DIR / f"seed-{seed}.json", encoding="utf-8") as fh:
            workloads = json.load(fh)
        pairs += [(it["h1"], it["h2"]) for name in ("verify_w64", "build_l") for it in workloads[name]]
    return pairs


def _window(make) -> str:
    """A window's planes, flags at frame 0, and blocks in hex and text, or the message of its WindowTooSmall."""
    try:
        win = make()
    except WindowTooSmall as exc:
        return f"WindowTooSmall: {exc}"
    flags = [p & win._base for p in (*win.head_lost, *win.tail_lost)]
    planes = (*win.z, *win.x, *win.prefix, *win.suffix, *flags, win.truncated)
    return " ".join(format(p, "x") for p in planes) + repr(win.blocks)


def digest() -> tuple[int, str]:
    """(codes, sha256 over every window of every code)."""
    h = hashlib.sha256()
    codes = _admitted()
    for h1, h2 in codes:
        spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
        evolved = spec.encoder.apply(spec.bare)
        for w in WINDOWS:
            scratch = min(default_scratch(spec.encoder), w // 3)
            h.update(f"{h1} | {h2} | W={w} scratch={scratch}\n".encode())
            h.update(_window(lambda: run_circuit(expand(spec.bare, w, scratch), spec.encoder)).encode())
            h.update(b"\n")
            h.update(_window(lambda: expand(evolved, w, scratch)).encode())
            h.update(b"\n")
    return len(codes), h.hexdigest()


def test_window_planes_match_the_pin():
    assert digest() == (80, DIGEST)


if __name__ == "__main__":
    print(*digest())
