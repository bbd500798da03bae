#!/usr/bin/env python3
"""Rebuild the two bundled single-generator codes and print every intermediate state.

Run from the repository root:

    python3 scripts/reproduce_examples.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eaqconv.construct import build_code
from eaqconv.gates import format_gate
from eaqconv.polymat import format_rows, parse_matrix
from eaqconv.simulate import verify_code


def show_state(label, state):
    print(f"  -- {label}")
    for qcm, tag in ((state, ""), (state.info, "logical: ")):
        if qcm is not None:
            for zr, xr in zip(format_rows(qcm.zn, qcm.dens), format_rows(qcm.xn, qcm.dens)):
                print(f"     {tag}( {zr} | {xr} )")


def run(name, h_text):
    h = parse_matrix(h_text)
    print(f"=== {name}: H = [{h_text}] ===")
    spec = build_code(h, h, want_trace=True)
    print(f"[[{spec.n}, {spec.k}; {spec.c}]]  class={spec.class_tag}")
    print("standard-form reduction:")
    for step in spec.record.reduction.trace:
        show_state(step.label, step.state)
    print("encoding (bare stream -> code):")
    for step in spec.encode_trace:
        show_state(step.label, step.state)
    print("decoding:")
    for step in spec.decode_trace:
        show_state(step.label, step.state)
    print("encoder:")
    for g in spec.encoder:
        print("  " + format_gate(g))
    report = verify_code(spec)
    print(report.to_text())
    print()
    return report.passed


def main():
    ok = True
    ok &= run("finite-depth encoder and decoder", "1+D^2, 1+D+D^2")
    ok &= run("infinite-depth encoder, finite-depth decoder", "1, 1+D")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
