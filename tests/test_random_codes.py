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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from eaqconv.cli import main

GOLDEN = Path(__file__).parent / "golden" / "random_codes.json"
SEED = 7
TIERS = ((4, 2, 8), (6, 3, 4))  # (n_max, deg_max, count)
TIER_L_STREAM = "eaqconv-bench/1/build_l/L"
TIER_L_SHA256 = "5631a22fb9e894fbd838e397da5f68c3ff1c3c02ae967bd1fa834a9234716792"


def build_json(h1: str, h2: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", "--h1", h1, "--h2", h2, "--format", "json"]) == 0
    return out.getvalue()


def _cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["codes"]


def test_build_matches_golden():
    for case in _cases():
        assert build_json(case["h1"], case["h2"]) == case["build"], case["id"]


def test_golden_covers_every_class():
    assert {json.loads(c["build"])["class"] for c in _cases()} == {"class1", "class2", "class2_special"}


def _random_pairs(rng, n_max, deg_max, count):
    """The H1/H2 text of `count` pairs from `random_pair` of scripts/random_code_sweep.py."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    from random_code_sweep import random_pair

    from eaqconv.polymat import format_matrix

    return [tuple(format_matrix(h).replace("\n", "; ") for h in random_pair(rng, n_max, deg_max)) for _ in range(count)]


def test_tier_l_builds_match_pinned_digest():
    digest = hashlib.sha256()
    for h1, h2 in _random_pairs(random.Random(TIER_L_STREAM), 8, 4, 24):
        digest.update(f"{h1}\n{h2}\n{build_json(h1, h2)}".encode())
    assert digest.hexdigest() == TIER_L_SHA256


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
