"""Golden of the worked-example trace printed by scripts/reproduce_examples.py.

The script prints every intermediate check matrix of the paper's two worked
examples: the standard-form reduction, the encoding and decoding replays,
the encoder and the verification report.  tests/golden/reproduce_examples.txt
freezes that output byte for byte.  Regenerate only when a change to these
displays is intended:

    python3 scripts/reproduce_examples.py > tests/golden/reproduce_examples.txt
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reproduce_examples.txt"


def test_reproduce_examples_matches_golden():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_examples.py")],
        cwd=ROOT, capture_output=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == GOLDEN.read_bytes()
