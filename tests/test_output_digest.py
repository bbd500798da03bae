"""`scripts/output_digest.py` covers its 1762 keys, and its `--per-key` lines combine to its digest.

The script runs every op of both benchmark corpora in JSON and in text,
and `examples` in both, and prints one sha256 over all of it, so two
commits can be compared by one line, and by `diff` of their `--per-key`
output.  It runs here as a program, as CI runs it.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
KEYS = 1762


def test_per_key_lines_combine_to_the_digest():
    out = subprocess.run([sys.executable, str(SCRIPT), "--per-key"], capture_output=True, text=True, check=True).stdout
    *lines, last = out.splitlines()
    count, digest = re.fullmatch(r"(\d+) keys sha256 ([0-9a-f]{64})", last).groups()
    assert int(count) == len(lines) == KEYS
    assert all(re.fullmatch(r"[0-9a-f]{64} \[.*\]", line) for line in lines)
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == digest
