#!/usr/bin/env python3
"""Print one sha256 over all that the command line prints for every benchmark op, to compare two commits.

Run from the repository root:

    python3 scripts/output_digest.py             # the key count and the digest
    python3 scripts/output_digest.py --per-key   # one line per key before them, to diff two commits

A key is one `eaqconv` command line: every op of the benchmark corpora
perfbench/corpus/seed-1.json and seed-2.json, once with `--format json` and
once with `--format text`, then `examples` in both formats (1762 keys).
Each runs in-process through `eaqconv.cli.main`, as the benchmark runs it.
A key's line is the sha256 of the JSON list [argv, exit code, stdout,
stderr], a space, and the argv as JSON.  The digest is the sha256 of every
key's line, each ending in a newline, so the `--per-key` lines combine to
it.  The last line is `<keys> keys sha256 <digest>`.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py: the ops' command lines and the in-process runner)


def keys() -> list[list[str]]:
    """Every op of both corpora in JSON and in text, then `examples` in both."""
    out = []
    for seed in (corpus.PRIMARY_SEED, corpus.HELD_OUT_SEED):
        with open(corpus.CORPUS_DIR / f"seed-{seed}.json", encoding="utf-8") as fh:
            workloads = json.load(fh)
        for workload, items in workloads.items():
            for item in items:
                argv = corpus.op_argv(workload, item)
                at = argv.index("--format") + 1
                out += [argv[:at] + [fmt] + argv[at + 1:] for fmt in ("json", "text")]
    return out + [["examples", "--format", fmt] for fmt in ("json", "text")]


def key_lines() -> list[str]:
    """One line per key: the sha256 of what it printed and how it exited, then its argv."""
    from eaqconv.cli import main

    lines = []
    for argv in keys():
        rc, stdout, stderr = corpus.run_op(main, argv)
        digest = hashlib.sha256(json.dumps([argv, rc, stdout, stderr]).encode()).hexdigest()
        lines.append(f"{digest} {json.dumps(argv)}")
    return lines


def combined(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-key", action="store_true", help="print each key's line before the digest")
    args = parser.parse_args(argv)
    lines = key_lines()
    if args.per_key:
        print("\n".join(lines))
    print(f"{len(lines)} keys sha256 {combined(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
