#!/usr/bin/env python3
"""Run the tests that scripts/unrun.txt names; exit 1 unless they reach the unrun lines they explain.

Run from the repository root:

    python3 scripts/unrun_reach.py

scripts/corpus_traffic.py finds the lines of src/eaqconv/ that no benchmark
op runs, and checks that each function holding one has an entry in
scripts/unrun.txt that names tests, but only that each named test is a
`def`.  This script runs the named tests in-process through `pytest.main`,
with a plugin that line-traces src/eaqconv/ during each test's call.  A
name with no `[<param>]` stands for every parametrization of its test.  An
entry is reached when its tests, together, run every unrun line of its
function and of the functions nested in it.  Each entry that is not is
printed as `not reached: <entry> <lines>`.

EXCEPTIONS names the lines no in-process test can reach, each with its
reason; they are printed as `excused: <entry> <lines>`, and an exception
that excuses no unrun line as `stale exception: <entry>`.  The exit status
is 1 when an entry is not reached, an exception is stale, or a named test
fails or is not found; else 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus_traffic import ROOT, SRC, executable_lines, explained, holder, ran_lines, tracer  # noqa: E402

# entry: (the text of its excused lines, or None for all of them; why no in-process test reaches them)
EXCEPTIONS = {
    "cli.py:<module>": (None, "runs only when the module is the program; its test runs it in a subprocess"),
    "simulate.py:verify_code": (
        "window too small to compare any generator copy",
        "the zero-copies detail: no input found reaches it, and no test forces it (scripts/unrun.txt)",
    ),
}


class Reach:
    """A pytest plugin: {node id: the (file, line)s of src/eaqconv/ that the test's call ran}."""

    def __init__(self):
        self.ran = defaultdict(set)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        previous = sys.gettrace()
        sys.settrace(tracer(self.ran[item.nodeid]))
        try:
            yield
        finally:
            sys.settrace(previous)


def unrun_by_entry(ran) -> dict[str, list[tuple[str, int]]]:
    """{`module:qualified name`: the (file, line)s of that function, and of those nested in it, that ran omits}."""
    out = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for line, name in sorted(executable_lines(path).items()):
            if (str(path), line) not in ran:
                out[holder(path, name)].append((str(path), line))
    return out


def excused(entry: str, file: str, line: int) -> bool:
    """Whether EXCEPTIONS excuses the line of the entry's function."""
    if entry not in EXCEPTIONS:
        return False
    text = EXCEPTIONS[entry][0]
    return text is None or text in Path(file).read_text(encoding="utf-8").splitlines()[line - 1]


def main() -> int:
    unrun, known = unrun_by_entry(ran_lines()), explained()
    named = sorted({test for tests in known.values() for test in tests})
    reach = Reach()
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / test) for test in named)], plugins=[reach])
    failed = 0
    used = set()
    for entry, tests in known.items():
        hit = set().union(*(lines for node, lines in reach.ran.items() for t in tests if node == t or node.startswith(t + "[")))
        missed = [(file, line) for file, line in unrun[entry] if (file, line) not in hit]
        if spared := [line for file, line in missed if excused(entry, file, line)]:
            used.add(entry)
            print(f"excused: {entry} {', '.join(map(str, spared))} ({EXCEPTIONS[entry][1]})")
        if rest := [line for file, line in missed if not excused(entry, file, line)]:
            failed += 1
            print(f"not reached: {entry} {', '.join(map(str, rest))}")
    print(f"reached: {len(known) - failed} of {len(known)} entries")
    for entry in sorted(EXCEPTIONS.keys() - used):
        print(f"stale exception: {entry}")
    return 1 if failed or EXCEPTIONS.keys() - used or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
