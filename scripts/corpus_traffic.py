#!/usr/bin/env python3
"""Print the lines of src/eaqconv/ that no benchmark op runs; exit 1 unless each is explained and reached.

Run from the repository root (it needs pytest):

    python3 scripts/corpus_traffic.py

A line tracer (`sys.settrace`) watches `eaqconv.cli.main` run, in-process,
every op of the benchmark corpora perfbench/corpus/seed-1.json and
seed-2.json, then `eaqconv examples --format json`.  For each module of
src/eaqconv/ it prints the executable lines that no op ran, as ranges under
the function that holds them, and last the number of unrun lines summed over
all modules.  The package is imported under the tracer, so
module-level code counts as run.

scripts/unrun.txt explains functions, one a line: `module:qualified name`,
its class (see the file's legend) and the tests that reach its unrun lines,
split by ` | `.  An unrun line is explained when the function that holds it,
or a function it is nested in, has such a line.  The script then runs the
named tests in-process through `pytest.main`, line-tracing src/eaqconv/
during each test's call; a name with no `[<param>]` stands for every
parametrization of its test.  Last it prints its verdicts:

- `unexplained: N`, the unrun lines no entry explains;
- `stale: <entry>` for each entry whose function holds no unrun line;
- `excused: <entry> <lines> (<why>)` for the lines EXCEPTIONS excuses;
- `not reached: <entry> <lines>` for the unrun lines of an entry that its
  tests, together, did not run, then `reached: N of M entries`;
- `stale exception: <entry>` for each exception that excuses no line;
- `missing test: <test>` for each named test that matches no test that ran.

The exit status is 1 when a line is unexplained, an entry is stale or not
reached, an exception is stale, or a named test is missing or fails; else 0.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eaqconv"
EXPLAINED = ROOT / "scripts" / "unrun.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py: the ops' command lines and the in-process runner)

# entry: (text found in each line it excuses, "" for all its lines; why no in-process test reaches them)
EXCEPTIONS = {
    "cli.py:<module>": ("", "runs only when the module is the program; its test runs it in a subprocess"),
    "simulate.py:verify_code": (
        "window too small to compare any generator copy",
        "the zero-copies detail: no input found reaches it, and no test forces it (scripts/unrun.txt)",
    ),
}


def executable_lines(path: Path) -> dict[int, str]:
    """{line: qualified name of the innermost code object holding it} over the module's code objects."""
    owner = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:  # a code object is visited after its parent, so the innermost owner wins
        code = todo.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's own entry instruction
                owner[line] = name
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def tracer(ran: set):
    """A `sys.settrace` function that adds (file, line) to ran for each line of src/eaqconv/ it sees run."""
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return calls


def holder(path: Path, name: str) -> str:
    """The `module:qualified name` that explains a line whose innermost code object is name: its outermost function."""
    return f"{path.name}:{name.split('.<locals>.')[0]}"


def ran_lines() -> set[tuple[str, int]]:
    """(file, line) of every line of src/eaqconv/ that the ops ran."""
    ran = set()
    sys.settrace(tracer(ran))
    try:
        import eaqconv.cli

        main = eaqconv.cli.main
        for seed in (1, 2):
            items = json.loads((ROOT / "perfbench" / "corpus" / f"seed-{seed}.json").read_text(encoding="utf-8"))
            for workload in corpus.WORKLOADS:
                for item in items[workload]:
                    corpus.run_op(main, corpus.op_argv(workload, item))
        corpus.run_op(main, ["examples", "--format", "json"])
    finally:
        sys.settrace(None)
    return ran


def explained() -> dict[str, list[str]]:
    """{`module:qualified name`: the tests named for it} over every function that scripts/unrun.txt explains."""
    lines = EXPLAINED.read_text(encoding="utf-8").splitlines()
    entries = (line.split(" | ") for line in lines if line and not line.startswith("#"))
    return {name: re.split(r", (?=tests/)", tests) for name, _, tests in entries}


def survey(ran, known) -> dict[str, dict[tuple[str, int], str]]:
    """Print each module's unrun lines under the functions holding them, then their total; return
    {`module:qualified name`: {(file, line): its text}} of the unrun lines of each outermost function."""
    unrun, total = defaultdict(dict), 0
    for path in sorted(SRC.glob("*.py")):
        owner, text = executable_lines(path), path.read_text(encoding="utf-8").splitlines()
        lines = sorted(owner)
        spans = []  # [owner, first, last] per maximal stretch of unrun lines with one owner
        holders = []  # the outermost function of each unrun line
        for prev, line in zip([None] + lines, lines):
            if (str(path), line) in ran:
                continue
            holders.append(holder(path, owner[line]))
            unrun[holders[-1]][str(path), line] = text[line - 1]
            if spans and spans[-1][2] == prev and spans[-1][0] == owner[line]:
                spans[-1][2] = line
            else:
                spans.append([owner[line], line, line])
        total += len(holders)
        left = sum(name not in known for name in holders)
        print(f"{path.name}: {len(holders)} of {len(lines)} executable lines not run, {left} unexplained")
        for name, first, last in spans:
            print(f"  {name}  {first}" + (f"-{last}" if last != first else ""))
    print(f"total: {total} executable lines not run")
    return unrun


def runs(node: str, test: str) -> bool:
    """Whether the pytest node id is the named test or one of its parametrizations."""
    return node == test or node.startswith(test + "[")


class Reach:
    """A pytest plugin that runs only the named tests: {node id: the (file, line)s of src/eaqconv/ its call ran}."""

    def __init__(self, named):
        self.named, self.ran = named, defaultdict(set)

    def pytest_collection_modifyitems(self, items):
        items[:] = [item for item in items if any(runs(item.nodeid, test) for test in self.named)]

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        previous = sys.gettrace()
        sys.settrace(tracer(self.ran[item.nodeid]))
        try:
            yield
        finally:
            sys.settrace(previous)


def verdicts(unrun, known, reached, exceptions) -> tuple[list[str], bool]:
    """The verdict lines, and whether they all pass.

    unrun is `survey`'s result, known `explained()`'s, reached {node id: the
    (file, line)s its call ran} and exceptions has the form of EXCEPTIONS.
    """
    unexplained = sum(len(lines) for entry, lines in unrun.items() if entry not in known)
    stale = sorted(known.keys() - unrun.keys())
    out = [f"unexplained: {unexplained}", *(f"stale: {entry}" for entry in stale)]
    failed, used = 0, set()
    for entry, tests in known.items():
        hit = set().union(*(lines for node, lines in reached.items() if any(runs(node, t) for t in tests)))
        spared, rest = [], []
        for (file, line), text in unrun.get(entry, {}).items():
            if (file, line) not in hit:
                (spared if entry in exceptions and exceptions[entry][0] in text else rest).append(str(line))
        if spared:
            used.add(entry)
            out.append(f"excused: {entry} {', '.join(spared)} ({exceptions[entry][1]})")
        if rest:
            failed += 1
            out.append(f"not reached: {entry} {', '.join(rest)}")
    out.append(f"reached: {len(known) - failed} of {len(known)} entries")
    unused = sorted(exceptions.keys() - used)
    out += [f"stale exception: {entry}" for entry in unused]
    named = sorted({test for tests in known.values() for test in tests})
    missing = [test for test in named if not any(runs(node, test) for node in reached)]
    out += [f"missing test: {test}" for test in missing]
    return out, not (unexplained or stale or failed or unused or missing)


def main() -> int:
    known = explained()
    unrun = survey(ran_lines(), known)
    reach = Reach({test for tests in known.values() for test in tests})
    files = sorted({str(ROOT / test.split("::")[0]) for test in reach.named})
    status = pytest.main(["-q", "-p", "no:cacheprovider", *files], plugins=[reach])
    out, passed = verdicts(unrun, known, reach.ran, EXCEPTIONS)
    print(*out, sep="\n")
    return 0 if passed and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
