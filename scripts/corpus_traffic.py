#!/usr/bin/env python3
"""Print the lines of src/eaqconv/ that no benchmark op runs; exit 1 unless each is explained.

Run from the repository root:

    python3 scripts/corpus_traffic.py

A line tracer (`sys.settrace`) watches `eaqconv.cli.main` run, in-process,
every op of the benchmark corpora perfbench/corpus/seed-1.json and
seed-2.json, then `eaqconv examples --format json`.  For each module of
src/eaqconv/ it prints the executable lines that no op ran, as ranges under
the function that holds them, and last the number of unrun lines summed over
all modules.  The package is imported under the tracer, so
module-level code counts as run.  Standard library only.

scripts/unrun.txt explains functions, one a line: `module:qualified name`,
its class (see the file's legend) and the tests that reach its unrun lines,
split by ` | `.  An unrun line is explained when the function that holds it,
or a function it is nested in, has such a line; the script prints the
number of the others on each module's line and, summed, last, as
`unexplained: N`.  An entry whose function holds no unrun line is stale,
and each is printed as `stale: <entry>`.  Each test an entry names,
`tests/<file>.py::<name>` with an optional `[<param>]`, must name a `def`
of that file, found with `ast` (no test is run); each that does not is
printed as `missing test: <test>`.  The exit status is 1 when any line is
unexplained, any entry stale or any test missing, else 0.
"""

from __future__ import annotations

import ast
import functools
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eaqconv"
EXPLAINED = ROOT / "scripts" / "unrun.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py: the ops' command lines and the in-process runner)


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


@functools.cache
def test_defs(path: str) -> set[str]:
    """The names of the functions a test file defines, at any depth; none when the file does not exist."""
    file = ROOT / path
    tree = ast.parse(file.read_text(encoding="utf-8")) if file.is_file() else ast.Module(body=[], type_ignores=[])
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def missing_tests(named) -> list[str]:
    """The named tests, `tests/<file>.py::<name>[<param>]`, whose file defines no function <name>."""
    form = re.compile(r"(tests/[\w/]+\.py)::(\w+)(\[.*\])?")
    return [test for test in named if not ((match := form.fullmatch(test)) and match[2] in test_defs(match[1]))]


def main() -> int:
    ran, known = ran_lines(), explained()
    total = unexplained = 0
    used = set()  # the entries that explain an unrun line
    for path in sorted(SRC.glob("*.py")):
        owner = executable_lines(path)
        lines = sorted(owner)
        spans = []  # [owner, first, last] per maximal stretch of unrun lines with one owner
        for prev, line in zip([None] + lines, lines):
            if (str(path), line) in ran:
                continue
            if spans and spans[-1][2] == prev and spans[-1][0] == owner[line]:
                spans[-1][2] = line
            else:
                spans.append([owner[line], line, line])
        unrun = [line for line in lines if (str(path), line) not in ran]
        holders = [holder(path, owner[line]) for line in unrun]
        used.update(known.keys() & set(holders))
        left = sum(name not in known for name in holders)
        total += len(unrun)
        unexplained += left
        print(f"{path.name}: {len(unrun)} of {len(lines)} executable lines not run, {left} unexplained")
        for name, first, last in spans:
            print(f"  {name}  {first}" + (f"-{last}" if last != first else ""))
    print(f"total: {total} executable lines not run")
    print(f"unexplained: {unexplained}")
    stale = sorted(known.keys() - used)
    for name in stale:
        print(f"stale: {name}")
    missing = missing_tests(test for tests in known.values() for test in tests)
    for test in missing:
        print(f"missing test: {test}")
    return 1 if unexplained or stale or missing else 0


if __name__ == "__main__":
    sys.exit(main())
