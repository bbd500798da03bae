#!/usr/bin/env python3
"""The benchmark's frozen corpus: seeded check-matrix pairs and their expected outcomes.

    python3 perfbench/corpus.py --seed 1    # rewrite perfbench/corpus/seed-1.json

Run from the root of the repository.  Each workload takes the first pairs of
its own seeded stream, slow and failing codes included:

- admissible pairs come from the tier generator `random_pair` in
  scripts/random_code_sweep.py;
- screen_s draws the same way but skips the admission filter, so most of its
  pairs are rejected with a typed ValidationError.

A corpus for any seed other than PRIMARY_SEED skips pairs that the primary
corpus holds, so the two are disjoint and the second one can serve as a
held-out check.  The expected outcomes are computed once, when the file is
written, by the code of that commit; the benchmark only reads them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_DIR = HERE / "corpus"
PRIMARY_SEED = 1
HELD_OUT_SEED = 2

TIERS = {"S": (4, 2), "M": (6, 3), "L": (8, 4)}  # tier -> (n_max, deg_max)

# workload -> (CLI arguments around --h1/--h2, [(tier, count, admissible only)])
WORKLOADS = {
    "verify_w64": (["verify", "--window", "64", "--format", "json"], [("S", 12, True), ("M", 12, True)]),
    "build_l": (["build", "--format", "json"], [("L", 16, True)]),
    "screen_s": (["params", "--format", "json"], [("S", 400, False)]),
}

# The CLI prints only the message of a ValidationError; each subclass words it its own way.
ERROR_KINDS = (
    ("is catastrophic", "CatastrophicInput"),
    ("is not delay-free", "NotDelayFree"),
    ("is rank deficient", "RankDeficient"),
)


def op_argv(workload: str, item: dict) -> list[str]:
    """The `eaqconv` command line of one op."""
    args = WORKLOADS[workload][0]
    return [args[0], "--h1", item["h1"], "--h2", item["h2"], *args[1:]]


def run_op(main, argv):
    """Call the CLI entry point in-process; return (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
    return rc, out.getvalue(), err.getvalue()


def error_kind(stderr: str) -> str:
    for phrase, kind in ERROR_KINDS:
        if phrase in stderr:
            return kind
    return "ValidationError"


def outcome(rc, stdout: str, stderr: str) -> dict:
    """The comparable outcome of one op: exit code plus parameters, failed checks or error kind."""
    if rc == 3:
        return {"exit": 3, "error": error_kind(stderr)}
    if rc not in (0, 4):
        return {"exit": rc}
    doc = json.loads(stdout)
    got = {"exit": rc, **{key: doc.get("params", doc)[key] for key in ("n", "k", "c", "class")}}
    if "checks" in doc:
        got["failed_checks"] = [c["name"] for c in doc["checks"] if not c["passed"]]
    return got


def check(item: dict, rc, stdout: str, stderr: str) -> tuple[str | None, bool]:
    """(how the op's output differs from its frozen expectation or None, whether the op failed).

    An op also fails when its verification report is not passed, even when
    that is its frozen outcome: a code that fails verification today counts.
    A typed rejection is a correct outcome, not a failure.
    """
    try:
        got = outcome(rc, stdout, stderr)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", True
    if got != item["expect"]:
        return f"got {got}, expected {item['expect']}", True
    return None, bool(got.get("failed_checks"))


def _raw_pair(rng, n_max, deg_max):
    """random_pair's draw without its admission filter (the same calls on rng)."""
    from eaqconv.poly import LaurentPoly, RationalPoly
    from eaqconv.polymat import PolyMatrix

    maxbits = 1 << (deg_max + 1)
    n = rng.randint(2, n_max)
    r1, r2 = rng.randint(1, n - 1), rng.randint(1, n - 1)

    def make(r):
        return PolyMatrix(
            [[RationalPoly(LaurentPoly(rng.randrange(0, maxbits), 0)) for _ in range(n)] for _ in range(r)]
        )

    return make(r1), make(r2)


def draw(seed: int) -> dict:
    """The corpus inputs for a seed: {workload: [{"tier", "h1", "h2"}, ...]}."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "scripts"))
    from eaqconv.polymat import format_matrix
    from random_code_sweep import random_pair

    exclude = set()
    if seed != PRIMARY_SEED:
        for items in draw(PRIMARY_SEED).values():
            exclude.update((it["h1"], it["h2"]) for it in items)
    text = lambda m: format_matrix(m).replace("\n", "; ")
    corpus = {}
    for workload, (_, streams) in WORKLOADS.items():
        items = corpus[workload] = []
        for tier, count, admissible in streams:
            rng = random.Random(f"eaqconv-bench/{seed}/{workload}/{tier}")
            gen = random_pair if admissible else _raw_pair
            while sum(it["tier"] == tier for it in items) < count:
                h1, h2 = gen(rng, *TIERS[tier])
                pair = (text(h1), text(h2))
                if pair not in exclude:
                    items.append({"tier": tier, "h1": pair[0], "h2": pair[1]})
    return corpus


def inputs(corpus: dict) -> dict:
    """The corpus without its expectations, as `draw` returns it."""
    return {w: [{k: v for k, v in it.items() if k != "expect"} for it in items] for w, items in corpus.items()}


def freeze(seed: int) -> dict:
    """Draw the corpus for a seed and record the outcome of every op today."""
    corpus = draw(seed)  # puts the package on the path
    from eaqconv.cli import main

    for workload, items in corpus.items():
        for item in items:
            rc, out, err = run_op(main, op_argv(workload, item))
            if rc not in (0, 3, 4):
                raise SystemExit(f"cannot freeze {workload} pair {item}: exit {rc}: {err.strip()}")
            item["expect"] = outcome(rc, out, err)
    return corpus


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def path_for(seed: int) -> Path:
    return CORPUS_DIR / f"seed-{seed}.json"


def load(seed: int) -> dict:
    return json.loads(path_for(seed).read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    args = parser.parse_args()
    CORPUS_DIR.mkdir(exist_ok=True)
    path_for(args.seed).write_text(dumps(freeze(args.seed)), encoding="utf-8")
    print(f"wrote {path_for(args.seed).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
