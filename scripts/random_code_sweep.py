#!/usr/bin/env python3
"""Sweep random check-matrix pairs, build the codes, and verify each one.

Each pair is also classified on its own, as `eaqconv params` does; a code
whose (n, k, c, s, class) from the classification differs from the built
code's counts as a failure too, and so does an admitted pair on which the
build, the verification or the classification raises a typed error.

Usage:

    python3 scripts/random_code_sweep.py [count] [--n-max N] [--deg-max d]
                                         [--window W] [--seed s]

Prints one line per code and a class/rate tally at the end; exits nonzero if
any verification or parameter comparison fails.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eaqconv.construct import build_code, decompose_general, validate_inputs
from eaqconv.errors import EaqconvError, ValidationError
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, format_matrix
from eaqconv.simulate import verify_code


def random_pair(rng, n_max, deg_max):
    maxbits = 1 << (deg_max + 1)
    while True:
        n = rng.randint(2, n_max)
        r1, r2 = rng.randint(1, n - 1), rng.randint(1, n - 1)
        make = lambda r: PolyMatrix(
            [[RationalPoly(LaurentPoly(rng.randrange(0, maxbits), 0)) for _ in range(n)] for _ in range(r)]
        )
        h1, h2 = make(r1), make(r2)
        try:
            validate_inputs(h1, h2)
        except ValidationError:
            continue
        return h1, h2


def print_pair(h1, h2):
    print("     H1:", format_matrix(h1).replace("\n", " ; "))
    print("     H2:", format_matrix(h2).replace("\n", " ; "))


def params(code):
    """(n, k, c, s, class) of a built code or of a classification record."""
    return code.n, code.k, code.c, code.s, code.class_tag


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("count", type=int, nargs="?", default=25)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--deg-max", type=int, default=2)
    parser.add_argument("--window", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally = Counter()
    failures = 0
    t0 = time.time()
    for i in range(args.count):
        h1, h2 = random_pair(rng, args.n_max, args.deg_max)
        try:
            spec = build_code(h1, h2)
            report = verify_code(spec, window=args.window)
            record = decompose_general(h1, h2)
        except EaqconvError as exc:  # admitted input must give a verified code
            failures += 1
            print(f"{i + 1:3d}. {type(exc).__name__}: {exc}  FAIL")
            print_pair(h1, h2)
            continue
        same_params = params(record) == params(spec)
        tally[spec.class_tag] += 1
        status = "ok" if report.passed and same_params else "FAIL"
        print(
            f"{i + 1:3d}. [[{spec.n},{spec.k};{spec.c}]] {spec.class_tag:<15} "
            f"encoder {len(spec.encoder):3d} gates  catalytic {str(spec.rates.catalytic):>5}  {status}"
        )
        if status == "FAIL":
            failures += 1
            print_pair(h1, h2)
            if not same_params:
                print(f"     decompose_general gives (n, k, c, s, class) = {params(record)}, the build {params(spec)}")
            print("     " + report.to_text().replace("\n", "\n     "))
    print(f"\nclasses: {dict(tally)}  failures: {failures}  ({time.time() - t0:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
