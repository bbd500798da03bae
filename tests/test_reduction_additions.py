"""Differential test: the reduction's column and row additions against `LaurentPoly` arithmetic.

`construct._Reduction` applies each logged column addition to its Z and X
grids at once, and each mental row addition to both.  Seeded random grids
go through `z_coladd`, `x_coladd` and `row_add`, and every grid entry must
equal what the `LaurentPoly` operators give: a Z column addition of f from
src into dst sets Z col dst to `a + f * b` and X col src to
`a + f.reverse() * b` (an X column addition swaps the sides), and a row
addition sets both sides of row dst to `a + f * b`.  Every entry must be a
canonical `LaurentPoly`, and the string log must gain one string for a
column addition and none for a row addition, its gates one CNOT per
exponent of f.  The cases must include zero source entries, entries that cancel to
zero, negative exponents and multipliers of 8 terms or more.
"""

from __future__ import annotations

import random
from collections import Counter

from eaqconv.construct import _Reduction
from eaqconv.gates import Circuit, cnot
from eaqconv.poly import ZERO, LaurentPoly

CASES = 300
# operations with each feature, at least (the seeded cases have 2 to 3 times as many)
FLOORS = {"z addition": 200, "x addition": 200, "row addition": 200, "zero source entry": 400,
          "entry cancelled to zero": 50, "negative exponent": 600, "multiplier of 8+ terms": 300}


def _poly(rng, terms=None):
    """Zero about a third of the time unless terms is given, else a sum of distinct D^e, -6 <= e <= 12."""
    if terms is None and rng.random() < 0.35:
        return ZERO
    exps = rng.sample(range(-6, 13), terms or rng.randint(1, 5))
    return sum((LaurentPoly.term(e) for e in exps), ZERO)


def _reduction(rng):
    """A reduction whose Z and X grids are replaced by random ones."""
    rows, n = rng.randint(2, 5), rng.randint(2, 5)
    red = _Reduction([[ZERO] * n] * (rows - 1), [[ZERO] * n])
    red.z, red.x = ([[_poly(rng) for _ in range(n)] for _ in range(rows)] for _ in "zx")
    return red


def _expected(red, op, src, dst, f):
    """The grids after the operation, by the LaurentPoly operators."""
    z, x = [list(r) for r in red.z], [list(r) for r in red.x]
    if op == "row":
        for g in (z, x):
            g[dst] = [a + f * b for a, b in zip(g[dst], g[src])]
    else:
        fwd, back = (z, x) if op == "z" else (x, z)
        rev = f.reverse()
        for p, q in zip(fwd, back):
            p[dst], q[src] = p[dst] + f * p[src], q[src] + rev * q[dst]
    return z, x


def _multiplier(rng, pairs):
    """f = a / b for some (a, b) with a nonzero and b a monomial (a + f b cancels) when rng allows; else random."""
    cancel = [(a, b) for a, b in pairs if a.bits and b.bits == 1]
    if cancel and rng.random() < 0.4:
        a, b = rng.choice(cancel)
        return a.shift(-b.low)
    return _poly(rng, rng.choice((1, 2, 3, 8, 9, 12)))


def _canonical(grid):
    return all(type(e) is LaurentPoly and (e.bits & 1 if e.bits else e.low == 0) for row in grid for e in row)


def test_additions_match_the_laurent_operators():
    covered = Counter()
    for seed in range(CASES):
        rng = random.Random(f"additions/{seed}")
        red = _reduction(rng)
        for _ in range(rng.randint(1, 8)):
            op = rng.choice(("z", "x", "row"))
            if op == "row":
                src, dst = rng.sample(range(red.rows), 2)
                side = rng.choice((red.z, red.x))
                f = _multiplier(rng, list(zip(side[dst], side[src])))
                sources = red.z[src] + red.x[src]
            else:
                src, dst = rng.sample(range(red.n), 2)
                fwd, back = (red.z, red.x) if op == "z" else (red.x, red.z)
                f = _multiplier(rng, [(p[dst], p[src]) for p in fwd])
                sources = [p[src] for p in fwd] + [q[dst] for q in back]
            old = [e for row in red.z + red.x for e in row]
            want = _expected(red, op, src, dst, f)
            before = len(red.strings)
            if op == "row":
                red.row_add(src, dst, f)
            else:
                (red.z_coladd if op == "z" else red.x_coladd)(src, dst, f)
            assert (red.z, red.x) == want, (seed, op, src, dst, f)
            assert _canonical(red.z) and _canonical(red.x)
            cnots = [] if op == "row" else [cnot(dst, src, -e) if op == "z" else cnot(src, dst, e) for e in f.exponents()]
            assert len(red.strings) - before == (op != "row")
            assert list(Circuit.from_strings(red.strings[before:]).gates) == cnots
            new = [e for row in red.z + red.x for e in row]
            covered[f"{op} addition"] += 1
            if any(not s.bits for s in sources):
                covered["zero source entry"] += 1
            if any(a.bits and not b.bits for a, b in zip(old, new)):
                covered["entry cancelled to zero"] += 1
            if f.low < 0 or any(s.bits and s.low < 0 for s in sources):
                covered["negative exponent"] += 1
            if f.weight() >= 8:
                covered["multiplier of 8+ terms"] += 1
    assert {k: covered[k] >= n for k, n in FLOORS.items()} == dict.fromkeys(FLOORS, True), covered
