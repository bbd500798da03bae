"""Differential test: the window simulator against its per-bit reference.

`tests/window_oracle.py` keeps the frame-by-frame simulator.  Seeded random
check matrices (zero, Laurent and rational entries, receiver columns) and
circuits of every gate kind run through both; the placed rows, the rows
after the circuit (bits, labels and every track's interval and spill
flags), their `valid_mask` at two margin pairs, and the type and message of
any exception must agree exactly.  The encoders of both worked examples are
compared at W=32.
"""

from __future__ import annotations

import random

import pytest

import window_oracle as oracle
from eaqconv import simulate
from eaqconv.cli import EXAMPLES
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, parse_matrix

MARGINS = ((0, 0), (2, 3))
CASES = 500


def _laurent(rng):
    low = rng.randint(-3, 3)
    return LaurentPoly(rng.randrange(1, 1 << (4 - low)), low)  # exponents in -3..3


def _entry(rng):
    kind = rng.randrange(6)
    if kind < 2:
        return RationalPoly.zero()
    if kind < 5:
        return RationalPoly(_laurent(rng))
    return RationalPoly(_laurent(rng), LaurentPoly(rng.randrange(1, 8) << 1 | 1))


def _gate(rng, cols, bob_cols):
    full = rng.random() < 0.25
    n = cols if full else cols - bob_cols
    kind = rng.choice(("CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF"))
    delay = rng.randint(-5, 5)
    if kind in ("CNOT", "CPHASE"):
        if n < 2:
            return Gate("H", rng.randrange(n), full_frame=full)
        i, j = rng.sample(range(n), 2)
        return Gate(kind, i, j, delay, full_frame=full)
    i = rng.randrange(n)
    if kind == "INF":
        f = LaurentPoly(rng.randrange(1, 32) | 1, rng.randint(-2, 2))
        return Gate("INF", i, f=f, time_reversed=rng.random() < 0.5, full_frame=full)
    return Gate(kind, i, delay=delay if kind == "CPHASE_SELF" else 0, full_frame=full)


def _case(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 4)
    bob_cols = rng.randrange(cols)
    state = QuantumCheckMatrix(
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        bob_cols=bob_cols,
    )
    circuit = Circuit(tuple(_gate(rng, cols, bob_cols) for _ in range(rng.randint(0, 12))))
    return state, circuit, rng.randint(1, 20), rng.randint(0, 6)


def _rows(win):
    return [
        (r.z, r.x, r.source, r.shift, r.label, r.truncated,
         [(t.vf, t.vu, t.head_lost, t.tail_lost) for t in r.tracks])
        for r in win.rows
    ]


def _outcome(expand, run_circuit, valid_mask, state, circuit, window, scratch):
    try:
        win = expand(state, window, scratch)
        out = run_circuit(win, circuit)
    except Exception as exc:  # the exception itself is part of the outcome
        return type(exc), str(exc)
    masks = [valid_mask(r, out, head, tail) for r in out.rows for head, tail in MARGINS]
    return _rows(win), _rows(out), masks


def _both(state, circuit, window, scratch):
    new = _outcome(simulate.expand, simulate.run_circuit, simulate.WindowRow.valid_mask,
                   state, circuit, window, scratch)
    old = _outcome(oracle.expand, oracle.run_circuit, oracle.valid_mask, state, circuit, window, scratch)
    return new, old


def test_random_windows_match_the_per_bit_simulator():
    for seed in range(CASES):
        new, old = _both(*_case(seed))
        assert new == old, f"seed {seed}"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_worked_example_encoders_match_the_per_bit_simulator(name):
    h1, h2 = (parse_matrix(text) for text in EXAMPLES[name])
    spec = build_code(h1, h2)
    new, old = _both(spec.bare, spec.encoder, 32, simulate.default_scratch(spec.encoder))
    assert isinstance(new[0], list) and new[1]
    assert new == old
