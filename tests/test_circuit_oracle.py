"""Differential test: `Circuit.apply` against the rational-row replay.

`tests/circuit_oracle.py` keeps the replay that holds every entry as a
normalised `RationalPoly`.  Seeded random check matrices go through both:
rows whose entries have no denominator, one shared denominator other than
1, or distinct denominators; an `info` matrix and receiver columns; circuits
of all six gate kinds with delays from -5 to 5, `full_frame` gates, and INF
in both orientations with delayed factors and pure units D^k.  The returned
`z`, `x` and `info`, and every state an observer sees, in order, must be
equal exactly.  Every encoder and decoder replay of the 12 pairs of
tests/golden/random_codes.json and of both worked examples is compared the
same way.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import circuit_oracle as oracle
from eaqconv.cli import EXAMPLES
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, parse_matrix

CASES = 400
ROW_KINDS = ("none", "shared", "distinct")


def _laurent(rng):
    low = rng.randint(-3, 3)
    return LaurentPoly(rng.randrange(1, 1 << 6), low)


def _denominator(rng):
    return LaurentPoly(rng.randrange(1, 16) << 1 | 1, rng.randint(-2, 2))  # not 1; its unit moves to the numerator


def _row(rng, cols, kind):
    """The Z and X entries of one row, of the given denominator kind."""
    shared = _denominator(rng)

    def entry():
        if rng.random() < 0.35:
            return RationalPoly.zero()
        if kind == "none" or rng.random() < 0.3:
            return RationalPoly(_laurent(rng))
        return RationalPoly(_laurent(rng), shared if kind == "shared" else _denominator(rng))

    return [entry() for _ in range(cols)], [entry() for _ in range(cols)]


def _matrix(rng, rows, cols, bob_cols):
    pairs = [_row(rng, cols, rng.choice(ROW_KINDS)) for _ in range(rows)]
    return QuantumCheckMatrix(
        PolyMatrix([z for z, _ in pairs], cols=cols), PolyMatrix([x for _, x in pairs], cols=cols), bob_cols=bob_cols
    )


def _inf_factor(rng):
    if rng.random() < 0.25:
        return LaurentPoly.term(rng.randint(-3, 3))  # a pure unit D^k
    return LaurentPoly(rng.randrange(1, 32) << 1 | 1, rng.randint(-3, 3))


def _gate(rng, cols, bob_cols):
    full = rng.random() < 0.25
    n = cols if full else cols - bob_cols
    kind = rng.choice(("CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF", "INF"))
    delay = rng.randint(-5, 5)
    if kind in ("CNOT", "CPHASE"):
        if n < 2:
            return Gate("INF", rng.randrange(n), f=_inf_factor(rng), full_frame=full)
        i, j = rng.sample(range(n), 2)
        return Gate(kind, i, j, delay, full_frame=full)
    i = rng.randrange(n)
    if kind == "INF":
        return Gate("INF", i, f=_inf_factor(rng), time_reversed=rng.random() < 0.5, full_frame=full)
    return Gate(kind, i, delay=delay if kind == "CPHASE_SELF" else 0, full_frame=full)


def _case(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    bob_cols = rng.randrange(cols)
    state = _matrix(rng, rows, cols, bob_cols)
    if rng.random() < 0.5:
        info = _matrix(rng, rng.randint(1, 3), cols, bob_cols)
        state = QuantumCheckMatrix(state.z, state.x, bob_cols, info=info)
    circuit = Circuit(tuple(_gate(rng, cols, bob_cols) for _ in range(rng.randint(1, 12))))
    return state, circuit


def assert_same_replay(circuit, state):
    """Both replays agree on the result and on every observed state, in order."""
    seen = []
    out = circuit.apply(state, lambda g, s: seen.append((g, s)))
    ref_seen = []
    ref = oracle.apply(circuit, state, lambda g, s: ref_seen.append((g, s)))
    assert (out.z, out.x, out.info) == (ref.z, ref.x, ref.info)
    assert out == ref
    assert len(seen) == len(ref_seen) == len(circuit)
    for step, (got, want) in enumerate(zip(seen, ref_seen)):
        assert got == want, f"after gate {step}"
    assert circuit.apply(state) == ref


def _features(state, circuit):
    """The covered shapes of one case, for the coverage check."""
    out = set()
    for m in (state, state.info) if state.info is not None else (state,):
        for z, x in zip(m.z.entries, m.x.entries):
            dens = {e.den for e in z + x if not e.is_zero()}
            out.add("no denominator" if dens <= {LaurentPoly.one()} else
                    "shared denominator" if len(dens - {LaurentPoly.one()}) == 1 else "distinct denominators")
    if state.info is not None:
        out.add("info")
    if state.bob_cols:
        out.add("receiver columns")
    for g in circuit:
        out.add(g.kind)
        if g.full_frame:
            out.add("full_frame")
        if g.kind == "INF":
            out.add("reversed INF" if g.time_reversed else "INF")
            if g.f.weight() == 1:
                out.add("unit INF")
            elif g.f.low:
                out.add("delayed INF")
    first = circuit.gates[0]
    if first.kind == "INF":
        a = first.i + (0 if first.full_frame else state.bob_cols)
        if any(not x[a] and z[a] for z, x in zip(state.z.entries, state.x.entries)):
            out.add("INF on x[a] = 0, z[a] != 0")
    return out


def test_random_replays_match_the_rational_rows():
    covered = set()
    for seed in range(CASES):
        state, circuit = _case(seed)
        assert_same_replay(circuit, state)
        covered |= _features(state, circuit)
    assert covered == {
        "no denominator", "shared denominator", "distinct denominators", "info", "receiver columns",
        "CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF", "full_frame",
        "reversed INF", "unit INF", "delayed INF", "INF on x[a] = 0, z[a] != 0",
    }


def _pairs():
    with open(Path(__file__).parent / "golden" / "random_codes.json", encoding="utf-8") as fh:
        codes = json.load(fh)["codes"]
    return [(c["id"], c["h1"], c["h2"]) for c in codes] + [(name, h1, h2) for name, (h1, h2) in sorted(EXAMPLES.items())]


@pytest.mark.parametrize("name, h1, h2", _pairs(), ids=[p[0] for p in _pairs()])
def test_code_replays_match_the_rational_rows(monkeypatch, name, h1, h2):
    """Every `Circuit.apply` a build makes: the encoder on the bare stream,
    the decoder on the received one."""
    calls = []
    apply = Circuit.apply

    def recording(circuit, qcm, observe=None):
        calls.append((circuit, qcm))
        return apply(circuit, qcm, observe)

    monkeypatch.setattr(Circuit, "apply", recording)
    build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
    monkeypatch.undo()
    assert len(calls) == 2
    for circuit, qcm in calls:
        assert_same_replay(circuit, qcm)
