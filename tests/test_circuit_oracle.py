"""Differential test: `Circuit.apply` against the rational-row replay.

`tests/circuit_oracle.py` keeps the replay that holds every entry as a
normalised `RationalPoly`.  Seeded random check matrices go through both:
rows whose entries have no denominator, one shared denominator other than
1, or distinct denominators; an `info` matrix and receiver columns; circuits
of all six gate kinds with delays from -5 to 5, `full_frame` gates, and INF
in both orientations with delayed factors and pure units D^k.  The returned
`z`, `x` and `info`, and the state after each gate, stepped through
`apply_gate` one gate at a time, must be equal exactly.  A second seeded
family stresses the storage layout: 0 to 6 rows (a zero-row matrix
included), all-zero columns, up to 60 gates with delays up to +-400 and INF
gates between the finite ones, so entries grow far past any fixed padding.
Every circuit that a build of the 12 pairs of tests/golden/random_codes.json
or of a worked example replays (the encoder, and the stage and tail gates)
is compared the same way.  A third family is mostly runs of 2 to 12 gates of
one finite kind on the same qubits and frame flag, with delays that repeat
and cancel in pairs, broken by H, by INF or by a change of `full_frame`
alone; its wide-delay cases hold the circuit's replay to the states
stepped through `apply_gate`, the rest to the rational rows.  A fourth
family moves X entries from column to column, each move shifting them up,
so that the planes are laid out again above their old range.  Every time
the planes of these four families are laid out again, the rows must stay
as they were and each plane's hull must be the exponent range of its
entries; the re-layouts must include ones that move the offset down, ones
that move it up, and ones after an INF step.  The steps of `Circuit._runs`,
(first gate, delays), must be the maximal runs of the third family's
circuits and of every golden pair's and worked example's encoder and
decoder: their gates concatenate to the circuit, each step's delays are
its gates', and no two adjacent finite-depth steps could merge.
"""

from __future__ import annotations

import random

import pytest

import circuit_oracle as oracle
from eaqconv import gates
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix, apply_gate, format_gate
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, parse_matrix
from support import golden_pairs

CASES = 400
STRESS_CASES = 300
RUN_CASES = 200
DRIFT_CASES = 60
ROW_KINDS = ("none", "shared", "distinct")
# re-layouts of the four families' replays with each feature, at least
RELAYOUT_FLOORS = {"offset down": 20, "offset up": 150, "after an INF step": 50}


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


def _matrix(rng, rows, cols, bob_cols, zero_cols=()):
    pairs = [_row(rng, cols, rng.choice(ROW_KINDS)) for _ in range(rows)]
    for z, x in pairs:
        for c in zero_cols:
            z[c] = x[c] = RationalPoly.zero()
    return QuantumCheckMatrix(
        PolyMatrix([z for z, _ in pairs], cols=cols), PolyMatrix([x for _, x in pairs], cols=cols), bob_cols=bob_cols
    )


def _inf_factor(rng):
    if rng.random() < 0.25:
        return LaurentPoly.term(rng.randint(-3, 3))  # a pure unit D^k
    return LaurentPoly(rng.randrange(1, 32) << 1 | 1, rng.randint(-3, 3))


def _gate(rng, cols, bob_cols, max_delay=5):
    full = rng.random() < 0.25
    n = cols if full else cols - bob_cols
    kind = rng.choice(("CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF", "INF"))
    delay = rng.randint(-max_delay, max_delay)
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


def _stress_case(seed):
    """Long delays, long circuits, zero rows and all-zero columns."""
    rng = random.Random(f"stress/{seed}")
    rows, cols = rng.randint(0, 6), rng.randint(1, 4)
    bob_cols = rng.randrange(cols)
    zero_cols = [c for c in range(cols) if rng.random() < 0.2]
    state = _matrix(rng, rows, cols, bob_cols, zero_cols)
    if rng.random() < 0.5:
        info = _matrix(rng, rng.randint(0, 3), cols, bob_cols, zero_cols)
        state = QuantumCheckMatrix(state.z, state.x, bob_cols, info=info)
    max_delay = rng.choice((5, 70, 400))
    gates = []
    for _ in range(rng.randint(1, 60)):
        g = _gate(rng, cols, bob_cols, max_delay)
        while g.kind == "INF" and rng.random() < 0.7:  # keep INF between runs of finite gates
            g = _gate(rng, cols, bob_cols, max_delay)
        gates.append(g)
    return state, Circuit(tuple(gates))


def stepped(circuit, state):
    """The state after each gate of circuit, each gate run by `apply_gate` on the state before it."""
    out = []
    for g in circuit:
        state = apply_gate(state, g)
        out.append(state)
    return out


def assert_same_replay(circuit, state):
    """The circuit's replay agrees with the reference on the result, and so does each state stepped gate by gate.

    Returns the state before each gate, then the final state.
    """
    out = circuit.apply(state)
    ref_seen = []
    ref = oracle.apply(circuit, state, lambda g, s: ref_seen.append(s))
    assert (out.z, out.x, out.info) == (ref.z, ref.x, ref.info)
    assert out == ref
    assert QuantumCheckMatrix(out.z, out.x, out.bob_cols, out.row_labels, out.info) == out  # rows in lowest terms
    seen = stepped(circuit, state)
    assert len(seen) == len(ref_seen) == len(circuit)
    for step, (got, want) in enumerate(zip(seen, ref_seen)):
        assert got == want, f"after gate {step}"
    return [state] + ref_seen


def _features(states, circuit):
    """The covered shapes of one case, for the coverage check."""
    state = states[0]
    out = set()
    if state.rows == 0:
        out.add("zero rows")
    if any(not any(r[c] for r in state.z.entries + state.x.entries) for c in range(state.cols)):
        out.add("all-zero column")
    for m in (state, state.info) if state.info is not None else (state,):
        for z, x in zip(m.z.entries, m.x.entries):
            dens = {e.den for e in z + x if not e.is_zero()}
            out.add("no denominator" if dens <= {LaurentPoly.one()} else
                    "shared denominator" if len(dens - {LaurentPoly.one()}) == 1 else "distinct denominators")
    if state.info is not None:
        out.add("info")
    if state.bob_cols:
        out.add("receiver columns")
    for g, before in zip(circuit, states):
        out.add(g.kind)
        if g.full_frame:
            out.add("full_frame")
        if abs(g.delay) > 64:
            out.add("delay beyond 64")
        if g.kind == "INF":
            out.add("reversed INF" if g.time_reversed else "INF")
            if g.f.weight() == 1:
                out.add("unit INF")
            elif g.f.low:
                out.add("delayed INF")
            a = g.i + (0 if g.full_frame else state.bob_cols)
            rows = list(zip(before.z.entries, before.x.entries))
            if any(not x[a] and z[a] for z, x in rows):
                out.add("INF on x[a] = 0, z[a] != 0")
            if any(not x[a] and not z[a] for z, x in rows) and any(x[a] or z[a] for z, x in rows):
                out.add("INF on a column zero in some rows")
            if g is not circuit.gates[0] and g is not circuit.gates[-1]:
                out.add("INF between gates")
    if len(circuit) >= 40:
        out.add("40+ gates")
    return out


def test_random_replays_match_the_rational_rows():
    covered = set()
    for seed in range(CASES):
        state, circuit = _case(seed)
        covered |= _features(assert_same_replay(circuit, state), circuit)
    assert covered == {
        "no denominator", "shared denominator", "distinct denominators", "info", "receiver columns",
        "CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF", "full_frame", "INF between gates",
        "reversed INF", "unit INF", "delayed INF", "INF on x[a] = 0, z[a] != 0", "INF on a column zero in some rows",
        "all-zero column",
    }
    covered = set()
    for seed in range(STRESS_CASES):
        state, circuit = _stress_case(seed)
        covered |= _features(assert_same_replay(circuit, state), circuit)
    assert covered >= {
        "zero rows", "all-zero column", "delay beyond 64", "40+ gates", "INF between gates",
        "INF on a column zero in some rows", "info", "full_frame", "CNOT", "CPHASE", "CPHASE_SELF", "H", "P",
    }


def _run_case(seed):
    """Runs of same-qubit finite gates, broken by H, INF or a change of full_frame alone."""
    rng = random.Random(f"runs/{seed}")
    rows, cols = rng.randint(1, 5), rng.randint(2, 4)
    bob_cols = rng.randrange(cols - 1)
    zero_cols = [c for c in range(cols) if rng.random() < 0.3]
    state = _matrix(rng, rows, cols, bob_cols, zero_cols)
    if rng.random() < 0.4:
        info = _matrix(rng, rng.randint(1, 3), cols, bob_cols, zero_cols)
        state = QuantumCheckMatrix(state.z, state.x, bob_cols, info=info)
    max_delay = rng.choice((5, 40, 400))
    seq, key = [], None
    for _ in range(rng.randint(1, 6)):
        if key is None:
            full = rng.random() < 0.3
            n = cols if full else cols - bob_cols
            kind = rng.choice(("CNOT", "P", "CPHASE", "CPHASE_SELF") if n >= 2 else ("P", "CPHASE_SELF"))
            i, j = rng.sample(range(n), 2) if kind in ("CNOT", "CPHASE") else (rng.randrange(n), None)
            key = kind, i, j, full
        kind, i, j, full = key
        delays = [0 if kind == "P" else rng.randint(-max_delay, max_delay) for _ in range(rng.randint(2, 12))]
        if rng.random() < 0.5:  # repeated delays, which cancel in pairs
            delays += rng.choices(delays, k=rng.randint(1, len(delays)))
            rng.shuffle(delays)
        run = [Gate(kind, i, j, d, full_frame=full) for d in delays]
        seq += run
        key, brk = None, rng.random()
        if brk < 0.3 and max(i, j or 0) < cols - bob_cols:
            key = kind, i, j, not full  # the next run differs in full_frame alone
        elif brk < 0.45:
            seq.append(Gate("H", rng.randrange(cols - bob_cols)))
            seq += rng.sample(run, len(run))  # the same run again undoes it
        elif brk < 0.7:
            seq.append(Gate("H", rng.randrange(cols - bob_cols)))
        elif brk < 0.85:
            seq.append(Gate("INF", rng.randrange(cols - bob_cols), f=_inf_factor(rng), time_reversed=rng.random() < 0.5))
    return state, Circuit(tuple(seq)), max_delay


def _stepped_with_relayouts(circuit, state, monkeypatch):
    """The states stepped through `apply_gate` gate by gate, and whether each laid the planes out again."""
    seen, relaid = [], [False]
    run = gates._Planes.run

    def spy(planes, *step):
        before = planes.stride, planes.offset
        run(planes, *step)
        relaid[0] |= (planes.stride, planes.offset) != before

    monkeypatch.setattr(gates._Planes, "run", spy)
    for g in circuit:
        state = apply_gate(state, g)
        seen.append((state, relaid[0]))
        relaid[0] = False
    monkeypatch.undo()
    assert len(seen) == len(circuit)
    return [s for s, _ in seen], [r for _, r in seen]


def _run_features(circuit, states, relaid):
    """The run shapes one case covers, for the coverage check."""
    out = set()
    steps = [g.kind not in ("H", "INF") and (g.kind, g.i, g.j, g.full_frame) for g in circuit]
    start = 0
    for t in range(1, len(steps) + 1):
        if t < len(steps) and steps[t] and steps[t] == steps[t - 1]:
            if relaid[t]:
                out.add("re-layout inside a run")
            continue
        if steps[start] and t - start >= 2:
            run = circuit.gates[start:t]
            out |= {"run of 2+", f"{run[0].kind} run"}
            if len({g.delay for g in run}) < len(run):
                out.add("cancelling delays")
            if t < len(steps) and steps[t] and steps[t][:3] == steps[start][:3]:
                out.add("run ended by full_frame")
            elif t < len(steps):
                out.add(f"run ended by {circuit.gates[t].kind}" if not steps[t] else "run ended by another run")
        start = t
    zero = [{(s, c) for s, side in enumerate((m.zn, m.xn)) for c in range(m.cols) if not any(r[c] for r in side)}
            for m in states]
    if any(p in zero[t] and p not in zero[t - 1] for t in range(1, len(zero)) for p in zero[0]):
        out.add("plane back to zero")
    return out


def test_runs_of_same_qubit_gates_match_the_per_gate_replays(monkeypatch):
    covered = set()
    for seed in range(RUN_CASES):
        state, circuit, max_delay = _run_case(seed)
        states, relaid = _stepped_with_relayouts(circuit, state, monkeypatch)
        if max_delay <= 40:
            assert_same_replay(circuit, state)
        assert circuit.apply(state) == states[-1]
        covered |= _run_features(circuit, states, relaid)
    assert covered == {
        "run of 2+", "cancelling delays", "run ended by full_frame", "re-layout inside a run",
        "run ended by H", "run ended by INF", "run ended by another run", "plane back to zero",
        "CNOT run", "P run", "CPHASE run", "CPHASE_SELF run",
    }


def _assert_maximal_runs(circuit):
    """`circuit._runs` is (first gate, delays) per maximal run of same-kind, same-qubit finite-depth gates.

    A step's gate is that of its first string, whose own delay is the term it
    was made for, so the step's first gate is it with the step's first delay.
    """
    at, keys = 0, []
    for g, delays in circuit._runs:
        step = circuit.gates[at:at + len(delays)]
        at += len(delays)
        assert step and step[0] == g._replace(delay=delays[0])
        assert list(delays) == [s.delay for s in step]
        if g.kind in ("H", "INF"):
            assert len(step) == 1
        else:
            assert g.kind in gates._MOVES
            assert {(s.kind, s.i, s.j, s.full_frame) for s in step} == {(g.kind, g.i, g.j, g.full_frame)}
        keys.append(g.kind in gates._MOVES and (g.kind, g.i, g.j, g.full_frame))
    assert at == len(circuit.gates)
    assert not any(k and k == nxt for k, nxt in zip(keys, keys[1:])), "two adjacent steps could merge"


def test_steps_are_maximal_runs():
    """The steps of the seeded run-heavy circuits and of every golden pair's and worked example's encoder and decoder."""
    circuits = [_run_case(seed)[1] for seed in range(RUN_CASES)]
    for _, h1, h2 in golden_pairs():
        spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
        circuits += [spec.encoder, spec.decoder]
    multi = 0
    for circuit in circuits:
        _assert_maximal_runs(circuit)
        multi += sum(len(delays) > 1 for _, delays in circuit._runs)
    assert multi > RUN_CASES


def _drift_case(seed):
    """X entries in one column that CNOT pairs move to another, each move shifting them up by its delay.

    With X col b zero, CNOT a->b by d then b->a by -d sets X col b to X col a
    times D^d and X col a to zero.  There are no Z entries to drift down, so
    every exponent rises until a move needs the planes laid out again above
    the old range.
    """
    rng = random.Random(f"drift/{seed}")
    rows, cols = rng.randint(1, 4), rng.randint(2, 3)
    x = [[_row(rng, 1, rng.choice(ROW_KINDS))[0][0]] + [RationalPoly.zero()] * (cols - 1) for _ in range(rows)]
    state = QuantumCheckMatrix(PolyMatrix([[RationalPoly.zero()] * cols] * rows, cols=cols), PolyMatrix(x, cols=cols))
    seq, at = [], 0
    for _ in range(rng.randint(10, 40)):
        b, d = rng.choice([c for c in range(cols) if c != at]), rng.randint(1, 8)
        seq += [Gate("CNOT", at, b, d), Gate("CNOT", b, at, -d)]
        at = b
        if rng.random() < 0.1:
            seq.append(Gate("INF", at, f=_inf_factor(rng)))
    return state, Circuit(tuple(seq))


def _plane_ranges(planes):
    """The exponent range (lo, hi) of the unpacked entries of each plane, None for a zero plane."""
    mask, out = (1 << planes.stride) - 1, [[], []]
    for ranges, side in zip(out, planes.bits):
        for v in side:
            ends = [((e & -e).bit_length() - 1, e.bit_length() - 1)
                    for r in range(planes.nrows) if (e := (v >> (r * planes.stride)) & mask)]
            lows, highs = zip(*ends) if ends else ((), ())
            ranges.append((min(lows) - planes.offset, max(highs) - planes.offset) if ends else None)
    return out


def test_relayouts_keep_the_rows_with_exact_hulls(monkeypatch):
    """After every re-layout in the seeded families, the rows are kept and each plane's hull is its entries' exponent range."""
    relay, inf_rows = gates._Planes._relay, gates._inf_rows
    after_inf, seen = [False], []

    def spy_relay(planes, reach):
        rows, offset = planes.rows(), planes.offset
        relay(planes, reach)
        assert planes.rows() == rows
        assert planes.hull == _plane_ranges(planes)
        seen.append((planes.offset - offset, after_inf[0]))

    def spy_inf(*args):
        after_inf[0] = True
        inf_rows(*args)

    monkeypatch.setattr(gates._Planes, "_relay", spy_relay)
    monkeypatch.setattr(gates, "_inf_rows", spy_inf)
    cases = [_case(seed) for seed in range(CASES)] + [_stress_case(seed) for seed in range(STRESS_CASES)]
    cases += [_run_case(seed)[:2] for seed in range(RUN_CASES)]
    for state, circuit in cases:
        after_inf[0] = False
        circuit.apply(state)
    for seed in range(DRIFT_CASES):
        after_inf[0] = False
        state, circuit = _drift_case(seed)
        assert_same_replay(circuit, state)
    assert sum(d < 0 for d, _ in seen) >= RELAYOUT_FLOORS["offset down"]
    assert sum(d > 0 for d, _ in seen) >= RELAYOUT_FLOORS["offset up"]
    assert sum(inf for _, inf in seen) >= RELAYOUT_FLOORS["after an INF step"]


@pytest.mark.parametrize("replay", [lambda c, s: c.apply(s), stepped], ids=["plain", "stepped"])
@pytest.mark.parametrize("last", [Gate("CNOT", 0, 2, 3), Gate("CPHASE", 3, 1, -2, full_frame=True)], ids=format_gate)
def test_a_last_gate_out_of_frame_raises(replay, last):
    """Three columns, one of them the receiver's: sender qubits 0-1, frame qubits 0-2."""
    state = QuantumCheckMatrix(parse_matrix("1, D, 0\n0, 1, 1+D"), parse_matrix("0, 1, D\nD^2, 0, 1"), bob_cols=1)
    run = [Gate(last.kind, 0, 1, d) for d in (1, 5, 1, -3)]
    with pytest.raises(IndexError):
        replay(Circuit((*run, Gate("H", 1), last)), state)


@pytest.mark.parametrize("name, h1, h2", golden_pairs(), ids=[p[0] for p in golden_pairs()])
def test_code_replays_match_the_rational_rows(monkeypatch, name, h1, h2):
    """Every `Circuit.apply` a build and its decoded state make: the encoder
    on the bare stream, and the stage and tail gates on the same stream."""
    calls = []
    apply = Circuit.apply

    def recording(circuit, qcm):
        calls.append((circuit, qcm))
        return apply(circuit, qcm)

    monkeypatch.setattr(Circuit, "apply", recording)
    build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2))).decoded_state
    monkeypatch.undo()
    assert len(calls) == 2
    for circuit, qcm in calls:
        assert_same_replay(circuit, qcm)
