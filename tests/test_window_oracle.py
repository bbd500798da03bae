"""Differential test: the window simulator against its per-bit reference.

`tests/window_oracle.py` keeps the frame-by-frame simulator.  Seeded random
check matrices (zero, Laurent and rational entries, receiver columns) and
circuits of every gate kind run through both; the placed rows, the rows
after the circuit (bits, labels and every track's interval and spill
flags), their `valid_mask` at two margin pairs, and the type and message of
any exception must agree exactly.  A second seeded set aims at a window that
stacks its rows: four to six source rows, windows of 1-40 frames, delays of up
to two windows and infinite-depth factors wider than the window.  The encoders
of both worked examples are compared at W=32, and the block-aligned
comparison that `verify_code` runs is checked against a row-by-row one,
with and without mismatches, and on hand-made windows where a source has
no algebraic block.  Finally, after every gate of the seeded cases
and of the encoders of the golden codes at W=64 and W=128, a track's
head-invalid (tail-invalid) frames must come with its head (tail) spill
flag, which lets the simulator decide damage from the flags alone; the
same holds after every run of same-qubit gates applied as one circuit.
In the run-heavy family, a quarter of the multi-gate runs of each of CNOT,
CPHASE and CPHASE_SELF must meet a late flag: a gate after the first flags
a (row, side) that no earlier gate of its run flagged, the case a run's
bookkeeping must get right.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import test_window_golden as golden
import window_oracle as oracle
from eaqconv import simulate
from eaqconv.cli import EXAMPLES
from eaqconv.errors import WindowTooSmall
from eaqconv.construct import build_code
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix, parse_matrix
from support import golden_pairs

MARGINS = ((0, 0), (2, 3))
CASES = 500
STACKED_CASES = 150
RUN_CASES = 300
MATCH_CASES = 200


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


def _stacked_case(seed):
    """Aimed at a window that stacks its rows: several source rows, delays
    of up to two windows (a move can carry a whole row past either edge)
    and infinite-depth factors wider than the window."""
    rng = random.Random(seed)
    rows, cols = rng.randint(4, 6), rng.randint(1, 4)
    bob_cols = rng.randrange(cols)
    window = rng.randint(1, 40)
    state = QuantumCheckMatrix(
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        bob_cols=bob_cols,
    )
    gates = []
    for _ in range(rng.randint(1, 10)):
        g = _gate(rng, cols, bob_cols)
        if g.kind in ("CNOT", "CPHASE", "CPHASE_SELF"):
            g = Gate(g.kind, g.i, g.j, rng.randint(-2 * window, 2 * window), full_frame=g.full_frame)
        elif g.kind == "INF" and rng.random() < 0.5:
            width = window + rng.randint(1, 8)
            f = LaurentPoly(1 | rng.randrange(1 << width) | 1 << width, rng.randint(-2, 2))
            g = Gate("INF", g.i, f=f, time_reversed=g.time_reversed, full_frame=g.full_frame)
        gates.append(g)
    return state, Circuit(tuple(gates)), window, rng.randint(0, 6)


def test_stacked_windows_match_the_per_bit_simulator():
    for seed in range(STACKED_CASES):
        new, old = _both(*_stacked_case(seed))
        assert new == old, f"seed {seed}"


def _run_case(seed):
    """Runs of 2-8 gates of one kind on the same qubits and frame flag, most
    of them after an H or INF gate on one of their qubits."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(2, 4)
    bob_cols = rng.randrange(cols - 1)
    window = rng.randint(1, 64)
    state = QuantumCheckMatrix(
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        PolyMatrix([[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols),
        bob_cols=bob_cols,
    )
    gates, prev = [], None
    for _ in range(rng.randint(2, 6)):
        full = rng.random() < 0.25
        i, j = rng.sample(range(cols if full else cols - bob_cols), 2)
        kind = rng.choice(("CNOT", "CNOT", "CPHASE", "CPHASE_SELF", "P"))
        key = (kind, i, j if kind in ("CNOT", "CPHASE") else None, full)
        if key == prev or rng.random() < 0.6:  # a separator keeps runs apart
            q = rng.choice((i, j))
            if rng.random() < 0.5:
                gates.append(Gate("H", q, full_frame=full))
            else:
                f = LaurentPoly(rng.randrange(1, 32) | 1, rng.randint(-2, 2))
                gates.append(Gate("INF", q, f=f, time_reversed=rng.random() < 0.5, full_frame=full))
        for _ in range(rng.randint(2, 8)):
            delay = 0 if kind == "P" else rng.choice((0, rng.randint(-3, 3), rng.randint(-2 * window, 2 * window)))
            gates.append(Gate(kind, i, key[2], delay, full_frame=full))
        prev = key
    return state, Circuit(tuple(gates)), window, rng.randint(0, 6)


def _run_gates(circuit):
    """The gates of each step of `circuit._runs`, a run of same-qubit gates being one step."""
    gates = iter(circuit.gates)
    return [[next(gates) for _ in delays] for _, delays in circuit._runs]


def _flagged(win, tracks):
    """Per row and side (head, tail): on how many of `tracks` the row is flagged."""
    return [sum(t.tail_lost if side else t.head_lost for q, t in enumerate(r.tracks) if q in tracks)
            for r in win.rows for side in (0, 1)]


def _oracle_by_runs(stats):
    """The per-bit `run_circuit`, gate by gate, tallying into stats, per gate kind,
    the multi-gate runs and those in which a gate after the first flags a
    (row, side) that no earlier gate of the run flagged, and the flag counts
    on two-track runs' entry."""

    def run(win, circuit):
        for gates in _run_gates(circuit):
            tracks = set(oracle._gate_qubits(win, gates[0])) - {None}
            if len(tracks) == 2:
                stats["entry"].update(_flagged(win, tracks))
            late = False
            for n, g in enumerate(gates):
                before = _flagged(win, tracks)
                win = oracle.run_circuit(win, Circuit((g,)))
                late |= n > 0 and any(f and not b for f, b in zip(_flagged(win, tracks), before))
            if len(gates) > 1:
                stats["runs"][gates[0].kind] += 1
                stats["late"][gates[0].kind] += late
        return win

    return run


def test_run_heavy_windows_match_the_per_bit_simulator():
    stats = {"runs": Counter(), "late": Counter(), "entry": set()}
    for seed in range(RUN_CASES):
        case = _run_case(seed)
        new = _outcome(simulate.expand, simulate.run_circuit, simulate.WindowRow.valid_mask, *case)
        old = _outcome(oracle.expand, _oracle_by_runs(stats), oracle.valid_mask, *case)
        assert new == old, f"seed {seed}"
    assert stats["runs"].total() > RUN_CASES
    for kind in ("CNOT", "CPHASE", "CPHASE_SELF"):  # each kind's run rule meets late flags
        assert 4 * stats["late"][kind] >= stats["runs"][kind] > 0, (kind, stats)
    assert stats["entry"] == {0, 1, 2}


def test_interior_match_agrees_with_the_row_by_row_comparison():
    """The block-aligned plane comparison of `verify_code` against the
    row-by-row one, on the algebra of the whole circuit (mostly agreeing)
    and of the circuit without its last gate (mostly not)."""
    outcomes = set()
    for seed in range(MATCH_CASES):
        state, circuit, window, scratch = (_case if seed % 2 else _stacked_case)(seed)
        for gates in (circuit.gates, circuit.gates[:-1]):
            try:
                sim = simulate.run_circuit(simulate.expand(state, window, scratch), circuit)
                alg = simulate.expand(Circuit(gates).apply(state), window, scratch)
            except (IndexError, WindowTooSmall):
                continue
            got = simulate._interior_match(sim, alg)
            assert got == oracle.interior_match(sim, alg), f"seed {seed}"
            outcomes.add((got[0] > 0, bool(got[1])))
    assert outcomes == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("window, scratch", [(4, 1), (8, 0), (8, 2)])
def test_interior_match_skips_a_source_with_no_algebraic_block(window, scratch):
    """A source row that is zero on the algebraic side has no block there, so its copies are skipped.

    Both sources fit the hand-made windows; the second is zero in the
    algebraic state only, so none of its copies is compared or reported,
    whichever window holds it, and the first source's copies all agree.
    """
    state = QuantumCheckMatrix(parse_matrix("1, 0\n0, 1+D"), parse_matrix("0, D\n1, 0"))
    first_only = QuantumCheckMatrix(parse_matrix("1, 0\n0, 0"), parse_matrix("0, D\n0, 0"))
    win, alg = simulate.expand(state, window, scratch), simulate.expand(first_only, window, scratch)
    assert [blk.source for blk in win.blocks] == [0, 1] and [blk.source for blk in alg.blocks] == [0]
    copies = alg.blocks[0].count
    for sim, other in ((win, alg), (alg, win)):
        assert simulate._interior_match(sim, other) == (copies, []) == oracle.interior_match(sim, other)


def _assert_flags_cover_invalid_frames(win):
    """A row with a head-invalid (tail-invalid) frame on a track has that
    track's head (tail) spill flag."""
    for q in range(win.n_per_frame):
        assert not win._rows_holding(win.prefix[q]) & ~win.head_lost[q], f"track {q}"
        assert not win._rows_holding(win.suffix[q]) & ~win.tail_lost[q], f"track {q}"


def _gates(circuit):
    """Every gate of `circuit` as a step of its own."""
    return [[g] for g in circuit]


def _assert_flags_cover_invalid_frames_after_every_step(state, circuit, window, scratch, steps):
    """The flags cover the invalid frames after expansion and after each of
    `steps(circuit)`, a list of gate lists, applied as one circuit."""
    try:
        win = simulate.expand(state, window, scratch)
    except WindowTooSmall:
        return 0
    _assert_flags_cover_invalid_frames(win)
    for gates in steps(circuit):
        try:
            win = simulate.run_circuit(win, Circuit(tuple(gates)))
        except IndexError:
            break
        _assert_flags_cover_invalid_frames(win)
    return max(win.prefix + win.suffix)


def test_spill_flags_cover_invalid_frames_on_seeded_cases():
    damaged = damaged_by_runs = 0
    for seed in range(STACKED_CASES):
        for case in (_case, _stacked_case):
            damaged += bool(_assert_flags_cover_invalid_frames_after_every_step(*case(seed), _gates))
        for case in (_case, _stacked_case, _run_case):
            damaged_by_runs += bool(_assert_flags_cover_invalid_frames_after_every_step(*case(seed), _run_gates))
        _assert_flags_cover_invalid_frames_after_every_step(*_run_case(seed), _gates)
    assert damaged > STACKED_CASES // 4
    assert damaged_by_runs > STACKED_CASES // 4


@pytest.mark.parametrize("window", golden.WINDOWS)
def test_spill_flags_cover_invalid_frames_on_golden_codes(window):
    for name, h1, h2 in golden_pairs():
        spec = build_code(*(parse_matrix(t.replace(";", "\n")) for t in (h1, h2)))
        scratch = min(simulate.default_scratch(spec.encoder), window // 3)
        for steps in (_gates, _run_gates):
            assert _assert_flags_cover_invalid_frames_after_every_step(spec.bare, spec.encoder, window, scratch, steps), name
