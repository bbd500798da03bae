"""The per-bit window simulator, kept as the reference for `eaqconv.simulate`.

This is the frame-by-frame implementation that `simulate.py` used before it
moved to bit-plane operations: `expand`, `run_circuit` and `valid_mask` test
one bit per call to `win.bit`, one row at a time.  It keeps its own
row-list window and the per-row `damage` and `copy` that the stacked
simulator no longer has, verbatim; its rows carry the same fields as the
`WindowRow`s that `simulate` unpacks, so a differential test compares the
two field by field.  `valid_mask` is a function here, taking the row first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from eaqconv import simulate
from eaqconv.errors import WindowTooSmall
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix, SlidingWindowRule, synthesize_infinite_depth, time_reversed_rule
from eaqconv.poly import series_expand


class TrackState(simulate.TrackState):
    __slots__ = ()

    def copy(self):
        return TrackState(self.vf, self.vu, self.head_lost, self.tail_lost)


@dataclass
class WindowRow(simulate.WindowRow):
    def copy(self):
        return WindowRow(self.z, self.x, self.source, self.shift, self.label,
                         self.truncated, [t.copy() for t in self.tracks])

    def damage(self, src: int, dst: int, k: int, w: int):
        """Bits moved from track src to track dst across |k| frames."""
        s, d = self.tracks[src], self.tracks[dst]
        k = abs(k)
        if s.head_lost or s.vf > 0:
            d.vf = max(d.vf, min(w, s.vf + k))
            d.head_lost |= s.head_lost
        if s.tail_lost or s.vu < w:
            d.vu = min(d.vu, max(0, s.vu - k))
            d.tail_lost |= s.tail_lost


@dataclass
class BinarySymplecticWindow:
    n_per_frame: int
    window: int
    scratch: int
    bob_cols: int
    rows: list[WindowRow] = field(default_factory=list)

    def bit(self, frame: int, qubit: int) -> int:
        return 1 << (frame * self.n_per_frame + qubit)


def valid_mask(row, win, head=0, tail=0) -> int:
    mask = 0
    m, w = win.n_per_frame, win.window
    for q, tr in enumerate(row.tracks):
        for t in range(max(tr.vf, head), min(tr.vu, w - tail)):
            mask |= 1 << (t * m + q)
    return mask


def _row_support(qcm: QuantumCheckMatrix, r: int):
    exps = []
    rational = False
    for e in list(qcm.z.entries[r]) + list(qcm.x.entries[r]):
        if e.is_zero():
            continue
        if not e.is_polynomial():
            rational = True
            exps.append(e.num.dell)  # the series starts at the numerator's lowest exponent
        else:
            exps.extend((e.num.dell, e.num.deg))
    if not exps:
        return None, None, rational
    return min(exps), (None if rational else max(exps)), rational


def expand(qcm: QuantumCheckMatrix, window: int, scratch: int = 0) -> BinarySymplecticWindow:
    """Place every frame shift of every row that fits inside the window.

    Polynomial rows are dropped (not clipped) when a shifted copy sticks out;
    rational rows are series-truncated at the right edge and flagged.
    """
    if window < 1:
        raise WindowTooSmall("window must hold at least one frame")
    m = qcm.cols
    win = BinarySymplecticWindow(n_per_frame=m, window=window, scratch=scratch, bob_cols=qcm.bob_cols)
    labels = qcm.row_labels or tuple(f"row{r + 1}" for r in range(qcm.rows))
    for r in range(qcm.rows):
        lo, hi, rational = _row_support(qcm, r)
        if lo is None:
            continue
        placed_any = False
        for shift in range(-scratch - lo, window):
            start = scratch + shift + lo
            if start < 0:
                continue
            if not rational:
                end = scratch + shift + hi
                if end >= window:
                    continue
            if start >= window:
                break
            zbits = xbits = 0
            span_lo = -scratch - shift
            span_hi = window - 1 - scratch - shift
            tracks = []
            for q in range(m):
                clipped = False
                for entry, is_z in ((qcm.z.entries[r][q], True), (qcm.x.entries[r][q], False)):
                    if entry.is_zero():
                        continue
                    if not entry.is_polynomial():
                        clipped = True
                    poly = series_expand(entry, span_lo, span_hi)
                    for e in poly.exponents():
                        b = win.bit(scratch + shift + e, q)
                        if is_z:
                            zbits |= b
                        else:
                            xbits |= b
                tracks.append(TrackState(0, window, tail_lost=clipped))
            win.rows.append(WindowRow(zbits, xbits, r, shift, labels[r], truncated=rational, tracks=tracks))
            placed_any = True
        if not placed_any:
            raise WindowTooSmall(f"row {labels[r]} does not fit in a {window}-frame window")
    return win


def _gate_qubits(win: BinarySymplecticWindow, g: Gate):
    if g.full_frame:
        return g.i, g.j
    off = win.bob_cols
    return off + g.i, (off + g.j if g.j is not None else None)


def _apply_cnot(win, rows, a, b, delay):
    w = win.window
    for row in rows:
        z, x = row.z, row.x
        nz, nx = z, x
        for t in range(w):
            tb = t + delay
            if not 0 <= tb < w:
                if x & win.bit(t, a):  # the X write would land off the window
                    row.tracks[b].head_lost |= tb < 0
                    row.tracks[b].tail_lost |= tb >= w
                continue
            if x & win.bit(t, a):
                nx ^= win.bit(tb, b)
            if z & win.bit(tb, b):
                nz ^= win.bit(t, a)
        # Z writes whose target frame falls off the window while the read
        # frame is inside: the ideal stream grows bits the window cannot hold
        for t in list(range(-abs(delay), 0)) + list(range(w, w + abs(delay))):
            tb = t + delay
            if 0 <= tb < w and z & win.bit(tb, b):
                row.tracks[a].head_lost |= t < 0
                row.tracks[a].tail_lost |= t >= w
        row.z, row.x = nz, nx
        row.damage(a, b, delay, w)  # X side: track a feeds track b
        row.damage(b, a, delay, w)  # Z side: track b feeds track a
    return rows


def _apply_inf(win, rows, track, rule: SlidingWindowRule):
    w = win.window
    exps = sorted(rule.window - a for a, _ in rule.cnot_pattern)
    shift = rule.scratch_frames
    width = rule.window - 1
    for row in rows:
        tr = row.tracks[track]
        zbits = [1 if row.z & win.bit(t, track) else 0 for t in range(w)]
        xbits = [1 if row.x & win.bit(t, track) else 0 for t in range(w)]
        if shift:
            if any(zbits[t] or xbits[t] for t in range(w) if not 0 <= t + shift < w):
                tr.head_lost |= shift < 0
                tr.tail_lost |= shift > 0
            zbits = _shift_bits(zbits, shift)
            xbits = _shift_bits(xbits, shift)
            row.damage(track, track, shift, w)
        for j in range(w):
            for e in exps:
                if j - e >= 0:
                    xbits[j] ^= xbits[j - e]  # feedback: the 1/f expansion
                    if zbits[j]:
                        zbits[j - e] ^= 1  # feed-forward: multiplication by f(D^-1)
                elif zbits[j]:
                    tr.head_lost = True  # the f(D^-1) product reaches past the head
        # feedback needs the full history: head trouble invalidates the track
        if tr.head_lost or tr.vf > 0:
            tr.vf = w
        if width and (tr.tail_lost or tr.vu < w):
            tr.vu = max(0, tr.vu - width)
        tr.tail_lost = True  # the expansion continues past the window
        z, x = row.z, row.x
        for t in range(w):
            b = win.bit(t, track)
            z = (z & ~b) | (b if zbits[t] else 0)
            x = (x & ~b) | (b if xbits[t] else 0)
        row.z, row.x = z, x
        row.truncated = True
    return rows


def _shift_bits(bits, k):
    w = len(bits)
    out = [0] * w
    for t, v in enumerate(bits):
        if v and 0 <= t + k < w:
            out[t + k] = 1
    return out


def run_circuit(win: BinarySymplecticWindow, circuit: Circuit) -> BinarySymplecticWindow:
    """Apply the shift-invariant circuit to every row of the window."""
    out = BinarySymplecticWindow(
        win.n_per_frame, win.window, win.scratch, win.bob_cols, [r.copy() for r in win.rows]
    )
    w = win.window
    for g in circuit:
        a, b = _gate_qubits(out, g)
        if g.kind == "CNOT":
            _apply_cnot(out, out.rows, a, b, g.delay)
        elif g.kind == "H":
            for row in out.rows:
                za = xa = 0
                for t in range(w):
                    bit = out.bit(t, a)
                    if row.z & bit:
                        za |= bit
                    if row.x & bit:
                        xa |= bit
                row.z ^= za ^ xa
                row.x ^= xa ^ za
        elif g.kind == "P":
            for row in out.rows:
                for t in range(w):
                    bit = out.bit(t, a)
                    if row.x & bit:
                        row.z ^= bit
        elif g.kind == "CPHASE":
            for row in out.rows:
                nz = row.z
                for t in range(w):
                    tb = t + g.delay
                    if 0 <= tb < w:
                        if row.x & out.bit(t, a):
                            nz ^= out.bit(tb, b)
                        if row.x & out.bit(tb, b):
                            nz ^= out.bit(t, a)
                    elif row.x & out.bit(t, a):
                        row.tracks[b].head_lost |= tb < 0
                        row.tracks[b].tail_lost |= tb >= w
                for t in list(range(-abs(g.delay), 0)) + list(range(w, w + abs(g.delay))):
                    tb = t + g.delay
                    if 0 <= tb < w and row.x & out.bit(tb, b):
                        row.tracks[a].head_lost |= t < 0
                        row.tracks[a].tail_lost |= t >= w
                row.z = nz
                row.damage(a, b, g.delay, w)
                row.damage(b, a, g.delay, w)
        elif g.kind == "CPHASE_SELF":
            for row in out.rows:
                nz = row.z
                for t in range(w):
                    if g.delay == 0 or not row.x & out.bit(t, a):
                        continue
                    for tb in (t + g.delay, t - g.delay):
                        if 0 <= tb < w:
                            nz ^= out.bit(tb, a)
                        else:
                            row.tracks[a].head_lost |= tb < 0
                            row.tracks[a].tail_lost |= tb >= w
                row.z = nz
                row.damage(a, a, g.delay, w)
        elif g.kind == "INF":
            rule = time_reversed_rule(g.f) if g.time_reversed else synthesize_infinite_depth(g.f)
            _apply_inf(out, out.rows, a, rule)
        else:  # pragma: no cover
            raise ValueError(g.kind)
    return out


def interior_match(win_sim, win_alg):
    """Compare simulated rows against algebraically expanded rows per (source, shift), row by row."""
    alg = {(r.source, r.shift): r for r in win_alg.rows}
    compared = 0
    mismatches = []
    for row in win_sim.rows:
        other = alg.get((row.source, row.shift))
        if other is None:
            continue
        mask = valid_mask(row, win_sim)
        if not mask:
            continue
        compared += 1
        if (row.z ^ other.z) & mask or (row.x ^ other.x) & mask:
            mismatches.append((row.label, row.shift))
    return compared, mismatches
