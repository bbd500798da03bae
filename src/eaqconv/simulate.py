"""Truncated-window binary symplectic simulation.

The window holds W frames of m = (receiver + sender) qubits each.  A row is
a pair of bitmasks (z | x) over the W*m qubit slots, bit index
frame * m + qubit, so qubit q's track is the stride-m bit plane of bits
q, m + q, 2m + q, ...  Expanding a polynomial check matrix places every
frame shift of every generator whose support fits inside the window;
rational entries are expanded as ascending series and truncated at the
window edge.

Circuits act on whole bit planes exactly as their column-operation semantics
dictate, so running a circuit here is an independent check of the algebraic
pipeline: every gate masks a track, moves it k frames onto a track (one
shift by k*m plus the change of qubit) and XORs it in.  Infinite-depth
operations run as their sliding-window CNOT rules: ascending application
order makes the target-frame updates feed back (the 1/f expansion on the X
side) while source-frame updates do not (the plain f(D^-1) product on the Z
side).

Truncation bookkeeping: every row carries, per qubit track, the frame
interval on which its window bits provably equal the ideal infinite stream,
plus flags recording that the ideal stream extends past the head or tail of
the window.  One rule sets the flags: a move that carries bits off the head
or tail flags the destination track (`_spill`).  Gates that move bits
between frames shrink the target track's interval by the shifted image of
the source track's unreliable region, and an infinite-depth operation on a
track with head trouble invalidates the track outright (its feedback would
need the missing history).  Comparisons against the exact algebra then use
only the provably-exact bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import WindowTooSmall
from .gates import Circuit, QuantumCheckMatrix, SlidingWindowRule, gate_columns, synthesize_infinite_depth, time_reversed_rule
from .poly import LaurentPoly, RationalPoly, series_expand
from .polymat import PolyMatrix, row_space_equal


class TrackState:
    """Per-track validity interval [vf, vu) plus off-window spill flags."""

    __slots__ = ("vf", "vu", "head_lost", "tail_lost")

    def __init__(self, vf=0, vu=0, head_lost=False, tail_lost=False):
        self.vf = vf
        self.vu = vu
        self.head_lost = head_lost
        self.tail_lost = tail_lost

    def copy(self):
        return TrackState(self.vf, self.vu, self.head_lost, self.tail_lost)


@dataclass
class WindowRow:
    z: int
    x: int
    source: int
    shift: int
    label: str = ""
    truncated: bool = False
    tracks: list = field(default_factory=list)

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

    def valid_mask(self, win, head=0, tail=0) -> int:
        w = win.window
        return sum(_frames(win, q, max(tr.vf, head), min(tr.vu, w - tail)) for q, tr in enumerate(self.tracks))


@dataclass
class BinarySymplecticWindow:
    n_per_frame: int
    window: int
    scratch: int
    bob_cols: int
    rows: list[WindowRow] = field(default_factory=list)

    def bit(self, frame: int, qubit: int) -> int:
        return 1 << (frame * self.n_per_frame + qubit)

    def letter(self, row: WindowRow, frame: int, qubit: int) -> str:
        b = self.bit(frame, qubit)
        z = 1 if row.z & b else 0
        x = 1 if row.x & b else 0
        return {(0, 0): "I", (0, 1): "X", (1, 1): "Y", (1, 0): "Z"}[(z, x)]


@dataclass(frozen=True)
class ErrorPattern:
    """Sparse Pauli error: (frame, qubit, letter) triples inside the window."""

    terms: tuple[tuple[int, int, str], ...]

    def masks(self, win: BinarySymplecticWindow) -> tuple[int, int]:
        z = x = 0
        for frame, qubit, letter in self.terms:
            if not (0 <= frame < win.window and 0 <= qubit < win.n_per_frame):
                raise WindowTooSmall(f"error at frame {frame}, qubit {qubit} lies outside the window")
            b = win.bit(frame, qubit)
            if letter in ("Z", "Y"):
                z |= b
            if letter in ("X", "Y"):
                x |= b
        return z, x


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
    full = (1 << window * m) - 1
    for r in range(qcm.rows):
        lo, hi, rational = _row_support(qcm, r)
        if lo is None:
            continue
        # the row's Z and X planes with exponent lo at frame 0
        planes = [0, 0]
        clipped = []
        for q in range(m):
            entries = (qcm.z.entries[r][q], qcm.x.entries[r][q])
            for side, entry in enumerate(entries):
                if not entry.is_zero():
                    for e in series_expand(entry, lo, lo + window - 1).exponents():
                        planes[side] |= 1 << ((e - lo) * m + q)
            clipped.append(any(not e.is_polynomial() for e in entries))
        # copy `start` begins at frame start and is the frame shift start - scratch - lo
        last = min(window - 1 if rational else window - 1 - (hi - lo), window + scratch + lo - 1)
        if last < 0:
            raise WindowTooSmall(f"row {labels[r]} does not fit in a {window}-frame window")
        for start in range(last + 1):
            win.rows.append(WindowRow(
                (planes[0] << start * m) & full, (planes[1] << start * m) & full, r, start - scratch - lo,
                labels[r], truncated=rational, tracks=[TrackState(0, window, tail_lost=c) for c in clipped],
            ))
    return win


def _frames(win: BinarySymplecticWindow, q: int, lo: int, hi: int) -> int:
    """The mask of track q on frames [lo, hi), clipped to the window."""
    m = win.n_per_frame
    lo, hi = max(lo, 0), min(hi, win.window)
    if lo >= hi:
        return 0
    return ((1 << (hi - lo) * m) - 1) // ((1 << m) - 1) << (lo * m + q)


def _move(bits: int, k: int, src: int, dst: int, m: int) -> int:
    """Track-src bits moved k frames later onto track dst.

    Bits that would land before frame 0 are dropped; bits past the last
    frame are not, so callers mask the result with the destination track.
    """
    s = k * m + dst - src
    return bits << s if s >= 0 else bits >> -s


def _spill(win: BinarySymplecticWindow, bits: int, q: int, k: int, track: TrackState) -> None:
    """Flag `track` when moving the track-q bits by k frames carries any off the window."""
    if k < 0 and bits & _frames(win, q, 0, -k):
        track.head_lost = True
    elif k > 0 and bits & _frames(win, q, win.window - k, win.window):
        track.tail_lost = True


def _apply_inf(win: BinarySymplecticWindow, track: int, rule: SlidingWindowRule) -> None:
    m, w = win.n_per_frame, win.window
    mask = _frames(win, track, 0, w)
    f = [0] + [rule.window - a for a, _ in rule.cnot_pattern]  # exponents of the delay-free f
    inverse = series_expand(RationalPoly(LaurentPoly.one(), LaurentPoly(sum(1 << e for e in f))), 0, w - 1)
    shift, width = rule.scratch_frames, rule.window - 1
    for row in win.rows:
        tr = row.tracks[track]
        z, x = row.z & mask, row.x & mask
        if shift:
            _spill(win, z | x, track, shift, tr)
            z, x = _move(z, shift, track, track, m) & mask, _move(x, shift, track, track, m) & mask
            row.damage(track, track, shift, w)
        nz = nx = 0
        for e in f:  # feed-forward: multiplication by f(D^-1)
            _spill(win, z, track, -e, tr)
            nz ^= _move(z, -e, track, track, m)
        for e in inverse.exponents():  # feedback: the 1/f expansion
            nx ^= _move(x, e, track, track, m)
        # feedback needs the full history: head trouble invalidates the track
        if tr.head_lost or tr.vf > 0:
            tr.vf = w
        if width and (tr.tail_lost or tr.vu < w):
            tr.vu = max(0, tr.vu - width)
        tr.tail_lost = True  # the expansion continues past the window
        row.z = (row.z & ~mask) | nz
        row.x = (row.x & ~mask) | (nx & mask)
        row.truncated = True


def run_circuit(win: BinarySymplecticWindow, circuit: Circuit) -> BinarySymplecticWindow:
    """Apply the shift-invariant circuit to every row of the window."""
    out = BinarySymplecticWindow(
        win.n_per_frame, win.window, win.scratch, win.bob_cols, [r.copy() for r in win.rows]
    )
    m, w = win.n_per_frame, win.window
    for g in circuit:
        a, b = gate_columns(g, m, win.bob_cols)
        if g.kind == "INF":
            _apply_inf(out, a, time_reversed_rule(g.f) if g.time_reversed else synthesize_infinite_depth(g.f))
            continue
        ma, mb, k = _frames(out, a, 0, w), (0 if b is None else _frames(out, b, 0, w)), g.delay
        for row in out.rows:
            z, x = row.z, row.x
            if g.kind == "CNOT":
                _spill(out, x & ma, a, k, row.tracks[b])
                _spill(out, z & mb, b, -k, row.tracks[a])
                row.x ^= _move(x & ma, k, a, b, m) & mb
                row.z ^= _move(z & mb, -k, b, a, m) & ma
                row.damage(a, b, k, w)  # X side: track a feeds track b
                row.damage(b, a, k, w)  # Z side: track b feeds track a
            elif g.kind == "CPHASE":
                _spill(out, x & ma, a, k, row.tracks[b])
                _spill(out, x & mb, b, -k, row.tracks[a])
                row.z ^= (_move(x & ma, k, a, b, m) & mb) ^ (_move(x & mb, -k, b, a, m) & ma)
                row.damage(a, b, k, w)
                row.damage(b, a, k, w)
            elif g.kind == "CPHASE_SELF":
                _spill(out, x & ma, a, k, row.tracks[a])
                _spill(out, x & ma, a, -k, row.tracks[a])
                row.z ^= (_move(x & ma, k, a, a, m) ^ _move(x & ma, -k, a, a, m)) & ma
                row.damage(a, a, k, w)
            elif g.kind == "P":
                row.z ^= x & ma
            elif g.kind == "H":
                row.z ^= (z ^ x) & ma
                row.x ^= (z ^ x) & ma
            else:  # pragma: no cover
                raise ValueError(g.kind)
    return out


def syndrome(win: BinarySymplecticWindow, error: ErrorPattern) -> tuple[int, ...]:
    """One symplectic-product bit per stabilizer row of the window."""
    ez, ex = error.masks(win)
    bits = []
    for row in win.rows:
        parity = (bin(ez & row.x).count("1") + bin(ex & row.z).count("1")) % 2
        bits.append(parity)
    return tuple(bits)


# -- verification ----------------------------------------------------------------


def default_scratch(circuit: Circuit) -> int:
    """Head padding: four frames per infinite-depth degree, minimum four."""
    pads = [4 * g.f.width for g in circuit if g.kind == "INF" and not g.f.is_zero()]
    neg = [-g.delay for g in circuit if g.kind in ("CNOT", "CPHASE") and g.delay < 0]
    return max(pads + neg + [4])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    window: int
    scratch: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verification window={self.window} scratch={self.scratch}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "scratch": self.scratch,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def _check_decode(spec, evolved: QuantumCheckMatrix) -> tuple[bool, str]:
    """Decode the re-encoded state and test the logical operators.

    `evolved` is the encoder replayed afresh on the bare stream; running the
    decoder on it (rather than on stored results) catches a corrupted
    circuit.  Requires: every decoded logical commutes with the decoded
    stabilizer; the X/Z pairing is a unit D^k exactly on matching qubits;
    and modulo the decoded stabilizer each logical localizes to its
    designated column.
    """
    from .pauli import shifted_symplectic
    from .polymat import rref

    decoded = spec.decoder.apply(evolved)
    if decoded.info is None or spec.k == 0:
        return True, "no information qubits"
    for i in range(decoded.info.rows):
        for j in range(decoded.rows):
            if not shifted_symplectic(decoded.info.row(i), decoded.row(j)).is_zero():
                return False, f"decoded logical row {i + 1} fails to commute with the stabilizer"
    for qa in range(spec.k):
        for qb in range(spec.k):
            prod = shifted_symplectic(decoded.info.row(2 * qa), decoded.info.row(2 * qb + 1))
            if qa != qb:
                if not prod.is_zero():
                    return False, f"logical qubits {qa + 1} and {qb + 1} fail to be independent"
            elif prod.is_zero() or not prod.is_polynomial() or prod.num.weight() != 1:
                return False, f"logical pair {qa + 1} has pairing {prod} instead of a unit"
            xa, xb = decoded.info.row(2 * qa), decoded.info.row(2 * qb)
            za, zb = decoded.info.row(2 * qa + 1), decoded.info.row(2 * qb + 1)
            if qa < qb:
                if not shifted_symplectic(xa, xb).is_zero() or not shifted_symplectic(za, zb).is_zero():
                    return False, f"same-type logicals {qa + 1}, {qb + 1} anticommute"
    # localization modulo the decoded stabilizer row space
    stab_rref, pivots = rref(decoded.zx_concat())
    total = decoded.cols
    for q in range(spec.k):
        col = decoded.bob_cols + spec.decoded_cols[q]
        for rrow, allowed, kind in ((2 * q, {total + col}, "X"), (2 * q + 1, {col}, "Z")):
            vec = list(decoded.info.z.entries[rrow]) + list(decoded.info.x.entries[rrow])
            for p, pc in enumerate(pivots):
                if not vec[pc].is_zero():
                    coeff = vec[pc]
                    vec = [a + coeff * b for a, b in zip(vec, stab_rref.entries[p])]
            support = {j for j, e in enumerate(vec) if not e.is_zero()}
            if support != allowed:
                return False, f"logical {kind}{q + 1} does not localize to column {spec.decoded_cols[q] + 1}"
    return True, ""


def _interior_match(win_sim, win_alg, head=0, tail=0):
    """Compare simulated rows against algebraically expanded rows per (source, shift).

    Each simulated copy is compared only on the frames where its tracks are
    provably exact, further trimmed by the optional head/tail margins; copies
    with nothing provable left are skipped.
    """
    w = win_sim.window
    if head >= w - tail:
        raise WindowTooSmall(f"no interior left between head={head} and tail={tail}")
    alg = {(r.source, r.shift): r for r in win_alg.rows}
    compared = 0
    mismatches = []
    for row in win_sim.rows:
        other = alg.get((row.source, row.shift))
        if other is None:
            continue
        mask = row.valid_mask(win_sim, head, tail)
        if not mask:
            continue
        compared += 1
        if (row.z ^ other.z) & mask or (row.x ^ other.x) & mask:
            mismatches.append((row.label, row.shift))
    return compared, mismatches


def verify_code(spec, window: int = 32, scratch: int | None = None) -> VerificationReport:
    """The four-part verification of a built code.

    (a) every pair of final stabilizer rows has a vanishing shifted
        symplectic product; (b) the sender-side rows span the same space as
        the input check matrices; (c) decoding restores each logical pair to
        its designated column; (d) the gate-by-gate window simulation of the
        encoder agrees with the algebraic stabilizer inside the window.
    """
    if scratch is None:
        scratch = default_scratch(spec.encoder)
    scratch = min(scratch, window // 3)  # keep an interior even for wide factors
    checks = []

    gram = spec.final_stabilizer.symplectic_gram()
    bad = [(i, j) for i in range(gram.rows) for j in range(gram.cols) if not gram[i, j].is_zero()]
    checks.append(CheckResult(
        "commutation",
        not bad,
        "" if not bad else f"rows {bad[:4]} fail the shifted symplectic product",
    ))

    n = spec.n
    zero = [RationalPoly.zero()] * n
    target = PolyMatrix(
        [list(r) + zero for r in spec.h1.entries] + [zero + list(r) for r in spec.h2.entries]
    )
    alice = spec.final_stabilizer.alice_part().zx_concat()
    ok_stored = row_space_equal(alice, target)
    evolved = spec.encoder.apply(spec.bare)
    ok_evolved = row_space_equal(evolved.alice_part().zx_concat(), target)
    checks.append(CheckResult(
        "row-space equivalence",
        ok_stored and ok_evolved,
        "" if ok_stored and ok_evolved
        else ("stored" if not ok_stored else "re-encoded")
        + " sender-side stabilizer spans a different space than the check matrices",
    ))

    ok_dec, detail = _check_decode(spec, evolved)
    checks.append(CheckResult("decoded logical operators", ok_dec, detail))

    try:
        win0 = expand(spec.bare, window, scratch)
        win_sim = run_circuit(win0, spec.encoder)
        win_alg = expand(evolved, window, scratch)
        compared, mismatches = _interior_match(win_sim, win_alg)
        ok_sim = compared > 0 and not mismatches
        detail = f"{compared} generator copies compared"
        if mismatches:
            detail += f"; first mismatches {mismatches[:4]}"
        elif compared == 0:
            detail = "window too small to compare any generator copy"
    except WindowTooSmall as exc:
        ok_sim = False
        detail = str(exc)
    checks.append(CheckResult("window simulation", ok_sim, detail))

    return VerificationReport(window=window, scratch=scratch, checks=checks)
