"""Truncated-window binary symplectic simulation.

The window holds W frames of m = (receiver + sender) qubits each and one row
per placed copy of a generator.  It is stored as bit planes: one integer per
qubit track and side, `z[q]` and `x[q]`, with every row stacked.  Row i's
frames 0..W-1 of track q are bits i*(W+1) ... i*(W+1)+W-1, and the guard bit
i*(W+1)+W after them is always clear.  Expanding a polynomial check matrix
places every frame shift of every generator whose support fits inside the
window; the copies of one generator form one contiguous block of rows.
Rational entries are expanded as ascending series and truncated at the
window edge.

Circuits act on whole planes by the window's own moves, `_MOVES`, written
from the gate definitions apart from `gates._MOVES`, in steps (first gate,
delays) that `_steps` groups: adjacent strings of CNOT, CPHASE, CPHASE_SELF
or P gates on the same qubits and frame flag merge into a maximal run.  So
running a circuit here checks the algebraic pipeline's move table, step
grouping, storage, truncation and infinite-depth steps independently.  No
gate of a run writes a plane that the run reads, so each move of its kind
masks its fixed source track to the frames that stay inside the window,
shifts it by the move's sign times every delay k of the run and XORs the
results onto the target track, for every row at once.  Moves never cross a
row: the mask drops the bits that would leave their row before the shift, so
no bit lands in another row or on a guard bit.  One mask table per window,
H(k) for frames [0, k) of every row and T(k) = full ^ H(W - k) for frames
[W - k, W), serves every mask.  Infinite-depth operations run as their
sliding-window CNOT rules: ascending application order makes the
target-frame updates feed back (the 1/f expansion on the X side) while
source-frame updates do not (the plain f(D^-1) product on the Z side).

Truncation bookkeeping uses the same layout.  Every row has, per track, the
frame interval [vf, vu) on which its window bits provably equal the ideal
infinite stream, plus flags recording that the ideal stream extends past the
head or tail of the window.  `prefix[q]` (P) holds the head-invalid frames
[0, vf) of every row, `suffix[q]` (U) the tail-invalid frames [vu, W), and
`head_lost[q]` (HL) and `tail_lost[q]` (TL) the spill flags, each the mask
of every frame [0, W) of a flagged row, so a flag masks its row as it is.
One rule sets the flags: a move that carries bits off the head or tail flags
the destination track of those rows.  The rows with a bit in `bits` are
g - (g >> W) for g = (bits + window mask) & guard bits, a row's guard bit
catching the carry of any bit in it.  Gates that move bits between frames
shrink the target track's interval by the shifted image of the source
track's unreliable region, and an infinite-depth operation on a track with
head trouble invalidates the track outright (its feedback would need the
missing history).  A run of CPHASE_SELF gates on track a is bookkept gate by
gate: a gate of |delay| K flags the rows that hold a bit of its source in
edge(K), then lengthens every flagged row's interval on a by K.  A run of
CNOT or CPHASE gates is bookkept in closed form.  Its sources are fixed, so
a gate can flag new rows only when its delay is a new extreme of its sign.
A CNOT or CPHASE gate of |delay| K damages b from a, then a from b: it
copies each track's flags to the other and sets v = max(v, u + K), then
u = max(u, v + K), for a flagged row's invalid head u on track a and v on
track b.  So after a run's first gate the flags agree and u >= v, and every
later gate sets v = u + K and u = u + 2K (capped at W): the run ends at
u + 2S and u + 2S - K_last, with S the sum of K after the first gate.  A
row that a later gate first flags starts from u = 2K (a flagged) or K (b
only).  The cap commutes with max and +, and the tail side is the mirror
image.  Comparisons against the exact algebra then use only the
provably-exact bits.

`BinarySymplecticWindow.rows` unpacks the planes, on first iteration, into one
`WindowRow` per copy (bit frame*m + qubit of its z and x masks, and one
`TrackState` per track).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import WindowTooSmall
from .gates import Circuit, QuantumCheckMatrix, SlidingWindowRule, gate_columns, synthesize_infinite_depth, time_reversed_rule
from .pauli import symplectic_numerator
from .poly import ONE, ZERO, LaurentPoly, canonical_pair, divides, format_rational, series_expand
from .polymat import echelon, residue, row_space_equal


class TrackState:
    """Per-track validity interval [vf, vu) plus off-window spill flags."""

    __slots__ = ("vf", "vu", "head_lost", "tail_lost")

    def __init__(self, vf=0, vu=0, head_lost=False, tail_lost=False):
        self.vf = vf
        self.vu = vu
        self.head_lost = head_lost
        self.tail_lost = tail_lost


@dataclass
class WindowRow:
    """One placed copy, unpacked: bit frame * m + qubit of z and x."""

    z: int
    x: int
    source: int
    shift: int
    label: str = ""
    truncated: bool = False
    tracks: list = field(default_factory=list)

    def valid_mask(self, win, head=0, tail=0) -> int:
        m, w = win.n_per_frame, win.window
        mask = 0
        for q, tr in enumerate(self.tracks):
            lo, hi = max(tr.vf, head, 0), min(tr.vu, w - tail, w)
            if lo < hi:
                mask |= ((1 << (hi - lo) * m) - 1) // ((1 << m) - 1) << (lo * m + q)
        return mask


class Block(NamedTuple):
    """The copies of one generator: rows first .. first+count-1, frame shifts shift .. shift+count-1."""

    source: int
    label: str
    first: int
    count: int
    shift: int


def _repeat(count: int, stride: int) -> int:
    """Bit 0 of each of `count` consecutive stride-bit slots."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


class _Rows:
    """A window's rows as `WindowRow`s, to iterate: the window unpacks them on first iteration and keeps them, while
    len() reads its row count.  The view holds the window and the window holds no view, so neither forms a cycle."""

    def __init__(self, win: BinarySymplecticWindow):
        self._win = win

    def __len__(self) -> int:
        return self._win.count

    def __iter__(self):
        win = self._win
        if win._unpacked is None:
            win._unpacked = _unpack(win)
        return iter(win._unpacked)


@dataclass
class BinarySymplecticWindow:
    """The stacked track planes of a window (layout in the module docstring)."""

    n_per_frame: int
    window: int
    scratch: int
    bob_cols: int
    blocks: tuple[Block, ...]
    z: list[int]
    x: list[int]
    prefix: list[int]
    suffix: list[int]
    head_lost: list[int]
    tail_lost: list[int]
    truncated: int  # frame-0 flags of the rows that hold a truncated series

    def __post_init__(self):
        last = self.blocks[-1] if self.blocks else None
        self.count = last.first + last.count if last else 0
        self._base = _repeat(self.count, self.window + 1)  # frame 0 of every row
        self._guard = self._base << self.window  # the guard bit of every row
        self._full = self._guard - self._base  # every frame of every row
        self._heads, self._tails = {}, {}
        self._unpacked = None

    rows = property(_Rows)

    def bit(self, frame: int, qubit: int) -> int:
        return 1 << (frame * self.n_per_frame + qubit)

    # -- whole-window operations on planes ----------------------------------------

    def _head(self, k: int) -> int:
        """H(k): frames [0, k) of every row, k clipped to [0, W]; the table fills on first use."""
        k = 0 if k < 0 else k if k < self.window else self.window
        mask = self._heads.get(k)
        if mask is None:
            mask = self._heads[k] = (self._base << k) - self._base
        return mask

    def _tail(self, k: int) -> int:
        """T(k) = full ^ H(W - k): frames [W - k, W) of every row."""
        k = 0 if k < 0 else k if k < self.window else self.window
        mask = self._tails.get(k)
        if mask is None:
            mask = self._tails[k] = self._full ^ self._head(self.window - k)
        return mask

    def _shifted(self, bits: int, k: int) -> int:
        """Every row's bits moved k frames later; bits that would leave their row are dropped."""
        if k >= 0:
            return (bits & self._head(self.window - k)) << k
        return (bits & self._tail(self.window + k)) >> -k

    def _rows_holding(self, bits: int) -> int:
        """Every frame of every row with a bit in `bits` (bits inside the window only): the flags of those rows."""
        g = (bits + self._full) & self._guard  # a row's guard bit catches the carry of any bit in it
        return g - (g >> self.window)

    def _sides(self):
        """(intervals, flags, edge, sign) of the head side, then the tail side; a move
        by a delay of the side's sign carries bits off it."""
        return (self.prefix, self.head_lost, self._head, -1), (self.suffix, self.tail_lost, self._tail, 1)

    def _grow(self, ends: int, k: int, sign: int, flags: int) -> int:
        """A side's intervals `ends`, each k frames longer (capped at W), on the rows in `flags`.

        A row's invalid frames on a side come only with its flag there, so
        the flags, as they are, mask the result.  The shift needs no mask:
        what it carries past a row's end lands in the edge(k) frames of the
        next row, or on a guard bit.
        """
        if k >= self.window:
            return flags
        if sign < 0:
            return ((ends << k) | self._head(k)) & flags
        return ((ends >> k) | self._tail(k)) & flags


def _unpack(win: BinarySymplecticWindow) -> list[WindowRow]:
    if not win.count:
        return []
    w, stride = win.window, win.window + 1
    width = win.count * stride

    def lsb_first(planes):
        return [format(p, f"0{width}b")[::-1] for p in planes]

    z, x, prefix, suffix = (lsb_first(p) for p in (win.z, win.x, win.prefix, win.suffix))
    head_lost, tail_lost = lsb_first(win.head_lost), lsb_first(win.tail_lost)
    (truncated,) = lsb_first([win.truncated])

    def interleave(planes, lo):  # frame t of track q to bit t * m + q
        return int("".join(map("".join, zip(*(p[lo:lo + w] for p in planes))))[::-1], 2)

    rows = []
    for blk in win.blocks:
        for j in range(blk.count):
            lo = (blk.first + j) * stride
            tracks = [
                TrackState(prefix[q][lo:lo + w].count("1"), w - suffix[q][lo:lo + w].count("1"),
                           head_lost[q][lo] == "1", tail_lost[q][lo] == "1")
                for q in range(win.n_per_frame)
            ]
            rows.append(WindowRow(interleave(z, lo), interleave(x, lo), blk.source, blk.shift + j,
                                  blk.label, truncated[lo] == "1", tracks))
    return rows


def _row_support(qcm: QuantumCheckMatrix, r: int):
    """(lo, hi, rational) of row r; a rational row (denominator not 1) has no last exponent, hi None."""
    nums = [e for e in qcm.nums[r] if e]
    if not nums:
        return None, None, False
    rational = qcm.dens[r] != ONE
    return min(e.low for e in nums), (None if rational else max(e.deg for e in nums)), rational


def expand(qcm: QuantumCheckMatrix, window: int, scratch: int = 0) -> BinarySymplecticWindow:
    """Place every frame shift of every row that fits inside the window.

    Polynomial rows are dropped (not clipped) when a shifted copy sticks out;
    rational rows are series-truncated at the right edge and flagged.
    """
    if window < 1:
        raise WindowTooSmall("window must hold at least one frame")
    m, w, stride = qcm.cols, window, window + 1
    labels = qcm.row_labels or (*(f"row{r + 1}" for r in range(qcm.rows)),)
    z, x, tail_lost = [0] * m, [0] * m, [0] * m
    truncated = 0
    blocks = []
    first = 0
    for r in range(qcm.rows):
        lo, hi, rational = _row_support(qcm, r)
        if lo is None:
            continue
        # copy j begins at frame j and is the frame shift j - scratch - lo
        last = min(window - 1 if rational else window - 1 - (hi - lo), window + scratch + lo - 1)
        if last < 0:
            raise WindowTooSmall(f"row {labels[r]} does not fit in a {window}-frame window")
        count = last + 1
        base = _repeat(count, stride)
        # a track's W bits times `stair` sit at frame j of row j; the frames
        # before j receive what row j - 1 carried past its end, and are cleared
        stair = _repeat(count, stride + 1)
        keep = (base << w) - stair
        at = first * stride
        den, row = qcm.dens[r], qcm.nums[r]
        for q in range(m):
            nums = (row[q], row[m + q])
            for planes, num in zip((z, x), nums):
                series = series_expand((num, den), lo, lo + w - 1) if rational else num  # a polynomial row fits whole
                if series.bits:
                    planes[q] |= ((series.bits << series.low - lo) * stair & keep) << at
            if rational and not all(divides(den, num) for num in nums):
                tail_lost[q] |= ((base << w) - base) << at
        if rational:
            truncated |= base << at
        blocks.append(Block(r, labels[r], first, count, -scratch - lo))
        first += count
    return BinarySymplecticWindow(m, w, scratch, qcm.bob_cols, tuple(blocks), z, x,
                                  [0] * m, [0] * m, [0] * m, tail_lost, truncated)


def _apply_inf(win: BinarySymplecticWindow, q: int, rule: SlidingWindowRule) -> None:
    w = win.window
    f = [0] + [rule.window - a for a, _ in rule.cnot_pattern]  # exponents of the delay-free f
    inverse = series_expand((ONE, LaurentPoly(sum(1 << e for e in f))), 0, w - 1)
    shift, width = rule.scratch_frames, rule.window - 1
    z, x = win.z[q], win.x[q]
    if shift:
        for ends, lost, edge, sign in win._sides():
            if shift * sign > 0:
                lost[q] |= win._rows_holding((z | x) & edge(abs(shift)))
            if lost[q]:
                ends[q] |= win._grow(ends[q], abs(shift), sign, lost[q])
        z, x = win._shifted(z, shift), win._shifted(x, shift)
    win.head_lost[q] |= win._rows_holding(z & win._head(max(f)))  # f(D^-1) reaches past the head
    nz = nx = 0
    for e in f:  # feed-forward: multiplication by f(D^-1)
        nz ^= win._shifted(z, -e)
    for e in inverse.exponents():  # feedback: the 1/f expansion
        nx ^= win._shifted(x, e)
    # feedback needs the full history: head trouble invalidates the track
    win.prefix[q] |= win._grow(0, w, -1, win.head_lost[q])
    if width:
        win.suffix[q] |= win._grow(win.suffix[q], width, 1, win.tail_lost[q])
    win.tail_lost[q] = win._full  # the expansion continues past the window
    win.z[q], win.x[q] = nz, nx
    win.truncated = win._base


def _pair_bookkeeping(win: BinarySymplecticWindow, a: int, b: int, src_a: int, src_b: int, delays) -> None:
    """Spill flags and intervals of a run of CNOT or CPHASE gates on tracks a and b.

    The closed form of the module docstring.  src_b reaches track b shifted
    by each delay k and src_a reaches track a by -k, so a delay of a side's
    sign spills src_b onto b and the other sign src_a onto a.  The first
    gate runs as one gate from any state.
    """
    ks = [abs(d) for d in delays]
    first, last, twice = ks[0], ks[-1], 2 * (sum(ks) - ks[0])
    for ends, lost, edge, sign in win._sides():
        d = delays[0]
        if d * sign > 0:
            lost[b] |= win._rows_holding(src_b & edge(first))
        elif d:
            lost[a] |= win._rows_holding(src_a & edge(first))
        if lost[a]:
            ends[b] |= win._grow(ends[a], first, sign, lost[a])
            lost[b] |= lost[a]
        if lost[b]:
            ends[a] |= win._grow(ends[b], first, sign, lost[b])
            lost[a] |= lost[b]
        if len(ks) == 1:
            continue
        flagged, u = lost[a], ends[a]
        if flagged:
            ends[a] |= win._grow(u, twice, sign, flagged)
            ends[b] |= win._grow(u, twice - last, sign, flagged)
        reach = [0, 0]  # the greatest |delay| so far of each sign, indexed by d > 0
        reach[d > 0], rest = first, twice
        for d, k in zip(delays[1:], ks[1:]):
            rest -= 2 * k
            if not d or k <= reach[d > 0]:
                continue
            reach[d > 0] = k
            if d * sign > 0:
                new, start = win._rows_holding(src_b & edge(k)) & ~flagged, k
            else:
                new, start = win._rows_holding(src_a & edge(k)) & ~flagged, 2 * k
            if new:
                flagged |= new
                ends[a] |= win._grow(0, start + rest, sign, new)
                ends[b] |= win._grow(0, start + rest - last, sign, new)
        lost[a] = lost[b] = flagged


def _self_bookkeeping(win: BinarySymplecticWindow, a: int, src: int, delays) -> None:
    """Spill flags and intervals of a run of CPHASE_SELF gates on track a, gate by gate.

    A gate of |delay| k spills src off both sides, flagging the rows that
    hold a bit in edge(k), then lengthens every flagged row's intervals by k.
    """
    for ends, lost, edge, sign in win._sides():
        for k in map(abs, delays):
            lost[a] |= win._rows_holding(src & edge(k))
            ends[a] |= win._grow(ends[a], k, sign, lost[a])


# Each finite-depth kind's moves (dst side, dst track, src side, src track, sign), from the gate definitions (control
# a, target b, delay k) and apart from `gates._MOVES`: dst += D^(sign*k) src; a CNOT or CPHASE writes b, then a.
_MOVES = {
    "CNOT": (("X", "b", "X", "a", 1), ("Z", "a", "Z", "b", -1)),  # X_b += D^k X_a;  Z_a += D^-k Z_b
    "CPHASE": (("Z", "b", "X", "a", 1), ("Z", "a", "X", "b", -1)),  # Z_b += D^k X_a;  Z_a += D^-k X_b
    "CPHASE_SELF": (("Z", "a", "X", "a", 1), ("Z", "a", "X", "a", -1)),  # Z_a += (D^k + D^-k) X_a
    "P": (("Z", "a", "X", "a", 0),),  # Z_a += X_a
}


def _steps(circuit: Circuit) -> list:
    """(first gate, delays) per step: adjacent strings of one finite-depth kind, qubits and frame flag are one run."""
    steps, last = [], None
    for g, delays in circuit.strings:
        key = (g.kind, g.i, g.j, g.full_frame) if g.kind in _MOVES else None
        if key is not None and key == last:
            steps[-1][1].extend(delays)
        else:
            steps.append((g, [*delays]))
        last = key
    return steps


def _apply_run(win: BinarySymplecticWindow, kind: str, a: int, b: int | None, delays) -> None:
    """A step: kind gates (CNOT, CPHASE, CPHASE_SELF or P) on tracks a and b with these delays.

    The run writes no plane that it reads, so each move of `_MOVES[kind]`
    XORs its fixed source shifted by sign * k for every delay k; the
    bookkeeping takes the gates' own delays.
    """
    planes, tracks, moves = {"Z": win.z, "X": win.x}, {"a": a, "b": b}, _MOVES[kind]
    sources = [planes[ss][tracks[sq]] for _, _, ss, sq, _ in moves]
    for (ds, dq, _, _, sign), src in zip(moves, sources):
        if src:
            acc = 0
            for k in delays:
                acc ^= win._shifted(src, sign * k)
            planes[ds][tracks[dq]] ^= acc
    if kind == "CPHASE_SELF":
        _self_bookkeeping(win, a, sources[0], delays)
    elif kind != "P":
        _pair_bookkeeping(win, a, b, sources[1], sources[0], delays)


def run_circuit(win: BinarySymplecticWindow, circuit: Circuit) -> BinarySymplecticWindow:
    """Apply the shift-invariant circuit to every row of the window at once, one step per run.

    The steps are `_steps(circuit)`, a finite-depth run run by `_apply_run`
    from this module's `_MOVES`, and H and INF gates steps of one gate.
    """
    out = replace(win, z=list(win.z), x=list(win.x), prefix=list(win.prefix), suffix=list(win.suffix),
                  head_lost=list(win.head_lost), tail_lost=list(win.tail_lost))
    for g, delays in _steps(circuit):
        a, b = gate_columns(g, win.n_per_frame, win.bob_cols)  # the run shares g's qubits
        if g.kind == "INF":
            _apply_inf(out, a, time_reversed_rule(g.f) if g.time_reversed else synthesize_infinite_depth(g.f))
        elif g.kind == "H":
            out.z[a], out.x[a] = out.x[a], out.z[a]
        else:
            _apply_run(out, g.kind, a, b, delays)
    return out


# -- verification ----------------------------------------------------------------


def default_scratch(circuit: Circuit) -> int:
    """Head padding: four frames per infinite-depth degree and the greatest CNOT or CPHASE advance, minimum four."""
    strings = circuit.strings  # a run's greatest advance is one of its strings'
    pads = [4 * g.f.width for g, _ in strings if g.kind == "INF"]
    advances = [-min(delays) for g, delays in strings if g.kind in ("CNOT", "CPHASE")]
    return max(pads + advances + [4])


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
    """Decode the encoded state and test the logical operators.

    `evolved` is spec.encoder on spec.bare.  The decoder is replayed on it
    by `Circuit.apply` (see `verify_code`) rather than the check reading
    `spec.decoded_state`, which the build takes from the stage and tail
    gates, so a replaced or corrupted decoder is judged by what it does.
    Requires: every decoded logical commutes with the decoded stabilizer;
    the X/Z pairing is a unit D^k exactly on matching qubits; and modulo
    the decoded stabilizer each logical localizes to its designated column.

    The stored rows are Laurent numerators over one GF(2)[D] denominator
    each.  A product is N / (d_a(D^-1) d_b(D)), so it vanishes exactly when
    N does and is a unit D^k exactly when N has the coefficient bits of
    d_a(D^-1) d_b(D).  Localization reads the support of each logical row's
    residue modulo the stabilizer's echelon form, which row scaling keeps.
    """
    decoded = spec.decoder.apply(evolved)
    if decoded.info is None or spec.k == 0:
        return True, "no information qubits"
    stab = decoded.nums
    info = [*zip(decoded.info.dens, decoded.info.nums)]
    for i, (_, a) in enumerate(info):
        if any(symplectic_numerator(a, b) for b in stab):
            return False, f"decoded logical row {i + 1} fails to commute with the stabilizer"
    for qa in range(spec.k):
        for qb in range(spec.k):
            (dx, xa), (dz, zb) = info[2 * qa], info[2 * qb + 1]
            prod = symplectic_numerator(xa, zb)
            if qa != qb:
                if prod:
                    return False, f"logical qubits {qa + 1} and {qb + 1} fail to be independent"
            elif prod.bits != (unit := dx.reverse() * dz).bits:
                return False, f"logical pair {qa + 1} has pairing {format_rational(*canonical_pair(prod, unit))} instead of a unit"
            if qa < qb:
                za, xb = info[2 * qa + 1][1], info[2 * qb][1]
                if symplectic_numerator(xa, xb) or symplectic_numerator(za, zb):
                    return False, f"same-type logicals {qa + 1}, {qb + 1} anticommute"
    # localization modulo the decoded stabilizer row space
    rows, pivots = echelon(stab)
    total = decoded.cols
    for q in range(spec.k):
        col = decoded.bob_cols + spec.decoded_cols[q]
        for rrow, allowed, kind in ((2 * q, {total + col}, "X"), (2 * q + 1, {col}, "Z")):
            support = {j for j, e in enumerate(residue(info[rrow][1], rows, pivots)) if e}
            if support != allowed:
                return False, f"logical {kind}{q + 1} does not localize to column {spec.decoded_cols[q] + 1}"
    return True, ""


def _interior_match(win_sim, win_alg):
    """Compare simulated copies against algebraically expanded ones per (source, shift).

    Each source's block of simulated copies is aligned with its block in the
    algebraic window.  A copy is compared only on the frames where its
    tracks are provably exact; copies with nothing provable left are skipped.
    """
    w, stride = win_sim.window, win_sim.window + 1
    alg = {blk.source: blk for blk in win_alg.blocks}
    compared, mismatches = 0, []
    for blk in win_sim.blocks:
        other = alg.get(blk.source)
        if other is None:
            continue
        lo = max(blk.shift, other.shift)
        count = min(blk.shift + blk.count, other.shift + other.count) - lo
        if count <= 0:
            continue
        at_sim = (blk.first + lo - blk.shift) * stride
        at_alg = (other.first + lo - other.shift) * stride
        base = _repeat(count, stride)
        full = (base << w) - base
        exact_any = wrong_any = 0
        for q in range(win_sim.n_per_frame):
            exact = ~((win_sim.prefix[q] | win_sim.suffix[q]) >> at_sim) & full
            wrong = ((win_sim.z[q] >> at_sim) ^ (win_alg.z[q] >> at_alg)) | ((win_sim.x[q] >> at_sim) ^ (win_alg.x[q] >> at_alg))
            exact_any |= exact
            wrong_any |= wrong & exact
        compared += (((exact_any + full) >> w) & base).bit_count()
        bad = ((wrong_any + full) >> w) & base
        while bad:
            low = bad & -bad
            mismatches.append((blk.label, lo + (low.bit_length() - 1) // stride))
            bad ^= low
    return compared, mismatches


def _sender_numerators(qcm: QuantumCheckMatrix) -> list[list[LaurentPoly]]:
    """The sender-side numerators of qcm's stored rows (Z half then X half), which span its sender-side row space."""
    b, m = qcm.bob_cols, qcm.cols
    return [[*row[b:m], *row[m + b:]] for row in qcm.nums]


def verify_code(spec, window: int = 32, scratch: int | None = None) -> VerificationReport:
    """The four-part verification of a built code.

    (a) every pair of final stabilizer rows has a vanishing shifted
        symplectic product; (b) the sender-side rows span the same space as
        the input check matrices; (c) decoding restores each logical pair to
        its designated column; (d) the run-by-run window simulation of the
        encoder agrees with the algebraic stabilizer inside the window.

    Checks (a)-(c) run on the stored rows, Laurent numerators over one
    GF(2)[D] denominator per row, with no rational arithmetic.  Three facts
    keep them exact: a row space over GF(2)(D) does not change when a row
    is scaled by a nonzero polynomial; a shifted symplectic product is
    N(D) / (d_i(D^-1) d_j(D)), so it vanishes exactly when its numerator N
    does; and a fully reduced echelon form is unique up to row scaling.
    The input check matrices are eliminated once, for both the stored and
    the re-encoded stabilizer, and those two share one elimination when
    their primitive rows agree, as for a built spec.

    Checks (b) and (c) run spec.encoder on spec.bare and spec.decoder on
    the result by `Circuit.apply`.  A built spec, traced or not, keeps its
    encoder's replay on that very bare stream, so the encoder runs no more;
    its build never runs the decoder, so check (c) replays it once.  A
    circuit or bare stream replaced since is another object and is
    replayed, so every check judges the circuits it is given.
    """
    if scratch is None:
        scratch = default_scratch(spec.encoder)
    scratch = min(scratch, window // 3)  # keep an interior even for wide factors
    checks = []

    num = spec.final_stabilizer.symplectic_numerators()[1]
    bad = [(i, j) for i, row in enumerate(num) for j, e in enumerate(row) if e]
    checks.append(CheckResult(
        "commutation",
        not bad,
        "" if not bad else f"rows {bad[:4]} fail the shifted symplectic product",
    ))

    zero = [ZERO] * spec.n
    target = [row + zero for row in spec.h1] + [zero + row for row in spec.h2]
    alice = _sender_numerators(spec.final_stabilizer)
    evolved = spec.encoder.apply(spec.bare)
    ok_span = row_space_equal(target, alice, _sender_numerators(evolved))
    checks.append(CheckResult(
        "row-space equivalence",
        ok_span,
        "" if ok_span
        else ("stored" if not row_space_equal(target, alice) else "re-encoded")
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
