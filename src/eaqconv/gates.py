"""Shift-invariant Clifford gates acting on quantum check matrices.

Gates are column operations on the paired (Z | X) polynomial matrices.  With
control a, target b and frame delay k:

  CNOT        X col b += D^k  X col a;   Z col a += D^-k Z col b
  Hadamard    swaps Z col a with X col a
  Phase       Z col a += X col a
  CPhase      Z col b += D^k  X col a;   Z col a += D^-k X col b
  CPhaseSelf  Z col a += (D^k + D^-k) X col a
  InfDepth    X col a *= 1/f(D);         Z col a *= f(D^-1)
  InfDepth'   X col a *= 1/f(D^-1);      Z col a *= f(D)    (time-reversed)

Each finite-depth gate's column action is written once, in the move table
`_MOVES`: moves (dst side, dst qubit, src side, src qubit, delay sign) that
add a shifted source column into a destination column; H swaps the two
sides of column a, and InfDepth updates the rows it touches.  The window of
`simulate` has its own moves and steps, so it tests this table and the
steps.  `Circuit.apply` runs on the rows a `QuantumCheckMatrix` stores,
Laurent numerators (Z entries, then X entries) over one GF(2)[D] row
denominator in lowest terms, as planes, one int per row position with every
row stacked in it, so a move is one shift and one XOR over all rows.
Finite-depth gates act on a row's numerators by a column operation that
is invertible over the Laurent ring, so a row stays in lowest terms and
keeps its denominator; only InfDepth changes a denominator, and it
reduces again the rows it touched.

A circuit holds gate strings, as the paper writes its operations: a column
operation by f(D) is one string (gate, delays), a CNOT from qubit i to j
whose delays are the terms of f in logged order, the gate carrying the
fields the terms share (its own delay is that of one term).  A column swap
is three one-term strings, and H and InfDepth are strings of their own.
`Circuit.gates` is a view with one `Gate` per term, formed on first read.
A circuit runs in (first gate, delays) steps, merged once per `Circuit`:
adjacent strings of one finite-depth kind with the same qubits and frame
flag, whatever their notes, are one step.  No move of such a gate reads a
column that another writes, so the gates of a step commute, and each move
adds the source shifted by the move's sign times each delay.  H and
InfDepth are steps of one gate.  A plane that a step could shift out of
its row is laid out again on the ints, each row's slice moved to the new
stride and offset; only INF steps and the result unpack the planes.
A circuit keeps its last replay and returns it for that very input object,
a key that costs nothing where comparing rows would read them all: a build
and its verification pass the same objects, so they share each circuit's
replay.  `apply_gate` runs one gate as a circuit of its own; the
construction's trace steps its states through it, gate by gate.

Gate qubit indices address the sender's (Alice's) columns; the receiver-side
columns sit to the left of them and only gates flagged full_frame (used by
decoding circuits, where the receiver holds every qubit) may address those.

Infinite-depth operations are realized physically by a sliding window of
CNOTs on one qubit track: the window spans N = deg(f) - del(f) + 1 frames
and one CNOT per nonzero exponent e >= 1 of f feeds window frame N - e into
frame N; applying the window at every frame in turn produces the 1/f(D)
expansion on the X side and f(D^-1) on the Z side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DimensionMismatch
from .pauli import CheckRow, symplectic_numerator
from .poly import ONE, ZERO, LaurentPoly, canonical_pair, common_denominator, format_poly, lowest_terms
from .polymat import PolyMatrix

_KINDS = ("CNOT", "H", "P", "CPHASE", "CPHASE_SELF", "INF")


class _GateFields(NamedTuple):
    kind: str
    i: int
    j: int | None = None
    delay: int = 0
    f: LaurentPoly | None = None
    time_reversed: bool = False
    full_frame: bool = False
    note: str = ""


class Gate(_GateFields):
    """One gate: a tuple record of its eight fields, checked on construction.

    A circuit's string holds one gate for all its terms, and the view
    `Circuit.gates` copies it with each other delay; a gate costs one
    tuple and no instance dict.  Fields read by name and cannot be
    assigned (AttributeError).  Like any tuple, a gate also compares equal
    to a plain tuple of its fields and has len and iteration; nothing relies
    on either, nor on `dataclasses.replace` or `fields`, which a gate lacks.
    """

    __slots__ = ()

    def __new__(cls, kind, i, j=None, delay=0, f=None, time_reversed=False, full_frame=False, note=""):
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "CNOT" or kind == "CPHASE":
            if j is None:
                raise ValueError(f"{kind} needs a target qubit")
            if j == i:
                raise ValueError(f"{kind} control and target coincide")
        elif kind == "INF" and (f is None or f.is_zero()):
            raise ValueError("infinite-depth gate needs a nonzero polynomial")
        return tuple.__new__(cls, (kind, i, j, delay, f, time_reversed, full_frame, note))


def cnot(i: int, j: int, delay: int = 0, **kw) -> Gate:
    return Gate("CNOT", i, j, delay, **kw)


def hadamard(i: int, **kw) -> Gate:
    return Gate("H", i, **kw)


def phase(i: int, **kw) -> Gate:
    return Gate("P", i, **kw)


def cphase(i: int, j: int, delay: int = 0, **kw) -> Gate:
    return Gate("CPHASE", i, j, delay, **kw)


def cphase_self(i: int, delay: int = 0, **kw) -> Gate:
    return Gate("CPHASE_SELF", i, delay=delay, **kw)


def inf_depth(i: int, f: LaurentPoly, time_reversed: bool = False, **kw) -> Gate:
    return Gate("INF", i, f=f, time_reversed=time_reversed, **kw)


def swap(i: int, j: int, **kw) -> list[Gate]:
    """SWAP expressed as three delay-0 CNOTs."""
    return [cnot(i, j, 0, **kw), cnot(j, i, 0, **kw), cnot(i, j, 0, **kw)]


# -- quantum check matrices ---------------------------------------------------


@dataclass(frozen=True, init=False)
class QuantumCheckMatrix:
    """Paired (Z | X) rows over rational functions with a column split.

    Each row [Z(D) | X(D)] is stored once, in lowest terms: nums[r] holds
    the Laurent numerators of its cols Z entries and then its cols X entries
    over one row denominator dens[r], a polynomial in GF(2)[D] with constant
    term 1 that shares no factor with all of the row's numerators.  dens[r]
    is then the lcm of the row's entry denominators, the form is unique, and
    equality compares rows.  `z` and `x` are the halves as PolyMatrix rows,
    each reduced again, formed on first use by `row` and the tests; the
    reports print the rows themselves.

    The leftmost bob_cols columns belong to the receiver (ebit halves); the
    remaining columns are the sender's.  `info` carries the parallel
    logical-operator matrix with the same column layout.
    """

    nums: tuple[tuple[LaurentPoly, ...], ...]
    dens: tuple[LaurentPoly, ...]
    cols: int
    bob_cols: int = 0
    row_labels: tuple[str, ...] = ()
    info: QuantumCheckMatrix | None = None

    def __init__(self, z: PolyMatrix, x: PolyMatrix, bob_cols: int = 0, row_labels=(), info=None):
        """The check matrix with Z entries z and X entries x; each row is written over its lcm denominator."""
        if (z.rows, z.cols) != (x.rows, x.cols):
            raise DimensionMismatch("Z and X halves differ in shape")
        lcms = [common_denominator([(ONE, zd), (ONE, xd)]) for zd, xd in zip(z.dens, x.dens)]  # (m, [m/zd, m/xd])
        nums = (*((*(e * fz for e in zr), *(e * fx for e in xr)) for (_, (fz, fx)), zr, xr in zip(lcms, z.nums, x.nums)),)
        self._fill(nums, (*(m for m, _ in lcms),), z.cols, bob_cols, row_labels, info)
        vars(self).update(z=z, x=x)  # the given halves are the views

    @classmethod
    def from_rows(cls, nums, dens, cols: int, bob_cols: int = 0, row_labels=(), info=None) -> QuantumCheckMatrix:
        """The check matrix of rows already in lowest terms, each row's Z numerators then its X numerators."""
        qcm = object.__new__(cls)
        qcm._fill(nums, dens, cols, bob_cols, row_labels, info)
        return qcm

    def _fill(self, nums, dens, cols, bob_cols, row_labels, info):
        if not 0 <= bob_cols <= cols:
            raise DimensionMismatch("bob_cols out of range")
        if row_labels and len(row_labels) != len(dens):
            raise DimensionMismatch("one label per row")
        if info is not None and (info.cols != cols or info.bob_cols != bob_cols):
            raise DimensionMismatch("info matrix must share the column layout")
        row_labels = tuple(row_labels)
        vars(self).update(nums=nums, dens=dens, cols=cols, bob_cols=bob_cols, row_labels=row_labels, info=info)

    @cached_property
    def z(self) -> PolyMatrix:
        return PolyMatrix.from_rows([lowest_terms(d, n[:self.cols]) for n, d in zip(self.nums, self.dens)], self.cols)

    @cached_property
    def x(self) -> PolyMatrix:
        return PolyMatrix.from_rows([lowest_terms(d, n[self.cols:]) for n, d in zip(self.nums, self.dens)], self.cols)

    @property
    def rows(self) -> int:
        return len(self.dens)

    def row(self, i: int) -> CheckRow:
        return CheckRow(self.z.entries[i], self.x.entries[i])

    def symplectic_numerators(self) -> tuple[list[LaurentPoly], list[list[LaurentPoly]]]:
        """(dens, N): the product of rows i and j is N[i][j] / (dens[i](D^-1) dens[j](D)).

        Only i <= j is multiplied out; N[j][i] is N[i][j](D^-1).
        """
        rows = self.nums
        num = [[ZERO] * len(rows) for _ in rows]
        for i, a in enumerate(rows):
            for j in range(i, len(rows)):
                num[i][j] = symplectic_numerator(a, rows[j])
                num[j][i] = num[i][j].reverse()
        return list(self.dens), num

    def symplectic_gram(self) -> PolyMatrix:
        """All pairwise shifted symplectic products, over every column."""
        dens, num = self.symplectic_numerators()
        rows = [common_denominator([canonical_pair(n, di.reverse() * dj) for n, dj in zip(row, dens)])
                for row, di in zip(num, dens)]
        return PolyMatrix.from_rows(rows, len(rows))

    def is_polynomial(self) -> bool:
        return all(d == ONE for d in self.dens)


def gate_columns(g: Gate, cols: int, bob_cols: int) -> tuple[int, int | None]:
    """The frame columns (a, b) that g addresses; b is None for one-qubit gates.

    Raises IndexError when a qubit lies outside the sender's columns, or
    outside the frame for a full_frame gate.
    """

    def col(idx):
        if g.full_frame:
            if not 0 <= idx < cols:
                raise IndexError(f"gate qubit {idx} outside the frame")
            return idx
        if not 0 <= idx < cols - bob_cols:
            raise IndexError(f"gate addressed outside the sender's qubits (index {idx})")
        return bob_cols + idx

    return col(g.i), (col(g.j) if g.j is not None else None)


# A finite-depth gate's column action as moves (dst side, dst qubit, src side,
# src qubit, delay sign): side 0 is Z and 1 is X, qubit 0 is a and 1 is b, and
# each move adds D^(sign*delay) times the source column into the destination
# column; in `_Planes` a move addresses plane side*cols + column.  No move
# reads a column that another move of the same gate writes.
_MOVES = {
    "CNOT": ((1, 1, 1, 0, 1), (0, 0, 0, 1, -1)),
    "P": ((0, 0, 1, 0, 0),),
    "CPHASE": ((0, 1, 1, 0, 1), (0, 0, 1, 1, -1)),
    "CPHASE_SELF": ((0, 0, 1, 0, 1), (0, 0, 1, 0, -1)),
}


def _inf_rows(g: Gate, a: int, rows, dens, cols: int) -> None:
    """Apply the InfDepth gate g on frame column a to numerator rows (Z entries, then X entries) over dens.

    With f = f0 D^k and f0 delay-free, a row with a nonzero X entry at a
    moves to denominator den*f0, its other entries take the factor f0 and
    that X entry the factor D^-k; its Z entry at a takes the factor
    f(D^-1).  Each row it changes is then brought to lowest terms.
    """
    fwd = g.f.reverse() if g.time_reversed else g.f
    f0, k = fwd.delay_free()
    zmul, xa = fwd.reverse(), cols + a
    for r, row in enumerate(rows):
        if not (row[xa] or row[a]):
            continue
        if row[xa]:
            x = row[xa].shift(-k)
            row[:] = [e * f0 for e in row]
            row[xa] = x
            dens[r] = dens[r] * f0
        if row[a]:
            row[a] = row[a] * zmul
        dens[r], row[:] = lowest_terms(dens[r], row)


def apply_gate(qcm: QuantumCheckMatrix, g: Gate) -> QuantumCheckMatrix:
    """qcm after g, on the stabilizer and info matrices; qcm itself is unchanged."""
    return Circuit((g,)).apply(qcm)


class _Planes:
    """Laurent numerator rows held as one int per row position, for whole-column gates.

    bits[p] stacks every row's entry at position p, plane c for Z column c
    and plane cols + c for X column c: exponent e of row r sits at bit
    r*stride + offset + e, so a move by d is one shift and one XOR over all
    rows, and stays exact while every exponent it writes lies in
    [-offset, stride - offset).  hull[p] is a conservative (lo, hi)
    exponent range of plane p, None when it is zero; packing and re-laying
    make it exact.
    """

    __slots__ = ("nrows", "cols", "stride", "offset", "bits", "hull")

    def __init__(self, rows, cols: int):
        """Pack numerator rows in one pass over their entries' bits and lows; `run` re-lays them for long moves."""
        self.nrows, self.cols = len(rows), cols
        self.bits, self.hull = [0] * (2 * cols), []
        self._lay([[(r, e.bits, e.low) for r, row in enumerate(rows) if (e := row[p]).bits] for p in range(2 * cols)], 0)

    def _lay(self, terms, reach: int) -> None:
        """Pack terms[p], the (row, bits, low) of each nonzero entry of plane p, with exact hulls.

        The exponents [lo, hi] of all entries are padded by
        max(64, hi - lo, 2*reach) on each side, so moves by up to reach stay
        exact.  The planes and hulls are written into this object's lists,
        which `run` holds.
        """
        self.hull[:] = [(min(low for _, _, low in ts), max(low + b.bit_length() for _, b, low in ts) - 1) if ts else None
                        for ts in terms]
        ends = [h for h in self.hull if h]
        lo, hi = (min(h[0] for h in ends), max(h[1] for h in ends)) if ends else (0, 0)
        pad = max(64, hi - lo, 2 * reach)
        self.offset, self.stride = offset, stride = pad - lo, hi - lo + 1 + 2 * pad
        bits = self.bits
        for p, ts in enumerate(terms):
            v = 0
            for r, b, low in ts:
                v |= b << (r * stride + offset + low)
            bits[p] = v

    def _relay(self, reach: int) -> None:
        """Lay the planes out again for moves by up to reach: each row's slice moves to the new stride and offset.

        A slice e with k trailing zeros is the term (e >> k, k - offset).
        """
        stride, offset, mask, rows = self.stride, self.offset, (1 << self.stride) - 1, range(self.nrows)
        terms = [[(r, e >> (k := (e & -e).bit_length() - 1), k - offset)
                  for r in rows if (e := (v >> (r * stride)) & mask)] if v else () for v in self.bits]
        self._lay(terms, reach)

    def column(self, p: int) -> list[LaurentPoly]:
        """Plane p as one LaurentPoly per row, the shared ZERO for a zero row."""
        v, stride = self.bits[p], self.stride
        if not v:
            return [ZERO] * self.nrows
        mask, low = (1 << stride) - 1, -self.offset
        return [LaurentPoly(e, low) if (e := (v >> (r * stride)) & mask) else ZERO for r in range(self.nrows)]

    def rows(self) -> list[tuple[LaurentPoly, ...]]:
        """The numerator rows, Z entries then X entries; a matrix with no columns keeps its empty rows."""
        return [*zip(*map(self.column, range(2 * self.cols)))] or [()] * self.nrows

    def swap(self, c: int) -> None:
        """Exchange the Z and X planes of column c (the Hadamard)."""
        bits, hull, x = self.bits, self.hull, self.cols + c
        bits[c], bits[x] = bits[x], bits[c]
        hull[c], hull[x] = hull[x], hull[c]

    def run(self, kind: str, a: int, b: int | None, delays) -> None:
        """Apply a run of kind gates on columns a and b with these delays.

        Each move of `_MOVES[kind]` sets dst ^= the XOR of src shifted by
        sign * d for every delay d.  No move reads a plane that another move
        writes, so this is the run of gates in any order.  The planes are
        first laid out again when a shift by the least or greatest signed
        delay could leave a row.
        """
        bits, hull, cols, ab, least, most = self.bits, self.hull, self.cols, (a, b), min(delays), max(delays)
        for ds, dq, ss, sq, sign in _MOVES[kind]:
            dp, sp = ds * cols + ab[dq], ss * cols + ab[sq]
            src = hull[sp]
            if src is None:
                continue
            dlo, dhi = (-most, -least) if sign < 0 else (sign * least, sign * most)
            if src[0] + dlo < -self.offset or src[1] + dhi >= self.stride - self.offset:
                self._relay(max(dhi, -dlo))
                src = hull[sp]
            v, w = bits[sp], bits[dp]
            for d in delays:
                d *= sign
                w ^= v << d if d >= 0 else v >> -d
            bits[dp] = w
            dst, lo, hi = hull[dp], src[0] + dlo, src[1] + dhi
            if not w:
                hull[dp] = None
            elif dst is None:
                hull[dp] = lo, hi
            else:
                hull[dp] = dst[0] if dst[0] < lo else lo, dst[1] if dst[1] > hi else hi


# -- circuits -------------------------------------------------------------------


class Circuit:
    """Gate strings in order, each (gate, delays) as the module docstring says; len() counts their terms."""

    def __init__(self, gates=()):
        """The circuit of these gates, one string each; `_runs` merges them into steps."""
        self.strings = tuple((g, (g.delay,)) for g in gates)

    @classmethod
    def from_strings(cls, strings) -> Circuit:
        """The circuit of these (gate, delays) strings, each with at least one delay."""
        circuit = object.__new__(cls)
        circuit.strings = tuple(strings)
        return circuit

    def __len__(self) -> int:
        return sum(len(delays) for _, delays in self.strings)

    def __iter__(self):
        return iter(self.gates)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """One gate per term: a string's gate where the term has its delay, else a copy of it with the term's delay."""
        return tuple(g if d == g.delay else g._replace(delay=d) for g, delays in self.strings for d in delays)

    def is_finite_depth(self) -> bool:
        return all(g.kind != "INF" for g, _ in self.strings)

    def inverse(self) -> Circuit:
        """Strings and their delays reversed: every finite-depth gate is an involution in the binary picture."""
        if not self.is_finite_depth():
            raise ValueError("cannot invert a circuit with infinite-depth operations")
        return Circuit.from_strings([(g, delays[::-1]) for g, delays in reversed(self.strings)])

    @cached_property
    def _runs(self) -> tuple:
        """The replay steps, (first gate, delays): adjacent strings of one finite-depth kind on the same qubits and
        frame flag merge into one step, whatever their notes.  A string that merges with none is its own step."""
        runs, prev = [], None
        for s in self.strings:
            g = s[0]
            if prev and g.kind == prev.kind and g.i == prev.i and g.j == prev.j and g.full_frame == prev.full_frame:
                if merged is None:
                    merged = list(runs[-1][1])
                    runs[-1] = prev, merged
                merged += s[1]
            else:
                runs.append(s)
                prev, merged = (g if g.kind in _MOVES else None), None
        return tuple(runs)

    def apply(self, qcm: QuantumCheckMatrix) -> QuantumCheckMatrix:
        """The rows qcm's rows end as after the gates: qcm itself when there are none.

        The circuit keeps its last input and result, and a call on that very
        input object returns the stored result: check matrices are
        immutable, so a replay would give equal rows.  An equal but distinct
        input is replayed.
        """
        if not self.strings:
            return qcm
        last = vars(self).get("_last")
        if last is None or last[0] is not qcm:
            last = vars(self)["_last"] = qcm, self._replay(qcm)
        return last[1]

    def _replay(self, qcm: QuantumCheckMatrix) -> QuantumCheckMatrix:
        """Run the gates on column planes of qcm's rows and return the rows they end as.

        The stabilizer and info numerators are held as `_Planes`: one int per
        row position holding every row.  Each step of `_runs`, (first
        gate, delays), is a run of finite-depth gates with the same kind,
        qubits and frame flag: `_Planes.run` makes the moves of its kind, each XORing its
        source shifted by the move's sign times every delay (H swaps two
        planes); it leaves every denominator as it is.  INF unpacks
        the rows, updates them and their denominators, and packs them again.
        The result's rows are read off the planes column by column.
        """
        cols, split, bob_cols = qcm.cols, qcm.rows, qcm.bob_cols
        mats = (qcm,) if qcm.info is None else (qcm, qcm.info)
        dens = [d for m in mats for d in m.dens]
        planes = _Planes([row for m in mats for row in m.nums], cols)
        for g, delays in self._runs:
            a, b = gate_columns(g, cols, bob_cols)  # the run shares g's qubits
            if g.kind == "INF":
                rows = [*map(list, planes.rows())]
                _inf_rows(g, a, rows, dens, cols)
                planes = _Planes(rows, cols)
            elif g.kind == "H":
                planes.swap(a)
            else:
                planes.run(g.kind, a, b, delays)
        nums, ds = tuple(planes.rows()), tuple(dens)
        info = qcm.info
        if info is not None:
            info = QuantumCheckMatrix.from_rows(nums[split:], ds[split:], cols, bob_cols, info.row_labels)
        return QuantumCheckMatrix.from_rows(nums[:split], ds[:split], cols, bob_cols, qcm.row_labels, info)


def format_string(g: Gate, delays) -> list[str]:
    """The `format_gate` line of each term of the string (g, delays); the text before the delay is formed once."""
    star = "*" if g.full_frame else ""
    if g.kind == "INF":
        rev = " reversed" if g.time_reversed else ""
        return [f"INF {star}{g.i + 1} f={format_poly(g.f)}{rev}"] * len(delays)
    stem = f"{g.kind} {star}{g.i + 1}"
    if g.kind == "H" or g.kind == "P":
        return [stem] * len(delays)
    if g.j is not None:
        stem += f" {star}{g.j + 1}"
    stem += " delay="
    return [stem + d for d in map(str, delays)]


def format_gate(g: Gate) -> str:
    return format_string(g, (g.delay,))[0]


# -- infinite-depth synthesis ----------------------------------------------------


@dataclass(frozen=True)
class SlidingWindowRule:
    """The per-frame CNOT block realizing an infinite-depth operation.

    cnot_pattern entries are 1-based frame positions inside the N-frame
    window; scratch_frames is the head shift applied to the track before the
    window starts sliding (positive delays, negative advances).
    """

    window: int
    cnot_pattern: tuple[tuple[int, int], ...]
    scratch_frames: int = 0

    def __post_init__(self):
        for a, b in self.cnot_pattern:
            if not (1 <= a <= self.window and 1 <= b <= self.window):
                raise ValueError("pattern outside the window")


def _base_rule(f0: LaurentPoly, scratch: int) -> SlidingWindowRule:
    n = f0.width + 1
    pattern = tuple(sorted((n - e, n) for e in f0.exponents() if e >= 1))
    return SlidingWindowRule(window=n, cnot_pattern=pattern, scratch_frames=scratch)


def synthesize_infinite_depth(f: LaurentPoly) -> SlidingWindowRule:
    """Sliding-window CNOTs that multiply a track's X side by 1/f(D).

    The minimal-support solution: one CNOT per nonzero exponent e >= 1 of the
    delay-free part, feeding window frame N - e into frame N.  Larger CNOT
    sets realize the same transformation; this one is the canonical choice.
    """
    if f.is_zero():
        raise ValueError("cannot invert the zero polynomial")
    f0, d = f.delay_free()
    return _base_rule(f0, scratch=-d)


def time_reversed_rule(f: LaurentPoly) -> SlidingWindowRule:
    """Sliding-window CNOTs for 1/f(D^-1): delay by m = deg - del, then run
    the rule of the reversal polynomial D^m f(D^-1)."""
    if f.is_zero():
        raise ValueError("cannot invert the zero polynomial")
    f0, d = f.delay_free()
    m = f0.width
    g = f0.reverse().shift(m)  # the reversal polynomial, delay-free by construction
    return _base_rule(g, scratch=m + d)
