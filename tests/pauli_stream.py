"""Pauli frame streams, their binary-polynomial encoding and a brute-force commutation oracle.

A stream is a finite-support sequence of n-qubit frames of letters I, X, Y,
Z.  The encoding maps frame t of qubit q to a D^t contribution: an X letter
sets a bit of the x polynomial for column q, a Z letter sets the z
polynomial, a Y sets both.  Phases are dropped; the map is lossy on phase
information by design.

`commute_oracle` re-derives by brute force on the letter streams that two
rows commute under every n-qubit shift exactly when their shifted
symplectic product (`eaqconv.pauli.shifted_symplectic`) vanishes; it is the
independent check for that algebra.  Only the tests use this layer, so it
lives beside them rather than in `eaqconv.pauli`.

Text form: frames separated by '|', letters IXYZ, e.g. 'XXX|XZY'.
"""

from __future__ import annotations

from dataclasses import dataclass

from eaqconv.errors import PolyParseError
from eaqconv.pauli import CheckRow
from eaqconv.poly import LaurentPoly, RationalPoly, series_expand

_LETTERS = "IXYZ"
_TO_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_FROM_BITS = {(0, 0): "I", (0, 1): "X", (1, 1): "Y", (1, 0): "Z"}


@dataclass(frozen=True)
class PauliFrameStream:
    """Finite-support stream of n-qubit Pauli frames starting at start_frame."""

    n: int
    frames: tuple[str, ...]
    start_frame: int = 0

    def __post_init__(self):
        for f in self.frames:
            if len(f) != self.n or any(c not in _LETTERS for c in f):
                raise ValueError(f"bad frame {f!r} for n={self.n}")
        frames = list(self.frames)
        start = self.start_frame
        while frames and set(frames[0]) == {"I"}:
            frames.pop(0)
            start += 1
        while frames and set(frames[-1]) == {"I"}:
            frames.pop()
        if not frames:
            start = 0
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "start_frame", start)

    @classmethod
    def identity(cls, n: int) -> PauliFrameStream:
        return cls(n, ())

    def weight(self) -> int:
        return sum(1 for f in self.frames for c in f if c != "I")

    def letter(self, frame: int, qubit: int) -> str:
        idx = frame - self.start_frame
        if 0 <= idx < len(self.frames):
            return self.frames[idx][qubit]
        return "I"

    def shifted(self, l: int) -> PauliFrameStream:
        """The nl-qubit shift: every frame moves l frames later."""
        return PauliFrameStream(self.n, self.frames, self.start_frame + l)

    def __str__(self) -> str:
        return format_stream(self)


def parse_stream(text: str, n: int | None = None) -> PauliFrameStream:
    frames = tuple("".join(f.split()) for f in text.strip().split("|"))
    if not frames or not frames[0]:
        raise PolyParseError("empty Pauli stream")
    width = len(frames[0])
    if n is not None and width != n:
        raise PolyParseError(f"frame width {width} != n={n}")
    for f in frames:
        if len(f) != width:
            raise PolyParseError(f"ragged frame {f!r}")
        if any(c not in _LETTERS for c in f):
            raise PolyParseError(f"bad letter in frame {f!r}")
    return PauliFrameStream(width, frames)


def format_stream(s: PauliFrameStream) -> str:
    if not s.frames:
        return "I" * s.n if s.n else ""
    return "|".join(s.frames)


def p2b(stream: PauliFrameStream) -> CheckRow:
    """Encode a finite-support Pauli stream as a (z | x) polynomial row."""
    z = [LaurentPoly.zero()] * stream.n
    x = [LaurentPoly.zero()] * stream.n
    for idx, frame in enumerate(stream.frames):
        t = stream.start_frame + idx
        for q, letter in enumerate(frame):
            zb, xb = _TO_BITS[letter]
            if zb:
                z[q] = z[q] + LaurentPoly.term(t)
            if xb:
                x[q] = x[q] + LaurentPoly.term(t)
    return CheckRow(tuple(RationalPoly(p) for p in z), tuple(RationalPoly(p) for p in x))


def b2p(row: CheckRow, lo: int, hi: int) -> PauliFrameStream:
    """Decode a row back to letters on the frame window [lo, hi].

    Rational entries are expanded as ascending series and truncated to the
    window; the caller owns the window choice, there is no silent default.
    """
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    zs = [series_expand(e, lo, hi) for e in row.z]
    xs = [series_expand(e, lo, hi) for e in row.x]
    frames = []
    for t in range(lo, hi + 1):
        frames.append("".join(_FROM_BITS[(zs[q].coeff(t), xs[q].coeff(t))] for q in range(row.n)))
    return PauliFrameStream(row.n, tuple(frames), lo)


def _anticommute(a: str, b: str) -> bool:
    z1, x1 = _TO_BITS[a]
    z2, x2 = _TO_BITS[b]
    return bool((z1 & x2) ^ (x1 & z2))


def commute_oracle(h1: CheckRow, h2: CheckRow, max_shift: int) -> bool:
    """Brute-force commutation check over all relative frame shifts.

    Expands both rows to letters and counts anticommuting positions for every
    relative n-qubit shift in [-max_shift, max_shift]; true iff every count
    is even.  Polynomial rows only.
    """
    if not (h1.is_polynomial() and h2.is_polynomial()):
        raise ValueError("commute_oracle works on polynomial rows")
    supports = []
    for row in (h1, h2):
        exps = [k for e in row.z + row.x if not e.is_zero() for k in e.num.exponents()]
        supports.append((min(exps), max(exps)) if exps else (0, 0))
    lo = min(supports[0][0], supports[1][0]) - max_shift
    hi = max(supports[0][1], supports[1][1]) + max_shift
    s1 = b2p(h1, lo, hi)
    s2 = b2p(h2, lo, hi)
    for shift in range(-max_shift, max_shift + 1):
        count = 0
        for t in range(lo - max_shift, hi + max_shift + 1):
            for q in range(h1.n):
                if _anticommute(s1.letter(t - shift, q), s2.letter(t, q)):
                    count += 1
        if count % 2:
            return False
    return True
