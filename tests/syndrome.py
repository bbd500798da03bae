"""Syndromes of sparse Pauli errors against the rows of a simulation window.

Only the tests measure syndromes, so this lives beside them rather than in
`eaqconv.simulate`; it reads the window through its unpacked `rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

from eaqconv.errors import WindowTooSmall
from eaqconv.simulate import BinarySymplecticWindow


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


def syndrome(win: BinarySymplecticWindow, error: ErrorPattern) -> tuple[int, ...]:
    """One symplectic-product bit per stabilizer row of the window."""
    ez, ex = error.masks(win)
    bits = []
    for row in win.rows:
        parity = (bin(ez & row.x).count("1") + bin(ex & row.z).count("1")) % 2
        bits.append(parity)
    return tuple(bits)
