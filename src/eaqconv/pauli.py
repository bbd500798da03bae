"""Check rows and the shifted symplectic product.

A check row is one (z | x) row of a quantum check matrix over rational
functions in D.  The shifted symplectic product of two rows,

    (h1 (.) h2)(D) = z1(D^-1) . x2(D) + x1(D^-1) . z2(D),

vanishes exactly when the two Pauli sequences commute under every n-qubit
shift.  With each row written as Laurent numerators over one GF(2)[D] row
denominator, the product is N(D) / (d1(D^-1) d2(D)); `symplectic_numerator`
computes N alone, and the product vanishes exactly when N does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .poly import ZERO, LaurentPoly, RationalPoly, common_denominator


@dataclass(frozen=True)
class CheckRow:
    """One (z | x) row of a quantum check matrix over rational functions."""

    z: tuple[RationalPoly, ...]
    x: tuple[RationalPoly, ...]

    def __post_init__(self):
        if len(self.z) != len(self.x):
            raise DimensionMismatch("z and x halves differ in length")
        object.__setattr__(self, "z", tuple(RationalPoly.of(e) for e in self.z))
        object.__setattr__(self, "x", tuple(RationalPoly.of(e) for e in self.x))

    @property
    def n(self) -> int:
        return len(self.z)

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for e in self.z + self.x)


def symplectic_numerator(a: list[LaurentPoly], b: list[LaurentPoly]) -> LaurentPoly:
    """The Laurent numerator N of the shifted symplectic product of two rows.

    a and b are (Z half, then X half) Laurent numerator rows over row
    denominators d_a and d_b.  Then (a (.) b)(D) = N(D) / (d_a(D^-1) d_b(D)),
    with N = z_a(D^-1).x_b(D) + x_a(D^-1).z_b(D), so the product vanishes
    exactly when N does.  Swapping the rows reverses N.
    """
    n = len(a) // 2
    acc = ZERO
    for p, q in zip(a, b[n:] + b[:n]):
        if p and q:
            acc = acc + p.reverse() * q
    return acc


def shifted_symplectic(h1: CheckRow, h2: CheckRow) -> RationalPoly:
    """(h1 (.) h2)(D) = z1(D^-1).x2(D) + x1(D^-1).z2(D)."""
    if h1.n != h2.n:
        raise DimensionMismatch(f"rows over {h1.n} and {h2.n} qubits")
    d1, a = common_denominator([(e.num, e.den) for e in h1.z + h1.x])
    d2, b = common_denominator([(e.num, e.den) for e in h2.z + h2.x])
    return RationalPoly(symplectic_numerator(a, b), d1.reverse() * d2)
