"""The Smith decomposition with its witnesses, and rational matrix arithmetic, as a test oracle.

The package reduces Laurent grids and keeps only what the construction
reads: the invariant factors (`eaqconv.polymat.invariant_factors`) and H1's
row basis (`eaqconv.construct.validate_inputs`).  This module keeps what
the tests check them against, on the package's own Smith engine:

- `PolyMatrix`: the package's `PolyMatrix` with sums, products, transposes,
  D -> D^-1, identities, entry indexing and the zero test.
- `smith_form(m)`: M = A diag(D^k gamma) B with the unimodular witnesses A
  and B, which `MatrixHooks` accumulates while the engine runs.
- `product_factors(h1, h2)`: the invariant factors of H1(D) H2^T(D^-1)
  formed in `PolyMatrix` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from eaqconv import polymat
from eaqconv.errors import DimensionMismatch
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import GridHooks, laurent_grid

_RZERO = RationalPoly.zero()
_RONE = RationalPoly.one()


class PolyMatrix(polymat.PolyMatrix):
    """A rows x cols grid of RationalPoly entries with matrix arithmetic."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> PolyMatrix:
        return cls([[_RONE if i == j else _RZERO for j in range(n)] for i in range(n)])

    def to_lists(self) -> list[list[RationalPoly]]:
        return [list(row) for row in self.entries]

    def __getitem__(self, ij) -> RationalPoly:
        i, j = ij
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = _RZERO
                for t in range(self.cols):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def transpose(self) -> PolyMatrix:
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def reverse(self) -> PolyMatrix:
        """Substitute D^-1 for D entrywise."""
        return PolyMatrix([[e.reverse() for e in row] for row in self.entries])

    def transpose_reverse(self) -> PolyMatrix:
        """Transpose, then substitute D^-1 entrywise; an involution."""
        return self.transpose().reverse()


class MatrixHooks(GridHooks):
    """Grid hooks that also accumulate the unimodular witnesses A and B.

    A and B start as identities and stay sparse for a while, so each update
    skips the zero source entries.
    """

    def __init__(self, m: polymat.PolyMatrix):
        super().__init__(laurent_grid(m))
        self.a = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(m.rows)] for i in range(m.rows)]
        self.b = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(m.cols)] for i in range(m.cols)]

    def row_add(self, src, dst, f):
        super().row_add(src, dst, f)
        for r in self.a:  # A := A * T^-1, i.e. A col src += f * A col dst
            if r[dst]:
                r[src] = r[src] + f * r[dst]

    def row_swap(self, i, j):
        super().row_swap(i, j)
        for r in self.a:
            r[i], r[j] = r[j], r[i]

    def col_add(self, src, dst, f):
        super().col_add(src, dst, f)
        self.b[src] = [a + f * b if b else a for a, b in zip(self.b[src], self.b[dst])]

    def col_swap(self, i, j):
        super().col_swap(i, j)
        self.b[i], self.b[j] = self.b[j], self.b[i]

    def scale_a_col(self, i, k):
        for r in self.a:
            r[i] = r[i].shift(k)


@dataclass(frozen=True)
class SmithDecomposition:
    """M = A * diag(D^unit_exps[i] * gamma[i]) * B with unimodular A, B.

    gamma entries are normalized delay-free (del = 0); the pure-delay units
    are reported separately so 'power of D' reads as 'gamma[i] == 1'.
    """

    a: PolyMatrix
    gamma: tuple[LaurentPoly, ...]
    unit_exps: tuple[int, ...]
    b: PolyMatrix

    @property
    def rank(self) -> int:
        return len(self.gamma)

    def diag_extended(self, rows: int, cols: int) -> PolyMatrix:
        """Normalized factors on the diagonal; the pure-delay units live in A."""
        grid = [[_RZERO] * cols for _ in range(rows)]
        for i, g in enumerate(self.gamma):
            grid[i][i] = RationalPoly(g)
        return PolyMatrix(grid)

    def reconstruct(self, rows: int, cols: int) -> PolyMatrix:
        return self.a * self.diag_extended(rows, cols) * self.b


def smith_form(m: polymat.PolyMatrix) -> SmithDecomposition:
    """Smith normal form over GF(2)[D] with Laurent units.

    Rejects matrices with true rational entries (ValueError); callers clear
    denominators first (row scalings do not change the invariant factors'
    delay-free parts).
    """
    hooks = MatrixHooks(m)
    gamma, units = hooks.reduce()
    for i, k in enumerate(units):
        if k:
            hooks.scale_a_col(i, k)  # fold the unit into A so gamma stays delay-free
    return SmithDecomposition(a=PolyMatrix(hooks.a), gamma=gamma, unit_exps=units, b=PolyMatrix(hooks.b))


def product_factors(h1: polymat.PolyMatrix, h2: polymat.PolyMatrix) -> tuple[list[LaurentPoly], list[int]]:
    """Normalized invariant factors of H1(D) H2^T(D^-1), each row of the product first shifted to lowest exponent >= 0."""
    product = PolyMatrix(h1.entries) * PolyMatrix(h2.entries).transpose_reverse()
    rows = []
    for row in product.entries:
        exps = [e.num.dell for e in row if not e.is_zero()]
        shift = -min(exps) if exps and min(exps) < 0 else 0
        rows.append([e.shift(shift) for e in row])
    s = smith_form(PolyMatrix(rows))
    return list(s.gamma), list(s.unit_exps)
