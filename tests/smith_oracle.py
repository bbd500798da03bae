"""The Smith decomposition with its witnesses, and rational matrix arithmetic, as a test oracle.

The package reduces Laurent grids and keeps only what the construction
reads: the invariant factors (`eaqconv.polymat.SmithEngine.factors`) and
H1's row basis (`eaqconv.construct.validate_inputs`).  This module keeps
what the tests check them against, on the package's own Smith engine, and a
second engine to check that engine against:

- `LaurentSmithEngine`: the Smith engine as it ran before the package's
  engine came to own its block as integer pairs.  It reads each entry
  through `LaurentHooks.entry` on every pass, divides `LaurentPoly`
  entries, and hands each operation to the hooks, which own the block;
  `GridHooks` applies the operations to a copy of a Laurent grid.  It
  takes the same pivots, quotients and cycle decisions as the package's.

- `PolyMatrix`: the package's `PolyMatrix` with sums, products, transposes,
  D -> D^-1, zero and identity matrices, entry indexing and the zero test.
- `invariant_factors(rows)`: the engine's factors of a Laurent grid, with
  no witnesses.
- `replay(ops, hooks)`: plays a package engine's log to a listener, one
  call of the method named by each operation, with each multiplier f as a
  `LaurentPoly`.  The package plays its logs itself
  (`eaqconv.construct._Reduction.play`); the tests replay them to
  `GridHooks`, `MatrixHooks` and their own recorders.
- `smith_form(m)`: M = A diag(D^k gamma) B with the unimodular witnesses A
  and B, which `MatrixHooks` accumulates as it hears the package engine's
  log replayed.
- `product_factors(h1, h2)`: the invariant factors of H1(D) H2^T(D^-1)
  formed in `PolyMatrix` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from eaqconv import polymat
from eaqconv.errors import DimensionMismatch, InternalError
from eaqconv.poly import LaurentPoly, RationalPoly, divides, divmod_shifted, divmod_width
from eaqconv.polymat import laurent_grid

_RZERO = RationalPoly.zero()
_RONE = RationalPoly.one()


class PolyMatrix(polymat.PolyMatrix):
    """A matrix over GF(2)(D) with arithmetic on its RationalPoly entries."""

    @classmethod
    def zero(cls, rows: int, cols: int) -> PolyMatrix:
        return cls([[_RZERO] * cols for _ in range(rows)], cols=cols)

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


_SMITH_CAP = 100_000


class LaurentHooks:
    """Receives every elementary operation of `LaurentSmithEngine`; subclasses own the block, which `entry` reads."""

    def entry(self, i: int, j: int) -> LaurentPoly:
        raise NotImplementedError

    def row_add(self, src: int, dst: int, f: LaurentPoly):
        raise NotImplementedError

    def row_swap(self, i: int, j: int):
        raise NotImplementedError

    def col_add(self, src: int, dst: int, f: LaurentPoly):
        raise NotImplementedError

    def col_swap(self, i: int, j: int):
        raise NotImplementedError


class LaurentSmithEngine:
    """Drives a matrix to diagonal form through LaurentHooks callbacks.

    Among nonzero entries of the working block it pivots on the one of least
    width, the row-major first among equals, and divides with common-shift
    division until a pass revisits a block state, then with width division.
    """

    def __init__(self, shape: tuple[int, int], hooks: LaurentHooks):
        self.rows, self.cols = shape
        self.hooks = hooks
        self._budget = _SMITH_CAP

    def _tick(self):
        self._budget -= 1
        if self._budget <= 0:
            raise InternalError("Smith reduction exceeded its operation budget")

    def _scan(self, t, snap):
        """One walk of block t: its pivot, and its state as a flat tuple when snap is set."""
        entry = self.hooks.entry
        best, least = None, None
        state = [] if snap else None
        for i in range(t, self.rows):
            for j in range(t, self.cols):
                e = entry(i, j)
                bits = e.bits
                if snap:
                    state += (bits, e.low)
                if bits:
                    w = bits.bit_length()
                    if least is None or w < least:
                        best, least = (i, j), w
        return best, (tuple(state) if snap else None)

    def _quotient(self, e, pivot, wide):
        """Reduction quotient for e against pivot; zero means 'flip roles'."""
        if wide:
            return divmod_width(e, pivot)[0]
        return divmod_shifted(e, pivot)[0]

    def _stage(self, t):
        """Diagonalize position t; returns False when the block is all zero."""
        h = self.hooks
        seen = set()
        wide = False
        while True:
            self._tick()
            pos, snap = self._scan(t, not wide)
            if not wide:
                if snap in seen:
                    wide = True
                seen.add(snap)
            if pos is None:
                return False
            pi, pj = pos
            along_row = ((j, h.entry(pi, j), h.col_add, pj) for j in range(t, self.cols) if j != pj)
            along_col = ((i, h.entry(i, pj), h.row_add, pi) for i in range(t, self.rows) if i != pi)
            for k, e, add, p in chain(along_row, along_col):
                if e.is_zero():
                    continue
                pivot = h.entry(pi, pj)
                q = self._quotient(e, pivot, wide)
                if q.is_zero():
                    add(k, p, self._quotient(pivot, e, wide))
                else:
                    add(p, k, q)
                break
            else:
                if pi != t:
                    h.row_swap(t, pi)
                if pj != t:
                    h.col_swap(t, pj)
                return True

    def run(self) -> int:
        rank = 0
        for t in range(min(self.rows, self.cols)):
            if not self._stage(t):
                break
            rank += 1
        self._fix_chain(rank)
        return rank

    def _fix_chain(self, rank):
        h = self.hooks
        i = 0
        while i < rank - 1:
            self._tick()
            a = h.entry(i, i)
            b = h.entry(i + 1, i + 1)
            if divides(a, b):
                i += 1
                continue
            h.row_add(i + 1, i, LaurentPoly.one())
            for t in range(i, rank):
                self._stage(t)
            i = 0


class GridHooks(LaurentHooks):
    """LaurentHooks over a copy of a grid of Laurent rows."""

    def __init__(self, rows: list[list[LaurentPoly]]):
        self.w = [list(row) for row in rows]

    def entry(self, i, j):
        return self.w[i][j]

    def row_add(self, src, dst, f):
        self.w[dst] = [a + f * b if b else a for a, b in zip(self.w[dst], self.w[src])]

    def row_swap(self, i, j):
        self.w[i], self.w[j] = self.w[j], self.w[i]

    def col_add(self, src, dst, f):
        for r in self.w:
            if r[src]:
                r[dst] = r[dst] + f * r[src]

    def col_swap(self, i, j):
        for r in self.w:
            r[i], r[j] = r[j], r[i]

    def reduce(self) -> int:
        """Run `LaurentSmithEngine` on the grid; its rank."""
        return LaurentSmithEngine((len(self.w), len(self.w[0]) if self.w else 0), self).run()


class MatrixHooks:
    """Hears the package's Smith log and accumulates the unimodular witnesses A and B.

    A and B start as identities and stay sparse for a while, so each update
    skips the zero source entries.
    """

    def __init__(self, rows: int, cols: int):
        self.a = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(rows)] for i in range(rows)]
        self.b = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(cols)] for i in range(cols)]

    def row_add(self, src, dst, f):
        for r in self.a:  # A := A * T^-1, i.e. A col src += f * A col dst
            if r[dst]:
                r[src] = r[src] + f * r[dst]

    def row_swap(self, i, j):
        for r in self.a:
            r[i], r[j] = r[j], r[i]

    def col_add(self, src, dst, f):
        self.b[src] = [a + f * b if b else a for a, b in zip(self.b[src], self.b[dst])]

    def col_swap(self, i, j):
        self.b[i], self.b[j] = self.b[j], self.b[i]

    def scale_a_col(self, i, k):
        for r in self.a:
            r[i] = r[i].shift(k)


def replay(ops, hooks):
    """Play a Smith engine's operation log to a listener, in order, with each multiplier as a LaurentPoly."""
    for kind, i, j, fb, fl in ops:
        if kind.endswith("add"):
            getattr(hooks, kind)(i, j, LaurentPoly(fb, fl))
        else:
            getattr(hooks, kind)(i, j)


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


def invariant_factors(rows: list[list[LaurentPoly]]) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
    """(gamma, unit_exps) of a grid of Laurent rows: delay-free invariant factors and their D^k units."""
    return polymat.SmithEngine(rows).factors()


def smith_form(m: polymat.PolyMatrix) -> SmithDecomposition:
    """Smith normal form over GF(2)[D] with Laurent units.

    Rejects matrices with true rational entries (ValueError); callers clear
    denominators first (row scalings do not change the invariant factors'
    delay-free parts).
    """
    engine = polymat.SmithEngine(laurent_grid(m))
    gamma, units = engine.factors()
    hooks = MatrixHooks(m.rows, m.cols)
    replay(engine.ops, hooks)
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
