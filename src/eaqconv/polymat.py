"""Matrices over binary rational functions with Smith normal form machinery.

A PolyMatrix is a dense grid of RationalPoly entries.  Smith reduction works
on matrices whose entries are Laurent polynomials (denominator 1); rational
matrices must have their denominators cleared row by row first.

The Smith engine is deliberately deterministic: among nonzero entries of the
working block it always pivots on the one with minimal (deg - del), ties
broken row-major, and divides with the common-shift polynomial division from
the poly module.  Each pass walks the block once, for the pivot and for the
snapshot that detects a cycle.  The engine keeps no matrix and no record of
its own: every elementary operation goes straight to a SmithHooks object.
`invariant_factors` uses GridHooks, which applies the operations to a
scratch grid; `smith_form` uses MatrixHooks, which also keeps the
unimodular witnesses.  The code construction uses hooks that turn column
operations into circuit gates and row operations into row operations on its
working check matrix.

Row spaces over GF(2)(D) are computed on Laurent numerators, with no
rational arithmetic.  Each row is written over one GF(2)[D] row denominator
(`common_denominator`) and the denominator is dropped, because scaling a
row by a nonzero polynomial does not change the row space.  `echelon` is a
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) that
keeps every row a primitive part.  A fully reduced echelon form is unique up
to row scaling, so its primitive rows are unique: `row_space_equal`
compares them, and `rref` divides each row by its pivot once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InternalError, PolyParseError
from .poly import (
    divmod_width,
    LaurentPoly,
    RationalPoly,
    common_denominator,
    divides,
    divmod_shifted,
    format_rational,
    parse_rational,
    primitive_part,
)

_RZERO = RationalPoly.zero()
_RONE = RationalPoly.one()


class PolyMatrix:
    """A rows x cols grid of RationalPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        grid = tuple(tuple(RationalPoly.of(e) for e in row) for row in entries)
        rows = len(grid)
        if rows:
            cols = len(grid[0])
        elif cols is None:
            cols = 0
        if any(len(r) != cols for r in grid):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> PolyMatrix:
        return cls([[_RZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> PolyMatrix:
        return cls([[_RONE if i == j else _RZERO for j in range(n)] for i in range(n)])

    def to_lists(self) -> list[list[RationalPoly]]:
        return [list(row) for row in self.entries]

    # -- basic structure ---------------------------------------------------

    def __getitem__(self, ij) -> RationalPoly:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for row in self.entries for e in row)

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

    def __repr__(self) -> str:
        return f"PolyMatrix({format_matrix(self)!r})"


# -- Smith normal form -------------------------------------------------------

_SMITH_CAP = 100_000


class SmithHooks:
    """Receives every elementary operation the Smith engine performs.

    Subclasses own the matrix state; the engine only reads entries through
    `entry` and decides which operation comes next.
    """

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


class SmithEngine:
    """Drives a matrix to diagonal form through SmithHooks callbacks."""

    def __init__(self, shape: tuple[int, int], hooks: SmithHooks, enforce_chain: bool = True):
        self.rows, self.cols = shape
        self.hooks = hooks
        self.enforce_chain = enforce_chain
        self._budget = _SMITH_CAP

    def _tick(self):
        self._budget -= 1
        if self._budget <= 0:
            raise InternalError("Smith reduction exceeded its operation budget")

    def _scan(self, t, snap):
        """One walk of block t: its pivot, and its state as a flat tuple when snap is set.

        The pivot is the nonzero entry of least width, the row-major first
        among equals; it is None when the block is zero.
        """
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
        """Diagonalize position t; returns False when the block is all zero.

        Plain common-shift division is tried first (it yields the gate
        sequences the worked constructions print); if the chase ever revisits
        a state it switches to width-reducing Laurent division, for which
        (deg - del) is a strictly decreasing Euclidean measure.
        """
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
            # one operation per pass: reductions may shrink (or zero) the
            # pivot itself, so re-pick after every op
            dirty = False
            for j in range(t, self.cols):
                if j == pj:
                    continue
                e = h.entry(pi, j)
                if e.is_zero():
                    continue
                q = self._quotient(e, h.entry(pi, pj), wide)
                if q.is_zero():
                    # the pivot cannot reduce e in the common frame; shrink the pivot instead
                    q2 = self._quotient(h.entry(pi, pj), e, wide)
                    h.col_add(j, pj, q2)
                else:
                    h.col_add(pj, j, q)
                dirty = True
                break
            if dirty:
                continue
            for i in range(t, self.rows):
                if i == pi:
                    continue
                e = h.entry(i, pj)
                if e.is_zero():
                    continue
                q = self._quotient(e, h.entry(pi, pj), wide)
                if q.is_zero():
                    q2 = self._quotient(h.entry(pi, pj), e, wide)
                    h.row_add(i, pi, q2)
                else:
                    h.row_add(pi, i, q)
                dirty = True
                break
            if dirty:
                continue
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
        if self.enforce_chain:
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
            # pull the successor into row i and re-diagonalize from there
            h.row_add(i + 1, i, LaurentPoly.one())
            for t in range(i, rank):
                self._stage(t)
            i = 0


class GridHooks(SmithHooks):
    """Smith hooks over a plain grid of Laurent entries, with no witnesses."""

    def __init__(self, m: PolyMatrix):
        if not m.is_polynomial():
            raise ValueError("Smith reduction requires Laurent polynomial entries; clear denominators first")
        self.w = [[e.as_poly() for e in row] for row in m.entries]

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

    def factors(self, rank) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
        """The first `rank` diagonal entries split as (delay-free parts, unit exponents)."""
        split = [self.w[i][i].delay_free() for i in range(rank)]
        return tuple(g for g, _ in split), tuple(k for _, k in split)


class MatrixHooks(GridHooks):
    """Grid hooks that also accumulate the unimodular witnesses A and B.

    A and B start as identities and stay sparse for a while, so each update
    skips the zero source entries.
    """

    def __init__(self, m: PolyMatrix):
        super().__init__(m)
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


def invariant_factors(m: PolyMatrix) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
    """(gamma, unit_exps) of `smith_form(m)`, by the same reduction without its witnesses."""
    hooks = GridHooks(m)
    return hooks.factors(SmithEngine((m.rows, m.cols), hooks).run())


def smith_form(m: PolyMatrix) -> SmithDecomposition:
    """Smith normal form over GF(2)[D] with Laurent units.

    Rejects matrices with true rational entries; callers clear denominators
    first (row scalings do not change the invariant factors' delay-free parts).
    """
    hooks = MatrixHooks(m)
    gamma, units = hooks.factors(SmithEngine((m.rows, m.cols), hooks).run())
    for i, k in enumerate(units):
        if k:
            hooks.scale_a_col(i, k)  # fold the unit into A so gamma stays delay-free
    return SmithDecomposition(a=PolyMatrix(hooks.a), gamma=gamma, unit_exps=units, b=PolyMatrix(hooks.b))


# -- row spaces over GF(2)(D) ----------------------------------------------------


def echelon(rows: list[list[LaurentPoly]]) -> tuple[list[list[LaurentPoly]], tuple[int, ...]]:
    """The fully reduced echelon form of Laurent rows over GF(2)(D), fraction free.

    Returns the nonzero echelon rows, each a primitive part, and their pivot
    columns.  Each column pivots on its narrowest candidate entry, and
    clearing column c of row i against pivot row r is
    row_i <- piv*row_i + row_i[c]*row_r with piv = row_r[c]; dividing the
    new row by the gcd of its entries keeps the degrees bounded.  Each row
    is then the primitive part of the matching row of the reduced row
    echelon form, so two matrices span the same row space exactly when
    their pivots and echelon rows are equal.
    """
    rows = [primitive_part(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        if not live:
            continue
        p = min(live, key=lambda i: rows[i][c].width)
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = primitive_part([piv * a + f * b for a, b in zip(row, prow)])
        pivots.append(c)
        r += 1
    return rows[:r], tuple(pivots)


def residue(vec: list[LaurentPoly], rows: list[list[LaurentPoly]], pivots: tuple[int, ...]) -> list[LaurentPoly]:
    """vec reduced modulo `echelon` rows: zero on every pivot column.

    Fraction free, so the result is a nonzero multiple of the reduction
    over GF(2)(D), with the same support; it is zero exactly when vec lies
    in the row space.
    """
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            piv = row[c]
            vec = [piv * a + f * b for a, b in zip(vec, row)]
    return vec


def _numerator_rows(m: PolyMatrix) -> list[list[LaurentPoly]]:
    """Each row of m as Laurent numerators over its row denominator, which a row space ignores."""
    return [common_denominator(row)[1] for row in m.entries]


def rref(m: PolyMatrix) -> tuple[PolyMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rational function field GF(2)(D)."""
    rows, pivots = echelon(_numerator_rows(m))
    out = [[RationalPoly(e, row[c]) for e in row] for row, c in zip(rows, pivots)]
    out += [[_RZERO] * m.cols for _ in range(m.rows - len(rows))]
    return PolyMatrix(out), pivots


def row_space_equal(a: PolyMatrix, *others: PolyMatrix) -> bool:
    """Whether every matrix of `others` spans the same row space over GF(2)(D) as a.

    a is eliminated once, however many matrices it is compared with.
    """
    if any(b.cols != a.cols for b in others):
        return False
    ea = echelon(_numerator_rows(a))
    return all(echelon(_numerator_rows(b)) == ea for b in others)


# -- text format --------------------------------------------------------------


def format_matrix(m: PolyMatrix) -> str:
    return "\n".join(", ".join(format_rational(e) for e in row) for row in m.entries)


def parse_matrix(text: str) -> PolyMatrix:
    """One row per line, entries comma-separated, '#' starts a comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                row.append(parse_rational(cell))
            except PolyParseError as exc:
                raise PolyParseError(f"bad entry {cell.strip()!r}: {exc}", line=lineno, column=colno) from None
        rows.append(row)
    if not rows:
        raise PolyParseError("empty matrix")
    if len({len(r) for r in rows}) != 1:
        raise PolyParseError("rows have differing lengths")
    return PolyMatrix(rows)
