"""Laurent grids, the Smith engine and row spaces; PolyMatrix for text.

The algebra works on Laurent grids: lists of rows of LaurentPoly entries.
A PolyMatrix is an immutable grid of RationalPoly entries, the form that
`parse_matrix` reads and `format_matrix` prints; `laurent_grid` turns a
polynomial one into a Laurent grid on entry to the algebra.

The Smith engine is deliberately deterministic: among nonzero entries of the
working block it always pivots on the one with minimal (deg - del), ties
broken row-major, and divides with the common-shift polynomial division from
the poly module.  Each pass walks the block once, for the pivot and for the
snapshot that detects a cycle.  The engine keeps no matrix and no record of
its own: every elementary operation goes straight to a SmithHooks object.
`invariant_factors` uses GridHooks, which applies the operations to a
scratch grid.  The code construction uses hooks that turn column
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

from itertools import chain

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

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for row in self.entries for e in row)

    def __repr__(self) -> str:
        return f"PolyMatrix({format_matrix(self)!r})"


def laurent_grid(m: PolyMatrix) -> list[list[LaurentPoly]]:
    """The entries of a polynomial matrix as Laurent rows, the form the algebra works on.

    Raises ValueError on an entry that is not a Laurent polynomial.
    """
    return [[e.as_poly() for e in row] for row in m.entries]


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
            # pivot itself, so re-pick after every op.  The pivot's row is
            # cleared by column operations first, then its column by row
            # operations; each entry is read only when its turn comes.
            along_row = ((j, h.entry(pi, j), h.col_add, pj) for j in range(t, self.cols) if j != pj)
            along_col = ((i, h.entry(i, pj), h.row_add, pi) for i in range(t, self.rows) if i != pi)
            for k, e, add, p in chain(along_row, along_col):
                if e.is_zero():
                    continue
                pivot = h.entry(pi, pj)
                q = self._quotient(e, pivot, wide)
                if q.is_zero():
                    # the pivot cannot reduce e in the common frame; shrink the pivot instead
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
    """Smith hooks over a copy of a grid of Laurent rows."""

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

    def reduce(self) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
        """Run the Smith engine on the grid; its nonzero diagonal split as (delay-free parts, unit exponents)."""
        rank = SmithEngine((len(self.w), len(self.w[0]) if self.w else 0), self).run()
        split = [self.w[i][i].delay_free() for i in range(rank)]
        return tuple(g for g, _ in split), tuple(k for _, k in split)


def invariant_factors(rows: list[list[LaurentPoly]]) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
    """(gamma, unit_exps) of a grid of Laurent rows: delay-free invariant factors and their D^k units."""
    return GridHooks(rows).reduce()


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
    rows = [primitive_part(list(row)) for row in rows]
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


def rref(m: PolyMatrix) -> tuple[PolyMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rational function field GF(2)(D).

    Each row is eliminated as its numerators over its row denominator,
    which span the same row space.
    """
    rows, pivots = echelon([common_denominator(row)[1] for row in m.entries])
    out = [[RationalPoly(e, row[c]) for e in row] for row, c in zip(rows, pivots)]
    out += [[_RZERO] * m.cols for _ in range(m.rows - len(rows))]
    return PolyMatrix(out), pivots


def row_space_equal(a: list[list[LaurentPoly]], *others: list[list[LaurentPoly]]) -> bool:
    """Whether every grid of `others` spans the same row space over GF(2)(D) as the grid a.

    The rows are Laurent rows, or the numerators of rational rows over
    their row denominators, which a row space ignores.  Grids whose rows
    differ in length never match.  a is eliminated once, however many
    grids it is compared with.
    """
    if len({len(row) for m in (a, *others) for row in m}) > 1:
        return False
    ea = echelon(a)
    return all(echelon(b) == ea for b in others)


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
