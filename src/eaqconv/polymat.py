"""Laurent grids, the Smith engine and row spaces; PolyMatrix and rows for text.

The algebra works on Laurent grids: lists of rows of LaurentPoly entries.
A PolyMatrix stores a matrix over GF(2)(D) as a check matrix stores its
rows: Laurent numerators over one GF(2)[D] row denominator each, in lowest
terms.  `parse_matrix` reads each cell straight into that form,
`format_matrix` prints it through `format_rows`, and `laurent_grid` hands
the rows of a polynomial one to the algebra.

The Smith engine is deliberately deterministic: among nonzero entries of the
working block it always pivots on the one with minimal (deg - del), ties
broken row-major, and divides with common-shift GF(2)[D] division until a
pass revisits a block state, then with `divmod_width`; it always ends with
each diagonal entry dividing the next.  Only a pass that divides snapshots
the block: a stage's last pass finds it zero or diagonal at t, and no later
pass is left to compare that state, so the width switch falls on the same
pass as when every pass took a snapshot.  The engine owns its block: it
reads the Laurent rows once into (bits, low) integer pairs, and scans,
snapshots, divides and applies every operation on those ints.  It logs each
row or column addition or swap; nothing else touches the block.
`SmithEngine.factors` runs the engine and reads its diagonal; validation
applies the log's row operations to H1 (`row_image`) for its row basis.  The
construction plays a log after the run (`construct._Reduction.play`):
column operations become gates and row operations act on its check matrix.

Row spaces over GF(2)(D) are computed on the rows' Laurent numerators, with
no rational arithmetic: scaling a row by a nonzero polynomial does not
change the row space.  `echelon` is a fraction-free Gauss-Jordan elimination
(Bareiss, Math. Comp. 1968) that keeps every row a primitive part.  A fully
reduced echelon form is unique up to row scaling, so its primitive rows are
unique: `row_space_equal` compares them, eliminating grids with equal sorted
primitive rows once, and `rref` divides each row by its pivot at the end.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import DimensionMismatch, InternalError, PolyParseError
from .poly import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalPoly,
    _bits_divmod,
    _bits_mul,
    common_denominator,
    divmod_width,
    format_rational,
    parse_fraction,
    primitive_part,
)


class PolyMatrix:
    """A rows x cols matrix over GF(2)(D), each row stored as a check matrix stores it.

    Row r is Laurent numerators nums[r] over one row denominator dens[r] in
    GF(2)[D] with constant term 1, in lowest terms (see
    `gates.QuantumCheckMatrix`).  The form is unique, so equality and
    hashing compare rows.  `entries`, the grid of canonical RationalPoly
    entries, is formed on first read, or kept as given to the constructor.
    """

    def __init__(self, entries, cols: int | None = None):
        """The matrix of a grid of RationalPoly or LaurentPoly entries; each row is written over its lcm denominator."""
        grid = tuple(tuple(RationalPoly.of(e) for e in row) for row in entries)
        if grid:
            cols = len(grid[0])
        elif cols is None:
            cols = 0
        if any(len(r) != cols for r in grid):
            raise DimensionMismatch("ragged rows")
        self._fill([common_denominator([(e.num, e.den) for e in row]) for row in grid], cols)
        vars(self)["entries"] = grid

    @classmethod
    def from_rows(cls, rows, cols: int) -> PolyMatrix:
        """The matrix of rows (den, nums) in lowest terms, as `common_denominator` and `lowest_terms` give them."""
        m = object.__new__(cls)
        m._fill(rows, cols)
        return m

    def _fill(self, rows, cols):
        vars(self).update(dens=(*(d for d, _ in rows),), nums=(*(tuple(n) for _, n in rows),), rows=len(rows), cols=cols)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @cached_property
    def entries(self) -> tuple[tuple[RationalPoly, ...], ...]:
        return tuple(tuple(RationalPoly(e, d) for e in row) for row, d in zip(self.nums, self.dens))

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.nums == other.nums and self.dens == other.dens

    def __hash__(self) -> int:
        return hash((self.nums, self.dens))

    def is_polynomial(self) -> bool:
        return all(d.bits == 1 for d in self.dens)

    def __repr__(self) -> str:
        return f"PolyMatrix({format_matrix(self)!r})"


def laurent_grid(m: PolyMatrix) -> list[list[LaurentPoly]]:
    """The rows of a polynomial matrix as Laurent rows, the form the algebra works on; ValueError on a rational row."""
    if not m.is_polynomial():
        raise ValueError(f"{m!r} is not a polynomial matrix")
    return [list(row) for row in m.nums]


# -- Smith normal form -------------------------------------------------------

_SMITH_CAP = 100_000


def _pairs(grid):
    """A Laurent grid as its grid of coefficient masks and its grid of lowest exponents."""
    return [[e.bits for e in row] for row in grid], [[e.low for e in row] for row in grid]


def _axpy(ab, al, fb, fl, bb, bl):
    """(bits, low) of a + f*b for canonical (bits, low) pairs a, f and b, with f and b nonzero.

    f*b is canonical (the product of two masks with bit 0 set has bit 0
    set), and so is the sum unless both sides start at the same exponent.
    """
    pb, pl = _bits_mul(fb, bb), fl + bl
    if not ab:
        return pb, pl
    if al < pl:
        return ab ^ (pb << (pl - al)), al
    if pl < al:
        return (ab << (al - pl)) ^ pb, pl
    x = ab ^ pb
    if not x:
        return 0, 0
    shift = (x & -x).bit_length() - 1
    return x >> shift, al + shift


def _row_add(bits, lows, src, dst, fb, fl):
    """Row dst += f * row src of a grid held as masks and lowest exponents."""
    db, dl = bits[dst], lows[dst]
    for j, (b, low) in enumerate(zip(bits[src], lows[src])):
        if b:
            db[j], dl[j] = _axpy(db[j], dl[j], fb, fl, b, low)


class SmithEngine:
    """Drives a block of Laurent rows to diagonal form on (bits, low) integer pairs.

    The engine reads the block once, into a grid of coefficient masks and a
    grid of lowest exponents, each entry kept canonical, and does every
    operation there.  It logs each operation in `ops` as
    (kind, i, j, f_bits, f_low), kind one of "row_add", "row_swap",
    "col_add" and "col_swap", (i, j) the source and destination of an
    addition or the two lines of a swap, and (f_bits, f_low) the multiplier
    of an addition (0, 0 for a swap).
    """

    def __init__(self, block):
        self.rows, self.cols = len(block), len(block[0]) if block else 0
        self.bits, self.lows = _pairs(block)
        self.ops = []
        self._budget = _SMITH_CAP

    def _tick(self):
        self._budget -= 1
        if self._budget <= 0:
            raise InternalError("Smith reduction exceeded its operation budget")

    def _row_add(self, src, dst, fb, fl):
        _row_add(self.bits, self.lows, src, dst, fb, fl)
        self.ops.append(("row_add", src, dst, fb, fl))

    def _row_swap(self, i, j):
        for grid in (self.bits, self.lows):
            grid[i], grid[j] = grid[j], grid[i]
        self.ops.append(("row_swap", i, j, 0, 0))

    def _col_add(self, src, dst, fb, fl):
        for b, low in zip(self.bits, self.lows):
            if b[src]:
                b[dst], low[dst] = _axpy(b[dst], low[dst], fb, fl, b[src], low[src])
        self.ops.append(("col_add", src, dst, fb, fl))

    def _col_swap(self, i, j):
        for row in chain(self.bits, self.lows):
            row[i], row[j] = row[j], row[i]
        self.ops.append(("col_swap", i, j, 0, 0))

    def _scan(self, t):
        """The pivot of block t: its nonzero entry of least width, the row-major first among equals; None when the block is zero."""
        best, least = None, None
        for i in range(t, self.rows):
            row = self.bits[i]
            for j in range(t, self.cols):
                b = row[j]
                if b:
                    w = b.bit_length()
                    if least is None or w < least:
                        best, least = (i, j), w
        return best

    def _snapshot(self, t):
        """Block t's state as a flat tuple of ints: the masks row by row, then the lowest exponents."""
        bits, lows = self.bits, self.lows
        if t:
            bits, lows = [row[t:] for row in bits[t:]], [row[t:] for row in lows[t:]]
        return (*chain(*bits, *lows),)  # made at its final size: tuple(it) would resize it

    def _quotient(self, eb, el, pb, pl, wide):
        """Reduction quotient (bits, low) for e against pivot; zero means 'flip roles'."""
        if wide:
            q = divmod_width(LaurentPoly(eb, el), LaurentPoly(pb, pl))[0]
            return q.bits, q.low
        v = min(el, pl)
        q = _bits_divmod(eb << (el - v), pb << (pl - v))[0]
        if not q:
            return 0, 0
        shift = (q & -q).bit_length() - 1
        return q >> shift, shift

    def _stage(self, t):
        """Diagonalize position t; returns False when the block is all zero.

        Plain common-shift division is tried first (it yields the gate
        sequences the worked constructions print); once a pass about to
        divide adds a snapshot the stage's set already holds (the set does
        not grow), it switches to width-reducing Laurent division, for which
        (deg - del) is a strictly decreasing Euclidean measure.
        """
        bits = self.bits
        seen = set()
        wide = False
        while True:
            self._tick()
            pos = self._scan(t)
            if pos is None:
                return False
            pi, pj = pos
            # one operation per pass: reductions may shrink (or zero) the
            # pivot itself, so re-pick after every op.  The pivot's row is
            # cleared by column operations first, then its column by row
            # operations.
            prow = bits[pi]
            for j in range(t, self.cols):
                if prow[j] and j != pj:
                    i = pi
                    break
            else:
                j = pj
                for i in range(t, self.rows):
                    if bits[i][pj] and i != pi:
                        break
                else:
                    if pi != t:
                        self._row_swap(t, pi)
                    if pj != t:
                        self._col_swap(t, pj)
                    return True
            if not wide:
                size = len(seen)
                seen.add(self._snapshot(t))
                wide = len(seen) == size
            self._reduce(i, j, pi, pj, wide)

    def _reduce(self, i, j, pi, pj, wide):
        """One operation that reduces entry (i, j) against the pivot (pi, pj), in its row or its column.

        An entry of the pivot's row is reduced by a column addition, one of
        its column by a row addition.  When the pivot cannot reduce the
        entry in the common frame, the pivot is shrunk instead.
        """
        add, k, p = (self._col_add, j, pj) if i == pi else (self._row_add, i, pi)
        eb, el, pb, pl = self.bits[i][j], self.lows[i][j], self.bits[pi][pj], self.lows[pi][pj]
        qb, ql = self._quotient(eb, el, pb, pl, wide)
        if qb:
            add(p, k, qb, ql)
        else:
            add(k, p, *self._quotient(pb, pl, eb, el, wide))

    def run(self) -> int:
        rank = 0
        for t in range(min(self.rows, self.cols)):
            if not self._stage(t):
                break
            rank += 1
        self._fix_chain(rank)
        return rank

    def _fix_chain(self, rank):
        i = 0
        while i < rank - 1:
            self._tick()
            a, b = self.bits[i][i], self.bits[i + 1][i + 1]
            if not b or (a and not _bits_divmod(b, a)[1]):  # a | b over the Laurent ring
                i += 1
                continue
            # pull the successor into row i and re-diagonalize from there
            self._row_add(i + 1, i, 1, 0)
            for t in range(i, rank):
                self._stage(t)
            i = 0

    def factors(self) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...]]:
        """Run the engine; its nonzero diagonal split as (delay-free parts, unit exponents)."""
        rank = self.run()
        return (*(LaurentPoly(self.bits[i][i]) for i in range(rank)),), (*(self.lows[i][i] for i in range(rank)),)


def row_image(ops, rows: list[list[LaurentPoly]]) -> list[list[LaurentPoly]]:
    """R rows for the row operations R of a Smith engine's log, on a Laurent grid with as many rows as its block."""
    bits, lows = _pairs(rows)
    for kind, i, j, fb, fl in ops:
        if kind == "row_add":
            _row_add(bits, lows, i, j, fb, fl)
        elif kind == "row_swap":
            for grid in (bits, lows):
                grid[i], grid[j] = grid[j], grid[i]
    return [[LaurentPoly(b, low) for b, low in zip(*pair)] for pair in zip(bits, lows)]


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
    return _eliminate([primitive_part(list(row)) for row in rows])


def _eliminate(rows: list[list[LaurentPoly]]) -> tuple[list[list[LaurentPoly]], tuple[int, ...]]:
    """`echelon` of rows that are already primitive parts; reorders and overwrites the list rows."""
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

    Each row is eliminated as its numerators, which span the same row
    space as the row.  An echelon row is primitive, so divided by its pivot
    D^k p it is in lowest terms over p.
    """
    rows, pivots = echelon(m.nums)
    out = [(row[c].delay_free()[0], [e.shift(-row[c].low) for e in row]) for row, c in zip(rows, pivots)]
    out += [(ONE, (ZERO,) * m.cols)] * (m.rows - len(rows))
    return PolyMatrix.from_rows(out, m.cols), pivots


def row_space_equal(a: list[list[LaurentPoly]], *others: list[list[LaurentPoly]]) -> bool:
    """Whether every grid of `others` spans the same row space over GF(2)(D) as the grid a.

    The rows are Laurent rows, or the numerators of rational rows over
    their row denominators, which a row space ignores.  Grids whose rows
    differ in length never match.  Each grid's rows are taken to their
    primitive parts once, and grids with equal sorted primitive rows span
    one space, so they share one elimination: a is eliminated once,
    however many grids it is compared with, and so is a grid that only
    reorders or rescales the rows of one already eliminated.
    """
    if len({len(row) for m in (a, *others) for row in m}) > 1:
        return False
    forms = {}

    def form(m):
        rows = [primitive_part(list(row)) for row in m]
        key = (*sorted((*((e.bits, e.low) for e in row),) for row in rows),)
        if key not in forms:
            forms[key] = _eliminate(rows)
        return forms[key]

    ea = form(a)
    return all(form(b) == ea for b in others)


# -- text format --------------------------------------------------------------


def format_matrix(m: PolyMatrix) -> str:
    return "\n".join(format_rows(m.nums, m.dens))


def format_rows(nums, dens) -> list[str]:
    """Rows of Laurent numerators over their row denominators, one line per row, each entry in lowest terms."""
    return [", ".join(format_rational(e, d) for e in row) for row, d in zip(nums, dens)]


def parse_matrix(text: str) -> PolyMatrix:
    """One row per line, entries comma-separated, '#' starts a comment; each row is read into its row form."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                row.append(parse_fraction(cell))
            except PolyParseError as exc:
                raise PolyParseError(f"bad entry {cell.strip()!r}: {exc}", line=lineno, column=colno) from None
        rows.append(row)
    if not rows:
        raise PolyParseError("empty matrix")
    if len({len(r) for r in rows}) != 1:
        raise PolyParseError("rows have differing lengths")
    return PolyMatrix.from_rows([common_denominator(row) for row in rows], len(rows[0]))
