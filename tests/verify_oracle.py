"""The rational verification algebra, kept as the reference for `eaqconv.simulate`.

These are the row-space and symplectic routines that `verify_code` used
while every entry was a normalised `RationalPoly`: Gauss-Jordan elimination
over GF(2)(D) with one gcd per operation (`rref`, `row_space_equal`), the
shifted symplectic product summed entry by entry (`shifted_symplectic`), the
full pairwise gram (`symplectic_gram`, the method body taking the check
matrix first), `_check_decode`, and checks (a)-(c) of `verify_code` as
`algebra_checks`.  They are copied from the package with three changes
besides the imports: `zx_concat` and `submatrix` are called as functions
of `support`, not as methods; entries are read from `PolyMatrix.entries`;
and the input check matrices come as Laurent grids, as a built code
records them.

`rank`, `det` and `is_commuting` (the `QuantumCheckMatrix` method, taking
the check matrix first) had no caller in the package and serve the tests
as independent oracles.
"""

from __future__ import annotations

from eaqconv.errors import DimensionMismatch
from eaqconv.poly import RationalPoly
from eaqconv.polymat import PolyMatrix
from eaqconv.simulate import CheckResult
from support import alice_part, submatrix, zx_concat

_RZERO = RationalPoly.zero()
_RONE = RationalPoly.one()


def rref(m: PolyMatrix) -> tuple[PolyMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rational function field GF(2)(D)."""
    rows = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m.rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return PolyMatrix(rows), tuple(pivots)


def row_space_equal(a: PolyMatrix, b: PolyMatrix) -> bool:
    """Whether two matrices span the same row space over GF(2)(D)."""
    if a.cols != b.cols:
        return False
    ra, pa = rref(a)
    rb, pb = rref(b)
    if pa != pb:
        return False
    return all(ra.entries[i] == rb.entries[i] for i in range(len(pa)))


def rank(m: PolyMatrix) -> int:
    """Rank over GF(2)(D); equals the number of nonzero invariant factors."""
    return len(rref(m)[1])


def det(m: PolyMatrix) -> RationalPoly:
    """Determinant by cofactor expansion; intended for small witness checks."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return _RONE
    if n == 1:
        return m.entries[0][0]
    acc = _RZERO
    rest = list(range(1, n))
    for j in range(n):
        if m.entries[0][j].is_zero():
            continue
        minor = submatrix(m, rest, [c for c in range(n) if c != j])
        acc = acc + m.entries[0][j] * det(minor)
    return acc


def shifted_symplectic(h1, h2) -> RationalPoly:
    """(h1 (.) h2)(D) = z1(D^-1).x2(D) + x1(D^-1).z2(D)."""
    if h1.n != h2.n:
        raise DimensionMismatch(f"rows over {h1.n} and {h2.n} qubits")
    acc = RationalPoly.zero()
    for q in range(h1.n):
        acc = acc + h1.z[q].reverse() * h2.x[q] + h1.x[q].reverse() * h2.z[q]
    return acc


def symplectic_gram(qcm) -> PolyMatrix:
    """All pairwise shifted symplectic products, over every column."""
    rows = [qcm.row(i) for i in range(qcm.rows)]
    return PolyMatrix([[shifted_symplectic(a, b) for b in rows] for a in rows])


def is_commuting(qcm) -> bool:
    return all(e.is_zero() for row in symplectic_gram(qcm).entries for e in row)


def _check_decode(spec, evolved) -> tuple[bool, str]:
    """Decode the re-encoded state and test the logical operators.

    `evolved` is the encoder replayed afresh on the bare stream; running the
    decoder on it (rather than on stored results) catches a corrupted
    circuit.  Requires: every decoded logical commutes with the decoded
    stabilizer; the X/Z pairing is a unit D^k exactly on matching qubits;
    and modulo the decoded stabilizer each logical localizes to its
    designated column.
    """
    decoded = spec.decoder.apply(evolved)
    if decoded.info is None or spec.k == 0:
        return True, "no information qubits"
    for i in range(decoded.info.rows):
        for j in range(decoded.rows):
            if not shifted_symplectic(decoded.info.row(i), decoded.row(j)).is_zero():
                return False, f"decoded logical row {i + 1} fails to commute with the stabilizer"
    for qa in range(spec.k):
        for qb in range(spec.k):
            prod = shifted_symplectic(decoded.info.row(2 * qa), decoded.info.row(2 * qb + 1))
            if qa != qb:
                if not prod.is_zero():
                    return False, f"logical qubits {qa + 1} and {qb + 1} fail to be independent"
            elif prod.is_zero() or not prod.is_polynomial() or prod.num.weight() != 1:
                return False, f"logical pair {qa + 1} has pairing {prod} instead of a unit"
            xa, xb = decoded.info.row(2 * qa), decoded.info.row(2 * qb)
            za, zb = decoded.info.row(2 * qa + 1), decoded.info.row(2 * qb + 1)
            if qa < qb:
                if not shifted_symplectic(xa, xb).is_zero() or not shifted_symplectic(za, zb).is_zero():
                    return False, f"same-type logicals {qa + 1}, {qb + 1} anticommute"
    # localization modulo the decoded stabilizer row space
    stab_rref, pivots = rref(zx_concat(decoded))
    total = decoded.cols
    for q in range(spec.k):
        col = decoded.bob_cols + spec.decoded_cols[q]
        for rrow, allowed, kind in ((2 * q, {total + col}, "X"), (2 * q + 1, {col}, "Z")):
            vec = list(decoded.info.z.entries[rrow]) + list(decoded.info.x.entries[rrow])
            for p, pc in enumerate(pivots):
                if not vec[pc].is_zero():
                    coeff = vec[pc]
                    vec = [a + coeff * b for a, b in zip(vec, stab_rref.entries[p])]
            support = {j for j, e in enumerate(vec) if not e.is_zero()}
            if support != allowed:
                return False, f"logical {kind}{q + 1} does not localize to column {spec.decoded_cols[q] + 1}"
    return True, ""


def algebra_checks(spec) -> list[CheckResult]:
    """Checks (a)-(c) of `verify_code`: commutation, row-space equivalence, decoded logicals."""
    checks = []

    gram = symplectic_gram(spec.final_stabilizer)
    bad = [(i, j) for i in range(gram.rows) for j in range(gram.cols) if not gram.entries[i][j].is_zero()]
    checks.append(CheckResult(
        "commutation",
        not bad,
        "" if not bad else f"rows {bad[:4]} fail the shifted symplectic product",
    ))

    n = spec.n
    zero = [RationalPoly.zero()] * n
    target = PolyMatrix(
        [list(r) + zero for r in spec.h1] + [zero + list(r) for r in spec.h2]
    )
    alice = zx_concat(alice_part(spec.final_stabilizer))
    ok_stored = row_space_equal(alice, target)
    evolved = spec.encoder.apply(spec.bare)
    ok_evolved = row_space_equal(zx_concat(alice_part(evolved)), target)
    checks.append(CheckResult(
        "row-space equivalence",
        ok_stored and ok_evolved,
        "" if ok_stored and ok_evolved
        else ("stored" if not ok_stored else "re-encoded")
        + " sender-side stabilizer spans a different space than the check matrices",
    ))

    ok_dec, detail = _check_decode(spec, evolved)
    checks.append(CheckResult("decoded logical operators", ok_dec, detail))
    return checks
