"""Construction of CSS entanglement-assisted quantum convolutional codes.

Input: two classical binary convolutional check matrices H1 ((n-k1) x n) and
H2 ((n-k2) x n) for noncatastrophic, delay-free encoders.  Output: an
[[n, k1+k2-n+c; c]] code with c = rank(H1(D) H2^T(D^-1)), its encoding and
decoding circuits, and the final stabilizer over c receiver columns plus n
sender columns.

The pipeline reduces the stacked quantum check matrix

    [ H1 | 0  ]
    [ 0  | H2 ]

to a standard form by mental row operations and recorded column operations
(gates).  The recorded gates, replayed in reverse on a bare stream of ebits,
ancillas and information qubits, form the encoder.  Codes split into classes
by the invariant factors of H1(D) H2^T(D^-1), which the classification reads
from the E block of the standard form (see `DecompositionRecord`):

  class 1          all factors are powers of D; encoder and decoder are
                   finite depth.
  class 2          otherwise: the encoder needs one infinite-depth operation
                   per non-unit factor; the decoder stays finite depth.
  class 2 special  the cross block F(D) reduces to a full-row-rank matrix of
                   powers of D; the affected information qubits teleport to
                   fresh columns during decoding.

The standard form, the class-1 finish and the special finish replay the Smith
runs of admission (on H2) and the classification (on E, on the massaged F).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CatastrophicInput,
    ClassMismatch,
    InternalError,
    NotDelayFree,
    RankDeficient,
    ValidationError,
)
from .gates import (
    Circuit,
    Gate,
    QuantumCheckMatrix,
    cnot,
    format_gate,
    gate_columns,
    hadamard,
    inf_depth,
    swap,
)
from .poly import LaurentPoly, divmod_shifted, lowest_terms
from .polymat import PolyMatrix, SmithEngine, SmithHooks, laurent_grid, replay, row_image

CLASS1 = "class1"
CLASS2 = "class2"
CLASS2_SPECIAL = "class2_special"

_L0 = LaurentPoly.zero()
_L1 = LaurentPoly.one()


# -- validation ---------------------------------------------------------------


def _admit(which: str, h: PolyMatrix):
    """h's Laurent grid and the operation log of its Smith reduction; raises the error that rejects h."""
    if h.rows == 0 or h.rows >= h.cols:
        raise ValidationError(f"{which} must have 1 <= rows < cols, got {h.rows}x{h.cols}")
    if not h.is_polynomial():
        raise ValidationError(f"{which} has rational entries")
    grid = laurent_grid(h)
    for row in grid:
        for e in row:
            if not e.is_zero() and e.dell < 0:
                raise NotDelayFree(which, e)
    engine = SmithEngine(grid)
    gamma, units = engine.factors()
    if len(gamma) < h.rows:
        raise RankDeficient(which, len(gamma), h.rows)
    for g, k in zip(gamma, units):
        if g != _L1:
            raise CatastrophicInput(which, g.shift(k))
        if k != 0:
            raise NotDelayFree(which, g.shift(k))
    return grid, engine.ops


def validate_inputs(h1: PolyMatrix, h2: PolyMatrix):
    """Admit a pair of check matrices for noncatastrophic delay-free encoders.

    Returns the Laurent grids of H1 and H2, a row basis R H1 of H1, and
    the operation log of H2's Smith reduction.  R is the row operations of
    H1's Smith reduction R H1 C = [I 0], applied to H1 once both matrices
    are admitted; R is unimodular, so R H1 spans H1's row space, and
    R H1 = [I 0] C^-1.  H2's reduction ends in [I 0] exactly, and the
    standard form replays its log instead of reducing H2 again.
    """
    if h1.cols != h2.cols:
        raise ValidationError(f"column counts differ: {h1.cols} vs {h2.cols}")
    g1, h1_ops = _admit("H1", h1)
    g2, h2_ops = _admit("H2", h2)
    return g1, g2, row_image(h1_ops, g1), h2_ops


# -- the working reduction state ------------------------------------------------


@dataclass
class TraceStep:
    label: str
    state: QuantumCheckMatrix


class _Reduction:
    """Mutable quantum check matrix with a gate log and mental row operations.

    The grids hold LaurentPoly entries: the reduction issues no INF gate.
    A column addition logs its CNOTs and adds f times the source column at
    once; with want_trace it adds each CNOT's term D^e on its own instead,
    so the trace holds the state after every gate.
    """

    def __init__(self, h1, h2, want_trace: bool = False):
        self.n = len(h1[0])
        self.k1 = self.n - len(h1)
        self.k2 = self.n - len(h2)
        top = len(h1)
        self.rows = top + len(h2)
        self.z = [list(row) for row in h1] + [[_L0] * self.n for _ in h2]
        self.x = [[_L0] * self.n for _ in range(top)] + [list(row) for row in h2]
        self.gates: list[Gate] = []
        self.row_ids = list(range(self.rows))
        self.row_scales: dict[int, int] = {}
        self.want_trace = want_trace
        self.trace: list[TraceStep] = []
        self._snapshot("initial quantum check matrix")

    def state(self) -> QuantumCheckMatrix:
        zn, xn = tuple(map(tuple, self.z)), tuple(map(tuple, self.x))
        return QuantumCheckMatrix.from_rows(zn, xn, (_L1,) * self.rows, self.n)

    def _snapshot(self, label):
        if self.want_trace:
            self.trace.append(TraceStep(label, self.state()))

    def _logged(self, gates):
        """Append gates to the log; a traced reduction, which logs one at a time, takes the state after it."""
        self.gates.extend(gates)
        if self.want_trace:
            self.trace.append(TraceStep(format_gate(gates[-1]), self.state()))

    def hadamard(self, col: int, note: str):
        """Exchange the Z and X entries of column col via a Hadamard."""
        for z, x in zip(self.z, self.x):
            z[col], x[col] = x[col], z[col]
        self._logged([hadamard(col, note=note)])

    def row_add(self, src: int, dst: int, f: LaurentPoly):
        self.z[dst] = [a + f * b for a, b in zip(self.z[dst], self.z[src])]
        self.x[dst] = [a + f * b for a, b in zip(self.x[dst], self.x[src])]
        self._snapshot(f"row {dst + 1} += ({f}) * row {src + 1}")

    def row_swap(self, i: int, j: int):
        if i == j:
            return
        self.z[i], self.z[j] = self.z[j], self.z[i]
        self.x[i], self.x[j] = self.x[j], self.x[i]
        self.row_ids[i], self.row_ids[j] = self.row_ids[j], self.row_ids[i]
        self._snapshot(f"swap rows {i + 1}, {j + 1}")

    def row_scale(self, pos: int, k: int):
        if k == 0:
            return
        self.z[pos] = [a.shift(k) for a in self.z[pos]]
        self.x[pos] = [a.shift(k) for a in self.x[pos]]
        rid = self.row_ids[pos]
        self.row_scales[rid] = self.row_scales.get(rid, 0) + k
        self._snapshot(f"row {pos + 1} *= D^{k}")

    # column operation helpers realized as gates ------------------------------

    def _coladd(self, fwd, back, src: int, dst: int, f: LaurentPoly, gates: list[Gate]):
        """fwd col dst += f * fwd col src and back col src += f(D^-1) * back col dst, logged as gates.

        The gates are CNOTs sharing control and target, one per exponent e
        of f, so they commute and their joint action is the sum of theirs,
        added at once; with want_trace each gate's term D^e is added on its
        own and the trace takes the state after it.
        """
        if not gates:
            return
        gate_columns(gates[0], self.n, 0)  # raises IndexError for qubits outside the frame
        if self.want_trace:
            steps = [([g], LaurentPoly.term(e)) for g, e in zip(gates, f.exponents())]
        else:
            steps = [(gates, f)]
        for logged, term in steps:
            rev = term.reverse()
            for p, q in zip(fwd, back):
                if p[src]:
                    p[dst] = p[dst] + term * p[src]
                if q[dst]:
                    q[src] = q[src] + rev * q[dst]
            self._logged(logged)

    def z_coladd(self, src: int, dst: int, f: LaurentPoly, note: str = ""):
        """Z col dst += f * Z col src via CNOTs (X side: col src += f(D^-1) col dst)."""
        self._coladd(self.z, self.x, src, dst, f, [cnot(dst, src, -e, note=note) for e in f.exponents()])

    def x_coladd(self, src: int, dst: int, f: LaurentPoly, note: str = ""):
        """X col dst += f * X col src via CNOTs (Z side: col src += f(D^-1) col dst)."""
        self._coladd(self.x, self.z, src, dst, f, [cnot(src, dst, e, note=note) for e in f.exponents()])

    def col_swap(self, i: int, j: int, note: str = ""):
        """Exchange columns i and j on both sides via three CNOTs, added one by one when traced."""
        if self.want_trace:
            for a, b in ((i, j), (j, i), (i, j)):
                self.x_coladd(a, b, _L1, note=note)
            return
        gates = swap(i, j, note=note)
        gate_columns(gates[0], self.n, 0)  # raises IndexError for qubits outside the frame
        self._logged(gates)
        for z, x in zip(self.z, self.x):
            z[i], z[j] = z[j], z[i]
            x[i], x[j] = x[j], x[i]


class _BlockHooks(SmithHooks):
    """Hears the Smith of a block of the Z (side "z") or X (side "x") grid: column ops become gates, row ops stay mental.

    identity_rows maps a block column to the row position whose other side
    holds that column's identity entry; gate side effects there are undone
    by row operations.  gamma_f_col0, when set, keeps the F block's diagonal
    at (row position p, F column p) intact under row operations by emitting
    compensating column gates.  No side effect reaches the block itself.
    """

    def __init__(self, red, side, row0, col0, identity_rows=None, gamma_f_col0=None, note=""):
        self.red = red
        self.grid, self.coladd = (red.z, red.z_coladd) if side == "z" else (red.x, red.x_coladd)
        self.row0, self.col0 = row0, col0
        self.identity_rows = identity_rows
        self.gamma_f_col0 = gamma_f_col0
        self.note = note

    def col_add(self, src, dst, f):
        self.coladd(self.col0 + src, self.col0 + dst, f, note=self.note)
        if self.identity_rows is not None:
            self.red.row_add(self.identity_rows[src], self.identity_rows[dst], f.reverse())

    def col_swap(self, i, j):
        self.red.col_swap(self.col0 + i, self.col0 + j, note=self.note)
        if self.identity_rows is not None:
            self.red.row_swap(self.identity_rows[i], self.identity_rows[j])
            self.identity_rows[i], self.identity_rows[j] = self.identity_rows[j], self.identity_rows[i]

    def _gamma_exp(self, p):
        poly = self.grid[self.row0 + p][self.gamma_f_col0 + p]
        if poly.weight() != 1:
            raise InternalError("F-block diagonal lost its power-of-D form")
        return poly.dell

    def row_add(self, src, dst, f):
        self.red.row_add(self.row0 + src, self.row0 + dst, f)
        if self.gamma_f_col0 is not None:
            q = f.shift(self._gamma_exp(src) - self._gamma_exp(dst))
            self.coladd(self.gamma_f_col0 + dst, self.gamma_f_col0 + src, q, note=self.note)

    def row_swap(self, i, j):
        self.red.row_swap(self.row0 + i, self.row0 + j)
        if self.gamma_f_col0 is not None:
            self.red.col_swap(self.gamma_f_col0 + i, self.gamma_f_col0 + j, note=self.note)


def _reduce_block(red, side, row0, col0, shape, **hooks) -> int:
    """Smith of the shape block at (row0, col0) of red's Z or X grid, replayed to _BlockHooks; its rank."""
    listener = _BlockHooks(red, side, row0, col0, **hooks)
    rows, cols = shape
    engine = SmithEngine([row[col0:col0 + cols] for row in listener.grid[row0:row0 + rows]])
    rank = engine.run()
    replay(engine.ops, listener)
    return rank


def _power_diagonal(grid, row0, col0, count, error, message):
    """Entries (row0 + t, col0 + t), t < count, each a power of D; else raises error(message.format(entry))."""
    diag = [grid[row0 + t][col0 + t] for t in range(count)]
    for e in diag:
        if e.weight() != 1:
            raise error(message.format(e))
    return diag


# -- decomposition record ---------------------------------------------------------


@dataclass
class DecompositionRecord:
    """The classification of a pair; h1, h2 and the E and F blocks are Laurent grids.

    product_factors holds the delay-free invariant factors of the standard
    form's E block, each dividing the next; c is their number and s the
    number equal to 1.  They are the factors of H1(D) H2^T(D^-1): entry
    (i, j) of that product is the shifted symplectic product of row i of
    [H1 | 0] and row j of [0 | H2].  Gates keep every such product, the
    mental row operations are unimodular, and the standard form's rows are
    [E F | 0] over [0 | I 0], so E equals H1 H2~ up to unimodular row
    and column operations.  e_ops and f_ops (class 2) log the Smith runs on
    e_mat and f_massaged; the class-1 and special finishes replay them as gates.
    """

    h1: list[list[LaurentPoly]]
    h2: list[list[LaurentPoly]]
    n: int
    k1: int
    k2: int
    c: int
    s: int
    class_tag: str
    product_factors: tuple[LaurentPoly, ...]
    e_mat: list[list[LaurentPoly]]
    f_mat: list[list[LaurentPoly]]
    f_massaged: list[list[LaurentPoly]] | None
    e_ops: list
    f_ops: list | None
    blocks: dict = field(default_factory=dict)
    reduction: _Reduction | None = None

    @property
    def k(self) -> int:
        return self.k1 + self.k2 - self.n + self.c


def _standard_form_stage(red: _Reduction, h1_basis, h2_ops):
    """Row-reduce the top block to H1's row basis, then column-reduce the bottom block to [I 0].

    Both come from validation.  The bottom X block is H2, and admission's
    Smith reduction of H2 ended in [I 0] exactly, so replaying its log
    through _BlockHooks turns its column operations into gates and leaves
    that block at [I 0], with no row scaling.
    """
    n, k1 = red.n, red.k1
    # mental row operations bring the top block to the row basis of H1
    red.z[: n - k1] = h1_basis
    replay(h2_ops, _BlockHooks(red, "x", n - k1, 0, note="standard-form"))
    red._snapshot("standard form")


def _plan_massage(red: _Reduction):
    """Width-reduce F entries against pure E columns, planned on scratch copies."""
    n, k1, k2 = red.n, red.k1, red.k2
    top = n - k1
    work = [[red.z[i][j] for j in range(n)] for i in range(top)]
    plan = []
    changed = True
    while changed:
        changed = False
        for i in range(top):
            for j in range(n - k2, n):
                phi = work[i][j]
                if phi.is_zero():
                    continue
                for m in range(n - k2):
                    pivot = work[i][m]
                    if pivot.is_zero():
                        continue
                    if any(not work[r][m].is_zero() for r in range(top) if r != i):
                        continue  # impure column: the reduction would corrupt other rows
                    q, r = divmod_shifted(phi, pivot)
                    if q.is_zero() or (not r.is_zero() and r.width >= phi.width):
                        continue
                    plan.append((m, j, q))
                    work[i][j] = r
                    changed = True
                    break
    scalings = []
    for i in range(top):
        exps = [e.dell for e in work[i] if not e.is_zero()]
        if exps and min(exps) != 0:
            scalings.append((i, -min(exps)))
    return plan, scalings


def _massage(red: _Reduction):
    """Normalize the cross block modulo the E block inside a Hadamard sandwich."""
    plan, scalings = _plan_massage(red)
    if not plan and not scalings:
        return
    for col in range(red.n):
        red.hadamard(col, "normalize-F")
    for src, dst, q in plan:
        red.x_coladd(src, dst, q, note="normalize-F")
    for pos, k in scalings:
        red.row_scale(pos, k)
    for col in range(red.n):
        red.hadamard(col, "normalize-F")
    red._snapshot("normalized standard form")


def _blocks(red: _Reduction):
    top, split = red.z[: red.n - red.k1], red.n - red.k2
    return [row[:split] for row in top], [row[split:] for row in top]


def decompose_general(h1: PolyMatrix, h2: PolyMatrix, want_trace: bool = False) -> DecompositionRecord:
    """Validate, reduce to the standard form, classify from it, and record everything."""
    h1, h2, h1_basis, h2_ops = validate_inputs(h1, h2)
    n = len(h1[0])
    k1, k2 = n - len(h1), n - len(h2)
    red = _Reduction(h1, h2, want_trace=want_trace)
    _standard_form_stage(red, h1_basis, h2_ops)
    e_mat, f_mat = _blocks(red)
    e_engine = SmithEngine(e_mat)
    gammas, _ = e_engine.factors()
    c = len(gammas)
    s = sum(1 for g in gammas if g == _L1)
    # k = k1+k2-n+c >= 0 always: Sylvester's inequality gives
    # c = rank(H1 H2~) >= (n-k1) + (n-k2) - n
    f_massaged = f_ops = None
    if s == c:
        tag = CLASS1
    else:
        _massage(red)
        f_massaged = _blocks(red)[1]
        f_engine = SmithEngine(f_massaged)
        f_gammas, f_ops = f_engine.factors()[0], f_engine.ops
        # special: full row rank with every invariant factor a power of D
        special = len(f_gammas) == n - k1 and all(g == _L1 for g in f_gammas)
        tag = CLASS2_SPECIAL if special else CLASS2

    return DecompositionRecord(
        h1=h1, h2=h2, n=n, k1=k1, k2=k2, c=c, s=s, class_tag=tag,
        product_factors=gammas,
        e_mat=e_mat, f_mat=f_mat, f_massaged=f_massaged, e_ops=e_engine.ops, f_ops=f_ops, reduction=red,
    )


def classify(h1: PolyMatrix, h2: PolyMatrix, want_trace: bool = False):
    record = decompose_general(h1, h2, want_trace=want_trace)
    return record.class_tag, record


# -- code specification ------------------------------------------------------------


@dataclass(frozen=True)
class Rates:
    entanglement_assisted: Fraction
    tradeoff: tuple[Fraction, Fraction]
    catalytic: Fraction


@dataclass
class CodeSpec:
    n: int
    k: int
    c: int
    s: int
    class_tag: str
    encoder: Circuit
    decoder: Circuit
    bare: QuantumCheckMatrix
    final_stabilizer: QuantumCheckMatrix
    measurable_stabilizer: QuantumCheckMatrix
    measurement_multipliers: tuple[LaurentPoly, ...]
    rates: Rates
    record: DecompositionRecord
    logical_cols: tuple[int, ...]
    decoded_cols: tuple[int, ...]
    decoded_offsets: tuple
    decoded_state: QuantumCheckMatrix
    encode_trace: list = field(default_factory=list)
    decode_trace: list = field(default_factory=list)

    @property
    def h1(self) -> list[list[LaurentPoly]]:
        return self.record.h1

    @property
    def h2(self) -> list[list[LaurentPoly]]:
        return self.record.h2


def code_params(code: CodeSpec | DecompositionRecord) -> dict:
    """The [[n, k; c]] parameters and the three rate interpretations, known once the code is classified."""
    rates = _rates(code.n, code.k, code.c)
    return {
        "n": code.n,
        "k": code.k,
        "c": code.c,
        "s": code.s,
        "class": code.class_tag,
        "entanglement_assisted_rate": rates.entanglement_assisted,
        "tradeoff_rate": rates.tradeoff,
        "catalytic_rate": rates.catalytic,
    }


def _rates(n, k, c) -> Rates:
    return Rates(Fraction(k, n), (Fraction(k, n), Fraction(c, n)), Fraction(k - c, n))


def _bare_state(n, c, ebit_cols, anc_a, anc_b, logical_cols):
    """The unencoded stream: row order [Z-ebits, |0> ancillas A, X-ebits, |0> ancillas B].

    ebit_cols[b] is the sender column entangled with receiver column b;
    logical_cols carry one X/Z logical pair each.
    """
    total = c + n
    zero = (_L0,) * total

    def row(side, *cols):
        """The row with 1 in `cols` of its Z (side 0) or X (side 1) half."""
        ones = tuple(_L1 if j in cols else _L0 for j in range(total))
        return (ones, zero) if side == 0 else (zero, ones)

    def matrix(rows, labels, info=None):
        zn, xn = tuple(z for z, _ in rows), tuple(x for _, x in rows)
        return QuantumCheckMatrix.from_rows(zn, xn, (_L1,) * len(rows), total, c, labels, info)

    rows = ([row(0, b, c + col) for b, col in enumerate(ebit_cols)] + [row(0, c + col) for col in anc_a]
            + [row(1, b, c + col) for b, col in enumerate(ebit_cols)] + [row(0, c + col) for col in anc_b])
    labels = ([f"ebit-Z{b + 1}" for b in range(c)] + [f"ancilla{j + 1}" for j in range(len(anc_a))]
              + [f"ebit-X{b + 1}" for b in range(c)] + [f"ancilla{len(anc_a) + j + 1}" for j in range(len(anc_b))])
    info_rows = [r for col in logical_cols for r in (row(1, c + col), row(0, c + col))]
    info_labels = [f"{kind}{q + 1}" for q in range(len(logical_cols)) for kind in "XZ"]
    return matrix(rows, labels, matrix(info_rows, info_labels))


def _scale_rows(qcm: QuantumCheckMatrix, scale_by_row) -> QuantumCheckMatrix:
    zn, xn = list(qcm.zn), list(qcm.xn)
    for r, kexp in scale_by_row.items():
        zn[r] = tuple(e.shift(kexp) for e in zn[r])
        xn[r] = tuple(e.shift(kexp) for e in xn[r])
    return QuantumCheckMatrix.from_rows(
        tuple(zn), tuple(xn), qcm.dens, qcm.cols, qcm.bob_cols, qcm.row_labels, qcm.info
    )


def _permute_rows(qcm: QuantumCheckMatrix, order) -> QuantumCheckMatrix:
    def pick(seq):
        return tuple(seq[i] for i in order)

    labels = pick(qcm.row_labels) if qcm.row_labels else ()
    return QuantumCheckMatrix.from_rows(
        pick(qcm.zn), pick(qcm.xn), pick(qcm.dens), qcm.cols, qcm.bob_cols, labels, qcm.info
    )


def _measurable(qcm: QuantumCheckMatrix):
    """Clear denominators row by row (type-3 scalings): the numerator rows, and the row denominators as multipliers."""
    out = QuantumCheckMatrix.from_rows(qcm.zn, qcm.xn, (_L1,) * qcm.rows, qcm.cols, qcm.bob_cols, qcm.row_labels)
    return out, qcm.dens


def _monomial_offset(qcm: QuantumCheckMatrix, row: int, col: int, side: str):
    """If the row is exactly D^k at `col` on `side` (and zero elsewhere), return k."""
    m, other = (qcm.zn, qcm.xn) if side == "z" else (qcm.xn, qcm.zn)
    e = m[row][col]
    if qcm.dens[row] != _L1 or e.weight() != 1:
        return None
    if any(m[row][j] for j in range(qcm.cols) if j != col) or any(other[row]):
        return None
    return e.dell


def _row_map(red: _Reduction, c: int, x_ebits_first: bool) -> list[int]:
    """Reduced row position -> bare row index.

    The reduction's rows run [c ebit rows, ancilla A rows, c ebit rows,
    ancilla B rows] and the bare stream's [Z-ebits, ancillas A, X-ebits,
    ancillas B]; the first c positions take the X-ebit rows when
    x_ebits_first, else the Z-ebit rows.
    """
    a = red.n - red.k1 - c
    z_ebits, x_ebits = list(range(c)), list(range(c + a, 2 * c + a))
    first, second = (x_ebits, z_ebits) if x_ebits_first else (z_ebits, x_ebits)
    return first + list(range(c, c + a)) + second + list(range(2 * c + a, red.rows))


# -- class-specific builders --------------------------------------------------------


def _finish_class1(record: DecompositionRecord):
    red = record.reduction
    n, k1, k2, c = red.n, red.k1, red.k2, record.c
    # diagonalize the E block in place by the classification's run (its factors are powers of D)
    identity_rows = {col: n - k1 + col for col in range(n - k2)}
    replay(record.e_ops, _BlockHooks(red, "z", 0, 0, identity_rows=identity_rows, note="E-block"))
    gamma = _power_diagonal(red.z, 0, 0, c, ClassMismatch, "invariant factor {} of E is not a power of D")
    red._snapshot("E diagonalized")
    # swap every column to the Hadamard frame, then clear the ebit rows' F entries
    for col in range(n):
        red.hadamard(col, "frame-swap")
    for i in range(c):
        a = gamma[i].dell
        for j in range(n - k2, n):
            phi = red.x[i][j]
            if not phi.is_zero():
                red.x_coladd(i, j, phi.shift(-a), note="clear-F1")
    red._snapshot("ebit cross entries cleared")
    # Smith of the ancilla cross block (now on the X side)
    r2 = n - k1 - c
    got = _reduce_block(red, "x", c, n - k2, (r2, k2), note="F2-block")
    if got < r2:
        raise InternalError("ancilla cross block lost rank; the input should have been rejected")
    gamma_f = _power_diagonal(red.x, c, n - k2, r2, InternalError, "ancilla cross factor {} is not a power of D")
    for t in range(r2):
        red.hadamard(n - k2 + t, "frame-swap")
    red._snapshot("reduced form")
    record.blocks["Gamma"] = gamma
    record.blocks["GammaF"] = gamma_f


def build_class1(record: DecompositionRecord) -> CodeSpec:
    if record.class_tag != CLASS1:
        raise ClassMismatch(f"build_class1 called on a {record.class_tag} record")
    red = record.reduction
    n, k1, k2, c, k = record.n, record.k1, record.k2, record.c, record.k
    _finish_class1(record)

    # sender columns: [c ebit][n-k2-c ancilla B][n-k1-c ancilla A][k info]
    ebit_cols = list(range(c))
    anc_a = [n - k2 + j for j in range(n - k1 - c)]
    anc_b = [c + j for j in range(n - k2 - c)]
    logical_cols = [n - k + q for q in range(k)]
    bare = _bare_state(n, c, ebit_cols, anc_a, anc_b, logical_cols)

    decoder = Circuit(tuple(red.gates))
    encoder = decoder.inverse()
    # the X-frame ebit rows carry the Z-check structure
    return _assemble(record, bare, _row_map(red, c, x_ebits_first=True), encoder, decoder, info_fix=None,
                     logical_cols=logical_cols, decoded_cols=logical_cols)


def _finish_class2(record: DecompositionRecord):
    red = record.reduction
    n, k1, k2, c, s = red.n, red.k1, red.k2, record.c, record.s
    special = record.class_tag == CLASS2_SPECIAL
    identity_rows = {col: n - k1 + col for col in range(n - k2)}

    if special:
        # the classification's Smith run on the cross block; its diagonal becomes powers of D
        replay(record.f_ops, _BlockHooks(red, "z", 0, n - k2, note="F-block"))
        _power_diagonal(red.z, 0, n - k2, n - k1, ClassMismatch, "special-case cross factor is not a power of D")
        red._snapshot("F diagonalized")
    _reduce_block(red, "z", 0, 0, (n - k1, n - k2), identity_rows=identity_rows,
                  gamma_f_col0=n - k2 if special else None, note="E-block")

    gamma1, gamma2 = [], []
    for t in range(c):
        pivot = red.z[t][t]
        df, kexp = pivot.delay_free()
        if df == _L1:
            gamma1.append(pivot)
        else:
            if kexp != 0:
                red.row_scale(t, -kexp)
            gamma2.append(df)
    if len(gamma1) != s:
        raise InternalError(f"unit-factor count {len(gamma1)} disagrees with s={s}")
    red._snapshot("E diagonalized")
    blocks = {"Gamma1": gamma1, "Gamma2": gamma2}

    if special:
        gp = _power_diagonal(red.z, 0, n - k2, n - k1, ClassMismatch, "special-case F diagonal lost its power-of-D form")
        blocks["Gamma1p"] = gp[:s]
        blocks["Gamma2p"] = gp[s:c]
        blocks["Gamma3p"] = gp[c:]
        for i in range(s):
            red.z_coladd(i, n - k2 + i, LaurentPoly.term(gp[i].dell - gamma1[i].dell), note="clear-G1p")
        red._snapshot("ebit cross entries cleared")
    else:
        r3 = n - k1 - c
        gamma_f3 = []
        if r3 > 0:
            got = _reduce_block(red, "z", c, n - k2, (r3, k2), note="F3-block")
            if got < r3:
                raise InternalError("ancilla cross block lost rank; the input should have been rejected")
            gamma_f3 = _power_diagonal(red.z, c, n - k2, r3, InternalError, "ancilla cross factor {} is not a power of D")
            for r in range(c):
                for j in range(r3):
                    phi = red.z[r][n - k2 + j]
                    if not phi.is_zero():
                        red.row_add(c + j, r, phi.shift(-gamma_f3[j].dell))
            red._snapshot("ancilla cross block cleared")
        blocks["GammaF3"] = gamma_f3
        for i in range(s):
            a = gamma1[i].dell
            for j in range(r3, k2):
                phi = red.z[i][n - k2 + j]
                if not phi.is_zero():
                    red.z_coladd(i, n - k2 + j, phi.shift(-a), note="clear-F1b")
        # column-only triangularization of the remaining cross rows
        for r in range(c - s):
            col0 = n - k2 + r3 + r
            if n - col0 <= 0:
                break
            _reduce_block(red, "z", s + r, col0, (1, n - col0), note="L-block")
        lmat = [[red.z[s + i][n - k2 + r3 + j] for j in range(c - s)] for i in range(c - s)]
        for i in range(c - s):
            for j in range(i + 1, c - s):
                if not lmat[i][j].is_zero():
                    raise InternalError("column-only reduction failed to reach lower-triangular form")
        blocks["L"] = lmat
        red._snapshot("cross rows triangularized")

    # flip the plain-ancilla columns into the Z frame
    for col in range(c, n - k2):
        red.hadamard(col, "frame-swap")
    red._snapshot("reduced form")
    record.blocks.update(blocks)
    return blocks


def build_class2(record: DecompositionRecord) -> CodeSpec:
    if record.class_tag not in (CLASS2, CLASS2_SPECIAL):
        raise ClassMismatch(f"build_class2 called on a {record.class_tag} record")
    red = record.reduction
    n, k1, k2, c, s, k = record.n, record.k1, record.k2, record.c, record.s, record.k
    special = record.class_tag == CLASS2_SPECIAL
    blocks = _finish_class2(record)
    gamma2 = blocks["Gamma2"]
    cs = c - s
    f0 = n - k2

    mid_cols = [s + j for j in range(cs)]
    if special:
        last_cols = [f0 + s + j for j in range(cs)]
        anc_a = [f0 + c + j for j in range(n - k1 - c)]
        logical_cols = [f0 + j for j in range(s)] + last_cols + [f0 + (n - k1) + q for q in range(k1 + k2 - n)]
        decoded_map = {col: col for col in logical_cols}
        for j in range(cs):
            decoded_map[last_cols[j]] = mid_cols[j]  # coherent teleportation target
    else:
        r3 = n - k1 - c
        last_cols = [f0 + r3 + j for j in range(cs)]
        anc_a = [f0 + j for j in range(r3)]
        logical_cols = last_cols + [f0 + r3 + cs + q for q in range(k1 + k2 - n + s)]
        decoded_map = {col: col for col in logical_cols}
    anc_b = [c + j for j in range(n - k2 - c)]
    ebit_cols = list(range(s)) + mid_cols
    logical_cols = sorted(logical_cols)
    decoded_cols = [decoded_map[col] for col in logical_cols]
    bare = _bare_state(n, c, ebit_cols, anc_a, anc_b, logical_cols)

    # the infinite-depth stage acting on the fresh ebits and information qubits
    sub = []
    if special:
        g2p = blocks["Gamma2p"]
        for j in range(cs):
            sub.append(hadamard(mid_cols[j], note="ebit-stage"))
        for j in range(cs):
            sub.append(cnot(mid_cols[j], last_cols[j], g2p[j].dell, note="ebit-stage"))
        for j in range(cs):
            sub.append(inf_depth(last_cols[j], gamma2[j], note="ebit-stage"))
        for j in range(cs):
            sub.append(hadamard(mid_cols[j], note="ebit-stage"))
        for j in range(cs):
            sub.append(hadamard(last_cols[j], note="ebit-stage"))
    else:
        lmat = blocks["L"]
        for i in range(cs):
            for j in range(cs):
                for exp in lmat[i][j].exponents():
                    sub.append(cnot(last_cols[j], mid_cols[i], -exp, note="ebit-stage"))
        for i in range(cs):
            sub.append(inf_depth(mid_cols[i], gamma2[i], time_reversed=True, note="ebit-stage"))

    reduction = Circuit(tuple(red.gates))
    encoder = Circuit(tuple(sub) + reduction.inverse().gates)

    # decoding: undo the finite-depth part, then unravel the infinite-depth stage
    tail = []
    if special:
        g2p = blocks["Gamma2p"]
        for j in range(cs):
            tail.append(cnot(s + j, c + mid_cols[j], 0, full_frame=True, note="ebit-unstage"))
        for j in range(cs):
            for exp in gamma2[j].shift(-g2p[j].dell).exponents():
                tail.append(cnot(mid_cols[j], last_cols[j], -exp, note="ebit-unstage"))
        for j in range(cs):
            tail.append(hadamard(mid_cols[j], note="ebit-unstage"))
        for j in range(cs):
            tail.append(hadamard(last_cols[j], note="ebit-unstage"))
    else:
        lmat = blocks["L"]
        sandwich = [hadamard(s + i, full_frame=True, note="ebit-unstage") for i in range(cs)]
        sandwich += [hadamard(last_cols[j], note="ebit-unstage") for j in range(cs)]
        tail.extend(sandwich)
        for i in range(cs):
            for j in range(cs):
                for exp in lmat[i][j].exponents():
                    tail.append(cnot(s + i, c + last_cols[j], exp, full_frame=True, note="ebit-unstage"))
        tail.extend(sandwich)

    decoder = Circuit(reduction.gates + tuple(tail))

    # decode-time logical fix-ups: add stabilizer rows to logical rows
    def info_fix(stab: QuantumCheckMatrix, info: QuantumCheckMatrix) -> QuantumCheckMatrix:
        if special:
            g2p = blocks["Gamma2p"]
            # the reduced-position index s + j survives the final row ordering
            adds = [(2 * logical_cols.index(last_cols[j]), LaurentPoly.term(-g2p[j].dell), s + j) for j in range(cs)]
        else:
            lmat = blocks["L"]
            adds = [(2 * logical_cols.index(last_cols[i]), lmat[j][i].reverse(), n - k1 + s + j)
                    for i in range(cs) for j in range(cs) if lmat[j][i]]
        zn, xn, dens = list(info.zn), list(info.xn), list(info.dens)
        for r, f, srow in adds:  # info row r += f * stabilizer row srow, over the product of their denominators
            di, ds = dens[r], stab.dens[srow]
            sums = [a * ds + f * b * di for a, b in zip(zn[r] + xn[r], stab.zn[srow] + stab.xn[srow])]
            dens[r], sums = lowest_terms(di * ds, sums)
            zn[r], xn[r] = tuple(sums[:info.cols]), tuple(sums[info.cols:])
        return QuantumCheckMatrix.from_rows(tuple(zn), tuple(xn), tuple(dens), info.cols, info.bob_cols, info.row_labels)

    # the Z-frame ebit rows (Gamma1 + Gamma2 rows) come first
    return _assemble(record, bare, _row_map(red, c, x_ebits_first=False), encoder, decoder, info_fix=info_fix,
                     logical_cols=logical_cols, decoded_cols=decoded_cols)


def _assemble(record, bare, pair, encoder, decoder, info_fix, logical_cols, decoded_cols):
    red = record.reduction
    want_trace = red.want_trace

    def recorder(trace):
        """A Circuit.apply observer adding one trace step per gate, when tracing."""
        return (lambda g, state: trace.append(TraceStep(format_gate(g), state))) if want_trace else None

    encode_trace = [TraceStep("unencoded stream", bare)] if want_trace else []
    evolved = encoder.apply(bare, recorder(encode_trace))

    # undo the mental row scalings recorded during the reduction
    unscale = {pair[red.row_ids.index(rid)]: -kexp for rid, kexp in red.row_scales.items() if kexp}
    final = _permute_rows(_scale_rows(evolved, unscale) if unscale else evolved, pair)
    if want_trace:
        encode_trace.append(TraceStep("final stabilizer", final))

    # the decoder starts from the received stream with those scalings reapplied
    decode_trace = [TraceStep("received stream", final)] if want_trace else []
    decoded = _permute_rows(evolved, pair)
    if want_trace and unscale:
        decode_trace.append(TraceStep("reduction row scalings reapplied", decoded))
    decoded = decoder.apply(decoded, recorder(decode_trace))
    if info_fix is not None and decoded.info is not None:
        fixed = info_fix(decoded, decoded.info)
        decoded = QuantumCheckMatrix.from_rows(
            decoded.zn, decoded.xn, decoded.dens, decoded.cols, decoded.bob_cols, decoded.row_labels, fixed
        )
        if want_trace:
            decode_trace.append(TraceStep("logical operators reduced by stabilizer rows", decoded))

    offsets = []
    if decoded.info is not None:
        for q, col in enumerate(decoded_cols):
            kx = _monomial_offset(decoded.info, 2 * q, record.c + col, "x")
            kz = _monomial_offset(decoded.info, 2 * q + 1, record.c + col, "z")
            offsets.append(kx if kx is not None and kx == kz else None)

    measurable, mults = _measurable(final)
    return CodeSpec(
        n=record.n,
        k=record.k,
        c=record.c,
        s=record.s,
        class_tag=record.class_tag,
        encoder=encoder,
        decoder=decoder,
        bare=bare,
        final_stabilizer=final,
        measurable_stabilizer=measurable,
        measurement_multipliers=mults,
        rates=_rates(record.n, record.k, record.c),
        record=record,
        logical_cols=tuple(logical_cols),
        decoded_cols=tuple(decoded_cols),
        decoded_offsets=tuple(offsets),
        decoded_state=decoded,
        encode_trace=encode_trace,
        decode_trace=decode_trace,
    )


def build_code(h1: PolyMatrix, h2: PolyMatrix, want_trace: bool = False) -> CodeSpec:
    """The full pipeline: validate, classify, and synthesize the code."""
    tag, record = classify(h1, h2, want_trace=want_trace)
    if tag == CLASS1:
        return build_class1(record)
    return build_class2(record)
