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

`_Reduction.play` plays every Smith log: the standard form, the class-1
finish and the special finish play the runs of admission (on H2) and the
classification (on E, on the massaged F).  `build_code` classifies the pair
by `decompose_general` and finishes the fresh record's reduction in place.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    CatastrophicInput,
    InternalError,
    NotDelayFree,
    RankDeficient,
    ValidationError,
)
from .gates import (
    Circuit,
    Gate,
    QuantumCheckMatrix,
    apply_gate,
    cnot,
    format_gate,
    gate_columns,
    hadamard,
    inf_depth,
    swap,
)
from .poly import ONE, ZERO, LaurentPoly, divmod_shifted, lowest_terms
from .polymat import PolyMatrix, SmithEngine, _axpy, laurent_grid, row_image

CLASS1 = "class1"
CLASS2 = "class2"
CLASS2_SPECIAL = "class2_special"


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
                raise NotDelayFree(which, entry=e)
    engine = SmithEngine(grid)
    gamma, units = engine.factors()
    if len(gamma) < h.rows:
        raise RankDeficient(which, len(gamma), h.rows)
    for g, k in zip(gamma, units):
        if g != ONE:
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


def _traced(trace, state: QuantumCheckMatrix, gates, order=None) -> QuantumCheckMatrix:
    """The last state of gates stepped by `apply_gate`; each adds a trace step, its rows in `order` if given."""
    for g in gates:
        state = apply_gate(state, g)
        trace.append(TraceStep(format_gate(g), _permute_rows(state, order) if order else state))
    return state


def _cnots(i: int, j: int, delays, note: str, full_frame: bool = False):
    """The CNOT string from i to j with these delays, one or more: its first gate and the delays."""
    return cnot(i, j, delays[0], full_frame=full_frame, note=note), delays


def _alone(g: Gate):
    """The string of g alone."""
    return g, (g.delay,)


def _axpy_entry(a: LaurentPoly, fb: int, fl: int, b: LaurentPoly) -> LaurentPoly:
    """a + f*b for f given as its (bits, low) pair and b nonzero, with no object for the product."""
    return LaurentPoly(*_axpy(a.bits, a.low, fb, fl, b.bits, b.low))


class _Reduction:
    """Mutable quantum check matrix with a gate log and mental row operations.

    The grids hold LaurentPoly entries: the reduction issues no INF gate.
    `strings` logs one gate string per column operation; a column addition
    by f logs the CNOT string of f's terms and adds f times the source
    column at once, and row additions too compute each entry they change on
    (bits, low) pairs by the Smith engine's `_axpy`.  With want_trace, each
    string's gates are also stepped through `apply_gate` from the state
    before it, so the trace holds the state after every gate while the grids
    change as in a plain reduction.  `play` plays a Smith log on a block.
    """

    def __init__(self, h1, h2, want_trace: bool = False):
        self.n = len(h1[0])
        self.k1 = self.n - len(h1)
        self.k2 = self.n - len(h2)
        top = len(h1)
        self.rows = top + len(h2)
        self.z = [list(row) for row in h1] + [[ZERO] * self.n for _ in h2]
        self.x = [[ZERO] * self.n for _ in range(top)] + [list(row) for row in h2]
        self.strings: list[tuple[Gate, list[int]]] = []
        self.scales = [0] * self.rows  # the D^k each row position has been scaled by
        self.want_trace = want_trace
        self.trace: list[TraceStep] = []
        self._snapshot("initial quantum check matrix")

    def state(self) -> QuantumCheckMatrix:
        zn, xn = tuple(map(tuple, self.z)), tuple(map(tuple, self.x))
        return QuantumCheckMatrix.from_rows(zn, xn, (ONE,) * self.rows, self.n)

    def _snapshot(self, label, *args):
        """Trace the state under label, formatted with args; a plain reduction formats nothing."""
        if self.want_trace:
            self.trace.append(TraceStep(label.format(*args), self.state()))

    def _logged(self, *strings):
        """Append the strings, (gate, delays) each, to the log, before the grids take their action.

        Raises IndexError for qubits outside the frame.  A traced reduction
        steps their gates from the current state, one trace step per gate.
        """
        gate_columns(strings[0][0], self.n, 0)
        if self.want_trace:
            _traced(self.trace, self.state(), Circuit.from_strings(strings))
        self.strings += strings

    def hadamard(self, col: int, note: str):
        """Exchange the Z and X entries of column col via a Hadamard."""
        self._logged(_alone(hadamard(col, note=note)))
        for z, x in zip(self.z, self.x):
            z[col], x[col] = x[col], z[col]

    def row_add(self, src: int, dst: int, f: LaurentPoly):
        fb, fl = f.bits, f.low
        for grid in (self.z, self.x):
            grid[dst] = [_axpy_entry(a, fb, fl, b) if b.bits else a for a, b in zip(grid[dst], grid[src])]
        self._snapshot("row {} += ({}) * row {}", dst + 1, f, src + 1)

    def row_swap(self, i: int, j: int):
        self.z[i], self.z[j] = self.z[j], self.z[i]
        self.x[i], self.x[j] = self.x[j], self.x[i]
        self.scales[i], self.scales[j] = self.scales[j], self.scales[i]
        self._snapshot("swap rows {}, {}", i + 1, j + 1)

    def row_scale(self, pos: int, k: int):
        self.z[pos] = [a.shift(k) for a in self.z[pos]]
        self.x[pos] = [a.shift(k) for a in self.x[pos]]
        self.scales[pos] += k
        self._snapshot("row {} *= D^{}", pos + 1, k)

    # column operation helpers realized as gates ------------------------------

    def _coladd(self, fwd, back, src: int, dst: int, f: LaurentPoly, string):
        """fwd col dst += f * fwd col src and back col src += f(D^-1) * back col dst, logged as a CNOT string.

        Its CNOTs share control and target, one per exponent e of the
        nonzero f, so they commute and their joint action is the sum of
        theirs, added at once.
        """
        self._logged(string)
        fb, fl, rev = f.bits, f.low, f.reverse()
        rb, rl = rev.bits, rev.low
        for p, q in zip(fwd, back):
            if (b := p[src]).bits:
                p[dst] = _axpy_entry(p[dst], fb, fl, b)
            if (b := q[dst]).bits:
                q[src] = _axpy_entry(q[src], rb, rl, b)

    def z_coladd(self, src: int, dst: int, f: LaurentPoly, note: str = ""):
        """Z col dst += f * Z col src via CNOTs (X side: col src += f(D^-1) col dst)."""
        self._coladd(self.z, self.x, src, dst, f, _cnots(dst, src, [-e for e in f.exponents()], note))

    def x_coladd(self, src: int, dst: int, f: LaurentPoly, note: str = ""):
        """X col dst += f * X col src via CNOTs (Z side: col src += f(D^-1) col dst)."""
        self._coladd(self.x, self.z, src, dst, f, _cnots(src, dst, f.exponents(), note))

    def col_swap(self, i: int, j: int, note: str = ""):
        """Exchange columns i and j on both sides via three CNOTs."""
        self._logged(*[_alone(g) for g in swap(i, j, note=note)])
        for z, x in zip(self.z, self.x):
            z[i], z[j] = z[j], z[i]
            x[i], x[j] = x[j], x[i]

    def play(self, ops, side, row0, col0, identity_rows=None, gamma_f_col0=None, note=""):
        """Play the Smith log of the block at (row0, col0) of the Z (side "z") or X (side "x") grid.

        Column operations become gate strings (a CNOT string whose delays are the terms of f), row
        operations stay mental.
        identity_rows maps a block column to the row position whose other side holds its identity
        entry; row operations there undo the gates' side effects.  gamma_f_col0, when set, keeps
        the F diagonal at (row position p, F column p) by compensating column gates.
        """
        grid, coladd = (self.z, self.z_coladd) if side == "z" else (self.x, self.x_coladd)

        def gamma_exp(p):
            poly = grid[row0 + p][gamma_f_col0 + p]
            if poly.weight() != 1:
                raise InternalError("F-block diagonal lost its power-of-D form")
            return poly.dell

        for kind, i, j, fb, fl in ops:
            f = LaurentPoly(fb, fl)
            if kind == "col_add":
                coladd(col0 + i, col0 + j, f, note=note)
                if identity_rows is not None:
                    self.row_add(identity_rows[i], identity_rows[j], f.reverse())
            elif kind == "col_swap":
                self.col_swap(col0 + i, col0 + j, note=note)
                if identity_rows is not None:
                    self.row_swap(identity_rows[i], identity_rows[j])
                    identity_rows[i], identity_rows[j] = identity_rows[j], identity_rows[i]
            elif kind == "row_add":
                self.row_add(row0 + i, row0 + j, f)
                if gamma_f_col0 is not None:
                    coladd(gamma_f_col0 + j, gamma_f_col0 + i, f.shift(gamma_exp(i) - gamma_exp(j)), note=note)
            else:
                self.row_swap(row0 + i, row0 + j)
                if gamma_f_col0 is not None:
                    self.col_swap(gamma_f_col0 + i, gamma_f_col0 + j, note=note)


def _reduce_block(red, side, row0, col0, shape, **play) -> int:
    """Smith of the shape block at (row0, col0) of red's Z or X grid, played by `_Reduction.play`; its rank."""
    rows, cols = shape
    engine = SmithEngine([row[col0:col0 + cols] for row in (red.z if side == "z" else red.x)[row0:row0 + rows]])
    rank = engine.run()
    red.play(engine.ops, side, row0, col0, **play)
    return rank


def _power_diagonal(grid, row0, col0, count, message):
    """Entries (row0 + t, col0 + t), t < count, each a power of D; else raises InternalError(message.format(entry))."""
    diag = [grid[row0 + t][col0 + t] for t in range(count)]
    for e in diag:
        if e.weight() != 1:
            raise InternalError(message.format(e))
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
    e_mat and f_massaged; the class-1 and special finishes play them.  A build
    finishes `reduction` in place, and it stays readable after the build.
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
    reduction: _Reduction

    @property
    def k(self) -> int:
        return self.k1 + self.k2 - self.n + self.c

    @property
    def rates(self) -> Rates:
        """The three rate interpretations, known once the pair is classified."""
        n, k, c = self.n, self.k, self.c
        return Rates(Fraction(k, n), (Fraction(k, n), Fraction(c, n)), Fraction(k - c, n))


def _standard_form_stage(red: _Reduction, h1_basis, h2_ops):
    """Row-reduce the top block to H1's row basis, then column-reduce the bottom block to [I 0].

    Both come from validation.  The bottom X block is H2, and admission's
    Smith reduction of H2 ended in [I 0] exactly, so playing its log by
    `_Reduction.play` turns its column operations into gates and leaves
    that block at [I 0], with no row scaling.
    """
    n, k1 = red.n, red.k1
    # mental row operations bring the top block to the row basis of H1
    red.z[: n - k1] = h1_basis
    red.play(h2_ops, "x", n - k1, 0, note="standard-form")
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
    s = sum(1 for g in gammas if g == ONE)
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
        special = len(f_gammas) == n - k1 and all(g == ONE for g in f_gammas)
        tag = CLASS2_SPECIAL if special else CLASS2

    return DecompositionRecord(
        h1=h1, h2=h2, n=n, k1=k1, k2=k2, c=c, s=s, class_tag=tag,
        product_factors=gammas,
        e_mat=e_mat, f_mat=f_mat, f_massaged=f_massaged, e_ops=e_engine.ops, f_ops=f_ops, reduction=red,
    )


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
    decode_bare: Callable[[], QuantumCheckMatrix] = field(repr=False)  # forms `decoded_state`
    encode_trace: list = field(default_factory=list)
    decode_trace: list = field(default_factory=list)

    @cached_property
    def decoded_state(self) -> QuantumCheckMatrix:
        """The decoder on the encoder's result, run as the stage and tail strings on bare; formed on first read."""
        return self.decode_bare()

    @cached_property
    def decoded_offsets(self) -> tuple:
        """Per logical qubit, k when its decoded X and Z rows are both D^k at its decoded column, else None."""
        info = self.decoded_state.info  # the bare stream's logical rows, decoded
        offsets = []
        for q, col in enumerate(self.decoded_cols):
            kx = _monomial_offset(info, 2 * q, self.c + col, "x")
            kz = _monomial_offset(info, 2 * q + 1, self.c + col, "z")
            offsets.append(kx if kx is not None and kx == kz else None)
        return tuple(offsets)

    @property
    def h1(self) -> list[list[LaurentPoly]]:
        return self.record.h1

    @property
    def h2(self) -> list[list[LaurentPoly]]:
        return self.record.h2


def _bare_state(n, c, ebit_cols, anc_a, anc_b, logical_cols):
    """The unencoded stream: row order [Z-ebits, |0> ancillas A, X-ebits, |0> ancillas B].

    ebit_cols[b] is the sender column entangled with receiver column b;
    logical_cols carry one X/Z logical pair each.
    """
    total = c + n
    zero = (ZERO,) * total

    def row(side, *cols):
        """The row with 1 in `cols` of its Z (side 0) or X (side 1) half."""
        ones = (*(ONE if j in cols else ZERO for j in range(total)),)
        return (ones, zero) if side == 0 else (zero, ones)

    def matrix(rows, labels, info=None):
        zn, xn = (*(z for z, _ in rows),), (*(x for _, x in rows),)
        return QuantumCheckMatrix.from_rows(zn, xn, (ONE,) * len(rows), total, c, labels, info)

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
        zn[r] = (*(e.shift(kexp) for e in zn[r]),)
        xn[r] = (*(e.shift(kexp) for e in xn[r]),)
    return QuantumCheckMatrix.from_rows(
        tuple(zn), tuple(xn), qcm.dens, qcm.cols, qcm.bob_cols, qcm.row_labels, qcm.info
    )


def _permute_rows(qcm: QuantumCheckMatrix, order) -> QuantumCheckMatrix:
    def pick(seq):
        return (*(seq[i] for i in order),)

    labels = pick(qcm.row_labels) if qcm.row_labels else ()
    return QuantumCheckMatrix.from_rows(
        pick(qcm.zn), pick(qcm.xn), pick(qcm.dens), qcm.cols, qcm.bob_cols, labels, qcm.info
    )


def _measurable(qcm: QuantumCheckMatrix):
    """Clear denominators row by row (type-3 scalings): the numerator rows, and the row denominators as multipliers."""
    out = QuantumCheckMatrix.from_rows(qcm.zn, qcm.xn, (ONE,) * qcm.rows, qcm.cols, qcm.bob_cols, qcm.row_labels)
    return out, qcm.dens


def _monomial_offset(qcm: QuantumCheckMatrix, row: int, col: int, side: str):
    """If the row is exactly D^k at `col` on `side` (and zero elsewhere), return k."""
    m, other = (qcm.zn, qcm.xn) if side == "z" else (qcm.xn, qcm.zn)
    e = m[row][col]
    if qcm.dens[row] != ONE or e.weight() != 1:
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
    red.play(record.e_ops, "z", 0, 0, identity_rows=identity_rows, note="E-block")
    gamma = _power_diagonal(red.z, 0, 0, c, "invariant factor {} of E is not a power of D")
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
    _power_diagonal(red.x, c, n - k2, r2, "ancilla cross factor {} is not a power of D")
    for t in range(r2):
        red.hadamard(n - k2 + t, "frame-swap")
    red._snapshot("reduced form")


def _build_class1(record: DecompositionRecord) -> CodeSpec:
    red = record.reduction
    n, k1, k2, c, k = record.n, record.k1, record.k2, record.c, record.k
    _finish_class1(record)

    # sender columns: [c ebit][n-k2-c ancilla B][n-k1-c ancilla A][k info]
    ebit_cols = list(range(c))
    anc_a = [n - k2 + j for j in range(n - k1 - c)]
    anc_b = [c + j for j in range(n - k2 - c)]
    logical_cols = [n - k + q for q in range(k)]
    bare = _bare_state(n, c, ebit_cols, anc_a, anc_b, logical_cols)

    # no stage or tail gates; the X-frame ebit rows carry the Z-check structure
    return _assemble(record, bare, _row_map(red, c, x_ebits_first=True), (), (), info_fix=None,
                     logical_cols=logical_cols, decoded_cols=logical_cols)


def _finish_class2(record: DecompositionRecord):
    """Finish a class-2 reduction: (Gamma2, the special F diagonal's Gamma2' or None, the L block or None)."""
    red = record.reduction
    n, k1, k2, c, s = red.n, red.k1, red.k2, record.c, record.s
    special = record.class_tag == CLASS2_SPECIAL
    identity_rows = {col: n - k1 + col for col in range(n - k2)}

    if special:
        # the classification's Smith run on the cross block; its diagonal becomes powers of D
        red.play(record.f_ops, "z", 0, n - k2, note="F-block")
        _power_diagonal(red.z, 0, n - k2, n - k1, "special-case cross factor is not a power of D")
        red._snapshot("F diagonalized")
    _reduce_block(red, "z", 0, 0, (n - k1, n - k2), identity_rows=identity_rows,
                  gamma_f_col0=n - k2 if special else None, note="E-block")

    gamma1, gamma2 = [], []
    for t in range(c):
        pivot = red.z[t][t]
        df, kexp = pivot.delay_free()
        if df == ONE:
            gamma1.append(pivot)
        else:
            if kexp != 0:
                red.row_scale(t, -kexp)
            gamma2.append(df)
    if len(gamma1) != s:
        raise InternalError(f"unit-factor count {len(gamma1)} disagrees with s={s}")
    red._snapshot("E diagonalized")
    g2p = lmat = None

    if special:
        gp = _power_diagonal(red.z, 0, n - k2, n - k1, "special-case F diagonal lost its power-of-D form")
        g2p = gp[s:c]
        for i in range(s):
            red.z_coladd(i, n - k2 + i, LaurentPoly.term(gp[i].dell - gamma1[i].dell), note="clear-G1p")
        red._snapshot("ebit cross entries cleared")
    else:
        r3 = n - k1 - c
        if r3 > 0:
            got = _reduce_block(red, "z", c, n - k2, (r3, k2), note="F3-block")
            if got < r3:
                raise InternalError("ancilla cross block lost rank; the input should have been rejected")
            gamma_f3 = _power_diagonal(red.z, c, n - k2, r3, "ancilla cross factor {} is not a power of D")
            for r in range(c):
                for j in range(r3):
                    phi = red.z[r][n - k2 + j]
                    if not phi.is_zero():
                        red.row_add(c + j, r, phi.shift(-gamma_f3[j].dell))
            red._snapshot("ancilla cross block cleared")
        for i in range(s):
            a = gamma1[i].dell
            for j in range(r3, k2):
                phi = red.z[i][n - k2 + j]
                if not phi.is_zero():
                    red.z_coladd(i, n - k2 + j, phi.shift(-a), note="clear-F1b")
        # column-only triangularization of the remaining cross rows
        for r in range(c - s):
            col0 = n - k2 + r3 + r
            _reduce_block(red, "z", s + r, col0, (1, n - col0), note="L-block")
        lmat = [[red.z[s + i][n - k2 + r3 + j] for j in range(c - s)] for i in range(c - s)]
        for i in range(c - s):
            for j in range(i + 1, c - s):
                if not lmat[i][j].is_zero():
                    raise InternalError("column-only reduction failed to reach lower-triangular form")
        red._snapshot("cross rows triangularized")

    # flip the plain-ancilla columns into the Z frame
    for col in range(c, n - k2):
        red.hadamard(col, "frame-swap")
    red._snapshot("reduced form")
    return gamma2, g2p, lmat


def _build_class2(record: DecompositionRecord) -> CodeSpec:
    red = record.reduction
    n, k1, k2, c, s = record.n, record.k1, record.k2, record.c, record.s
    special = record.class_tag == CLASS2_SPECIAL
    gamma2, g2p, lmat = _finish_class2(record)
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

    # the infinite-depth stage acting on the fresh ebits and information qubits, and the decoding
    # tail that unravels it once the finite-depth part is undone, as gate strings
    stage, tail = [], []
    if special:
        stage += [_alone(hadamard(mid_cols[j], note="ebit-stage")) for j in range(cs)]
        stage += [_cnots(mid_cols[j], last_cols[j], (g2p[j].dell,), "ebit-stage") for j in range(cs)]
        stage += [_alone(inf_depth(last_cols[j], gamma2[j], note="ebit-stage")) for j in range(cs)]
        stage += [_alone(hadamard(mid_cols[j], note="ebit-stage")) for j in range(cs)]
        stage += [_alone(hadamard(last_cols[j], note="ebit-stage")) for j in range(cs)]
        tail += [_cnots(s + j, c + mid_cols[j], (0,), "ebit-unstage", full_frame=True) for j in range(cs)]
        tail += [_cnots(mid_cols[j], last_cols[j], [-e for e in gamma2[j].shift(-g2p[j].dell).exponents()],
                        "ebit-unstage") for j in range(cs)]
        tail += [_alone(hadamard(mid_cols[j], note="ebit-unstage")) for j in range(cs)]
        tail += [_alone(hadamard(last_cols[j], note="ebit-unstage")) for j in range(cs)]
    else:
        stage += [_cnots(last_cols[j], mid_cols[i], [-e for e in lmat[i][j].exponents()], "ebit-stage")
                  for i in range(cs) for j in range(cs) if lmat[i][j]]
        stage += [_alone(inf_depth(mid_cols[i], gamma2[i], time_reversed=True, note="ebit-stage")) for i in range(cs)]
        sandwich = [_alone(hadamard(s + i, full_frame=True, note="ebit-unstage")) for i in range(cs)]
        sandwich += [_alone(hadamard(last_cols[j], note="ebit-unstage")) for j in range(cs)]
        tail += sandwich
        tail += [_cnots(s + i, c + last_cols[j], lmat[i][j].exponents(), "ebit-unstage", full_frame=True)
                 for i in range(cs) for j in range(cs) if lmat[i][j]]
        tail += sandwich

    # decode-time logical fix-ups: add stabilizer rows to logical rows
    def info_fix(stab: QuantumCheckMatrix, info: QuantumCheckMatrix) -> QuantumCheckMatrix:
        if special:
            # the reduced-position index s + j survives the final row ordering
            adds = [(2 * logical_cols.index(last_cols[j]), LaurentPoly.term(-g2p[j].dell), s + j) for j in range(cs)]
        else:
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
    return _assemble(record, bare, _row_map(red, c, x_ebits_first=False), stage, tail, info_fix=info_fix,
                     logical_cols=logical_cols, decoded_cols=decoded_cols)


def _with_info_fix(decoded: QuantumCheckMatrix, info_fix) -> QuantumCheckMatrix:
    """decoded with its logical rows reduced by info_fix, when there is one."""
    if info_fix is None or decoded.info is None:
        return decoded
    return QuantumCheckMatrix.from_rows(decoded.zn, decoded.xn, decoded.dens, decoded.cols, decoded.bob_cols,
                                        decoded.row_labels, info_fix(decoded, decoded.info))


def _assemble(record, bare, pair, stage, tail, info_fix, logical_cols, decoded_cols):
    red = record.reduction
    # encoder = stage + R^-1 and decoder = R + tail, R the reduction's strings.  Every
    # finite-depth gate is its own inverse, R has no INF gate and a column move
    # leaves denominators as they are, so R(R^-1(x)) is x bit for bit: on the
    # encoder's result the decoder acts as tail after stage, a few gates on bare.
    inverse = Circuit.from_strings(red.strings).inverse()
    encoder = Circuit.from_strings((*stage, *inverse.strings))
    decoder = Circuit.from_strings((*red.strings, *tail))
    evolved = encoder.apply(bare)

    # undo the mental row scalings recorded during the reduction
    unscale = {pair[pos]: -k for pos, k in enumerate(red.scales) if k}
    final = _permute_rows(_scale_rows(evolved, unscale) if unscale else evolved, pair)

    # The decoder starts from the received stream with those scalings
    # reapplied: `evolved` in `pair` row order.  Every gate, INF included,
    # acts row by row, so the decoded rows are permuted after.  The spec
    # forms them on first read.
    def decode_bare():
        return _with_info_fix(_permute_rows(Circuit.from_strings((*stage, *tail)).apply(bare), pair), info_fix)

    # A traced build steps the encoder from bare and the decoder from evolved,
    # gate by gate; its last decode step reduces the logical rows of its own
    # last state.
    encode_trace, decode_trace = [], []
    if red.want_trace:
        encode_trace.append(TraceStep("unencoded stream", bare))
        _traced(encode_trace, bare, encoder)
        encode_trace.append(TraceStep("final stabilizer", final))
        decode_trace.append(TraceStep("received stream", final))
        if unscale:
            decode_trace.append(TraceStep("reduction row scalings reapplied", _permute_rows(evolved, pair)))
        last = _permute_rows(_traced(decode_trace, evolved, decoder, pair), pair)
        if info_fix is not None:
            fixed = _with_info_fix(last, info_fix)
            decode_trace.append(TraceStep("logical operators reduced by stabilizer rows", fixed))

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
        rates=record.rates,
        record=record,
        logical_cols=tuple(logical_cols),
        decoded_cols=tuple(decoded_cols),
        decode_bare=decode_bare,
        encode_trace=encode_trace,
        decode_trace=decode_trace,
    )


def build_code(h1: PolyMatrix, h2: PolyMatrix, want_trace: bool = False) -> CodeSpec:
    """The full pipeline: validate, classify by `decompose_general`, and synthesize the code."""
    record = decompose_general(h1, h2, want_trace=want_trace)
    return (_build_class1 if record.class_tag == CLASS1 else _build_class2)(record)
