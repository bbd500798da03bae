"""The rational-row circuit replay, kept as the reference for `eaqconv.gates`.

This is the `Circuit.apply` and `apply_in_place` that `gates.py` used while
every row entry was a normalised `RationalPoly`: each gate adds or multiplies
canonical rational functions, so every addition into a rational entry runs
a gcd, and INF multiplies column a by `1/f` and `f(D^-1)` as `RationalPoly`
multipliers.  They are copied verbatim; `apply` is the method body, taking
the circuit first, except that its `freeze` builds each state with the
`QuantumCheckMatrix` constructor and it copies rows from `entries`.

`steps` is the grouping of a gate list into replay steps that `gates.py`
used while a circuit held one `Gate` per term, copied verbatim from its
`_steps`, the reference for the steps `Circuit._runs` merges from strings.
"""

from __future__ import annotations

from eaqconv.gates import _MOVES, QuantumCheckMatrix, gate_columns
from eaqconv.poly import LaurentPoly, RationalPoly
from eaqconv.polymat import PolyMatrix


def apply_in_place(g, rows, cols: int, bob_cols: int = 0) -> None:
    """Apply g's column operation to mutable (Z row, X row) list pairs.

    Only columns a (and b) change; a row whose source entry is zero is skipped.
    Finite-depth gates only add shifted entries, so the rows may hold
    LaurentPoly or RationalPoly entries; INF needs RationalPoly rows.
    """
    a, b = gate_columns(g, cols, bob_cols)
    if g.kind == "CNOT":
        for z, x in rows:
            if x[a]:
                x[b] = x[b] + x[a].shift(g.delay)
            if z[b]:
                z[a] = z[a] + z[b].shift(-g.delay)
    elif g.kind == "H":
        for z, x in rows:
            z[a], x[a] = x[a], z[a]
    elif g.kind == "P":
        for z, x in rows:
            if x[a]:
                z[a] = z[a] + x[a]
    elif g.kind == "CPHASE":
        for z, x in rows:
            if x[a]:
                z[b] = z[b] + x[a].shift(g.delay)
            if x[b]:
                z[a] = z[a] + x[b].shift(-g.delay)
    elif g.kind == "CPHASE_SELF":
        for z, x in rows:
            if x[a]:
                z[a] = z[a] + x[a].shift(g.delay) + x[a].shift(-g.delay)
    elif g.kind == "INF":
        fwd = g.f.reverse() if g.time_reversed else g.f
        xmul = RationalPoly(LaurentPoly.one(), fwd)
        zmul = RationalPoly(fwd.reverse())
        for z, x in rows:
            if x[a]:
                x[a] = x[a] * xmul
            if z[a]:
                z[a] = z[a] * zmul
    else:  # pragma: no cover
        raise ValueError(g.kind)


def apply(circuit, qcm, observe=None):
    """Run every gate on one mutable copy of qcm and return it frozen.

    observe(gate, state), when given, sees the frozen state after each gate.
    """
    z, x = ([list(r) for r in m.entries] for m in (qcm.z, qcm.x))
    iz, ix = ([list(r) for r in m.entries] for m in (qcm.info.z, qcm.info.x)) if qcm.info is not None else ([], [])
    rows = list(zip(z, x)) + list(zip(iz, ix))

    def freeze():
        def matrix(zr, xr, like, info=None):
            grids = PolyMatrix(zr, cols=qcm.cols), PolyMatrix(xr, cols=qcm.cols)
            return QuantumCheckMatrix(*grids, like.bob_cols, like.row_labels, info)

        return matrix(z, x, qcm, None if qcm.info is None else matrix(iz, ix, qcm.info))

    for g in circuit.gates:
        apply_in_place(g, rows, qcm.cols, qcm.bob_cols)
        if observe is not None:
            observe(g, freeze())
    return freeze()


def steps(gates) -> tuple:
    """(first gate, delays) per step, the delays those of the step's gates in order.

    Each maximal run of finite-depth gates with the same kind, qubits and
    frame flag is one step; H and INF gates are steps of one gate.
    """
    runs, prev = [], None
    for g in gates:
        if prev and g.kind == prev.kind and g.i == prev.i and g.j == prev.j and g.full_frame == prev.full_frame:
            delays.append(g.delay)
        else:
            delays = [g.delay]
            runs.append((g, delays))
            prev = g if g.kind in _MOVES else None
    return tuple(runs)
