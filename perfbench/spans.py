"""Spans and counters at the eaqconv layer boundaries, recorded from outside the package.

`instrument(tracer)` routes the public entry points of each layer through the
tracer for the length of a `with` block.  The package imports collaborators by
name (`from .gates import apply_gate`), so a function is replaced in every
eaqconv module that holds it, not only where it is defined.  Every call of a
timed function is one span; counted functions only add to `tracer.counts`,
because they run too often for a span each.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op's root
    op: int  # every span of one op shares the op's id


class Tracer:
    """Keeps spans and counts in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def timed(self, name, fn, observe=None):
        """Wrap fn so each call records a span; observe(counts, result) sees each result."""
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = Span(name, start, end, parent, self.op)
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def counted(self, name, fn, den1=False):
        """Wrap fn so each call adds to counts[name]; with den1, also count calls on polynomial operands."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            if den1 and all(a.is_polynomial() for a in args):
                counts[name + ".den1"] += 1
            return fn(*args)

        return wrapper


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every instrumented entry point."""
    from eaqconv import construct, gates, pauli, poly, polymat, simulate

    def gate_counts(counts, spec):
        counts["construct.encoder_gates"] += len(spec.encoder)
        counts["construct.decoder_gates"] += len(spec.decoder)

    def window_rows(counts, win):
        counts["simulate.window_rows"] += len(win.rows)

    t, c = tracer.timed, tracer.counted
    out = [
        (polymat, "parse_matrix", lambda f: t("polymat.parse_matrix", f)),
        (construct, "validate_inputs", lambda f: t("construct.validate_inputs", f)),
        (construct, "decompose_general", lambda f: t("construct.decompose_general", f)),
        (construct, "build_code", lambda f: t("construct.build_code", f, gate_counts)),
        (gates, "apply_gate", lambda f: t("gates.apply_gate", f)),
        (gates.Circuit, "apply", lambda f: t("gates.Circuit.apply", f)),
        (polymat.SmithEngine, "run", lambda f: t("polymat.SmithEngine.run", f)),
        (polymat, "divmod_width", lambda f: c("polymat.divmod_width", f)),
        (polymat, "row_space_equal", lambda f: t("polymat.row_space_equal", f)),
        (polymat, "rref", lambda f: t("polymat.rref", f)),
        (pauli, "shifted_symplectic", lambda f: t("pauli.shifted_symplectic", f)),
        (poly, "series_expand", lambda f: t("poly.series_expand", f)),
        (simulate, "expand", lambda f: t("simulate.expand", f, window_rows)),
        (simulate, "run_circuit", lambda f: t("simulate.run_circuit", f)),
        (simulate, "verify_code", lambda f: t("simulate.verify_code", f)),
    ]
    for op in ("__add__", "__mul__", "__truediv__", "inverse"):
        out.append((poly.RationalPoly, op, lambda f: c("poly.rational_ops", f, den1=True)))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the listed eaqconv entry points through tracer; restore them on exit."""
    modules = [m for name, m in sys.modules.items() if name == "eaqconv" or name.startswith("eaqconv.")]
    undo = []
    try:
        for owner, attr, wrap in _targets(tracer):
            orig = vars(owner)[attr]
            new = wrap(orig)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, new)
                        undo.append((holder, key, orig))
        yield tracer
    finally:
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children[i]):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


# metric -> (unit, span names whose self time is summed, or the count behind it)
LAYER_METRICS = {
    "cli.self_s": ("s", ["cli.main"]),
    "polymat.parse_s": ("s", ["polymat.parse_matrix"]),
    "construct.validate_s": ("s", ["construct.validate_inputs"]),
    "construct.validate_calls": ("count", "construct.validate_inputs"),
    "construct.decompose_s": ("s", ["construct.decompose_general"]),
    "construct.finish_s": ("s", ["construct.build_code"]),
    "construct.encoder_gates": ("count", "construct.encoder_gates"),
    "construct.decoder_gates": ("count", "construct.decoder_gates"),
    "gates.apply_gate_calls": ("count", "gates.apply_gate"),
    "gates.apply_gate_s": ("s", ["gates.apply_gate"]),
    "gates.circuit_apply_calls": ("count", "gates.Circuit.apply"),
    "gates.circuit_apply_s": ("s", ["gates.Circuit.apply"]),
    "polymat.smith_calls": ("count", "polymat.SmithEngine.run"),
    "polymat.smith_s": ("s", ["polymat.SmithEngine.run"]),
    "polymat.smith_wide_divs": ("count", "polymat.divmod_width"),
    "polymat.row_space_s": ("s", ["polymat.row_space_equal", "polymat.rref"]),
    "pauli.symplectic_calls": ("count", "pauli.shifted_symplectic"),
    "pauli.symplectic_s": ("s", ["pauli.shifted_symplectic"]),
    "poly.rational_ops": ("count", "poly.rational_ops"),
    "poly.rational_ops.den1_share": ("share", None),
    "poly.series_expand_s": ("s", ["poly.series_expand"]),
    "simulate.expand_s": ("s", ["simulate.expand"]),
    "simulate.run_circuit_s": ("s", ["simulate.run_circuit"]),
    "simulate.verify_self_s": ("s", ["simulate.verify_code"]),
    "simulate.window_rows": ("count", "simulate.window_rows"),
    "simulate.copies_compared_share": ("share", None),
}


def layer_metrics(spans: list[Span], counts: Counter, copies_compared: int) -> dict:
    """Every LAYER_METRICS entry as {"value", "unit"}; times are self times in seconds."""
    busy = defaultdict(float)
    counts = counts + Counter(s.name for s in spans)
    for s, t in zip(spans, self_times(spans)):
        busy[s.name] += t
    ops = counts["poly.rational_ops"]
    rows = counts["simulate.window_rows"]
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        if name == "poly.rational_ops.den1_share":
            value = counts["poly.rational_ops.den1"] / ops if ops else 0.0
        elif name == "simulate.copies_compared_share":
            value = copies_compared / rows if rows else 0.0
        elif unit == "s":
            value = sum(busy[n] for n in source)
        else:
            value = counts[source]
        out[name] = {"value": value, "unit": unit}
    return out
