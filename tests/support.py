"""API that only the tests use, kept out of the package.

- `ebit_count(h1, h2)`: c = rank of H1(D) H2^T(D^-1), the number of
  invariant factors of the product that `smith_oracle.product_factors`
  forms in rational matrix arithmetic.
- `numerator_rows(m)`: each row of a `PolyMatrix` as its Laurent numerators
  over its row denominator, the rows `row_space_equal` takes.
- `alice_part(qcm)`: the sender's columns of a check matrix, each row
  reduced again, as dropping columns can shrink its lcm.
- `golden_pairs()`: (id, H1 text, H2 text) of the 12 pairs of
  tests/golden/random_codes.json, then of both worked examples.
- `matrix(text)`: the `PolyMatrix` of a matrix written on one line, its
  rows split by "; " as the corpora and golden files write them.
- `corpus_items()`: every op of both benchmark corpora (`perfbench/corpus/`
  seeds 1 and 2) as its JSON item: tier, H1 and H2 text, frozen outcome.
- `alice_cols(qcm)`: the number of sender columns of a check matrix.
- `zx_concat(qcm)`: the rows of a check matrix as vectors over 2*cols
  columns, Z half then X half.
- `submatrix(m, rows, cols)`: the entries of a `PolyMatrix` at the given
  rows and columns.
- `parse_gate(line)` and `parse_circuit(text)`: read back the text that
  `eaqconv.gates.format_gate` prints, one gate a line.
"""

from __future__ import annotations

import json
from pathlib import Path

from eaqconv.cli import EXAMPLES
from eaqconv.errors import PolyParseError
from eaqconv.gates import Circuit, Gate, QuantumCheckMatrix
from eaqconv.poly import lowest_terms, parse_poly
from eaqconv.polymat import PolyMatrix, parse_matrix
from smith_oracle import product_factors


def ebit_count(h1: PolyMatrix, h2: PolyMatrix) -> int:
    """c = rank of H1(D) H2^T(D^-1) over the rational function field, from the oracle's product."""
    return len(product_factors(h1, h2)[0])


def numerator_rows(m: PolyMatrix) -> list:
    return [list(row) for row in m.nums]


def alice_part(qcm: QuantumCheckMatrix) -> QuantumCheckMatrix:
    b, cols = qcm.bob_cols, qcm.cols - qcm.bob_cols
    rows = [lowest_terms(d, z[b:] + x[b:]) for z, x, d in zip(qcm.zn, qcm.xn, qcm.dens)]
    zn, xn = (tuple(tuple(n[half]) for _, n in rows) for half in (slice(cols), slice(cols, None)))
    return QuantumCheckMatrix.from_rows(zn, xn, tuple(d for d, _ in rows), cols, row_labels=qcm.row_labels)


def golden_pairs() -> list[tuple[str, str, str]]:
    with open(Path(__file__).resolve().parent / "golden" / "random_codes.json", encoding="utf-8") as fh:
        codes = json.load(fh)["codes"]
    return [(c["id"], c["h1"], c["h2"]) for c in codes] + [(name, h1, h2) for name, (h1, h2) in sorted(EXAMPLES.items())]


def matrix(text: str) -> PolyMatrix:
    return parse_matrix(text.replace("; ", "\n"))


def corpus_items() -> list[dict]:
    items = []
    for seed in (1, 2):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / f"seed-{seed}.json"
        with open(path, encoding="utf-8") as fh:
            items += [it for workload in json.load(fh).values() for it in workload]
    return items


def alice_cols(qcm: QuantumCheckMatrix) -> int:
    return qcm.cols - qcm.bob_cols


def zx_concat(qcm: QuantumCheckMatrix) -> PolyMatrix:
    return PolyMatrix([list(z) + list(x) for z, x in zip(qcm.z.entries, qcm.x.entries)], cols=2 * qcm.cols)


def submatrix(m: PolyMatrix, rows, cols) -> PolyMatrix:
    return PolyMatrix([[m.entries[i][j] for j in cols] for i in rows], cols=len(list(cols)))


def _parse_qubit(tok: str) -> tuple[int, bool]:
    full = tok.startswith("*")
    if full:
        tok = tok[1:]
    try:
        idx = int(tok) - 1
    except ValueError:
        raise PolyParseError(f"bad qubit index {tok!r}") from None
    if idx < 0:
        raise PolyParseError(f"qubit indices are 1-based, got {tok!r}")
    return idx, full


_ARITY = {"CNOT": (3, 4), "CPHASE": (3, 4), "H": (2,), "P": (2,), "CPHASE_SELF": (2, 3), "INF": (3, 4)}


def _parse_delay(tok: str, line: str) -> int:
    if tok.startswith("delay="):
        try:
            return int(tok[6:])
        except ValueError:
            pass
    raise PolyParseError(f"bad delay in {line!r}")


def parse_gate(line: str) -> Gate:
    toks = line.split()
    if not toks:
        raise PolyParseError("empty gate line")
    kind = toks[0].upper()
    if kind not in _ARITY:
        raise PolyParseError(f"unknown gate {toks[0]!r}")
    if len(toks) not in _ARITY[kind]:
        raise PolyParseError(f"bad {kind} line {line!r}")
    i, full = _parse_qubit(toks[1])
    j, delay, f, rev = None, 0, None, False
    if kind in ("CNOT", "CPHASE"):
        j, fj = _parse_qubit(toks[2])
        full = full or fj
        if len(toks) == 4:
            delay = _parse_delay(toks[3], line)
    elif kind == "CPHASE_SELF" and len(toks) == 3:
        delay = _parse_delay(toks[2], line)
    elif kind == "INF":
        if not toks[2].startswith("f=") or toks[3:] not in ([], ["reversed"]):
            raise PolyParseError(f"bad INF line {line!r}")
        f = parse_poly(toks[2][2:])
        rev = len(toks) == 4
    try:
        return Gate(kind, i, j, delay, f=f, time_reversed=rev, full_frame=full)
    except ValueError as exc:
        raise PolyParseError(f"{exc} in {line!r}") from None


def parse_circuit(text: str) -> Circuit:
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            gates.append(parse_gate(line))
    return Circuit(tuple(gates))
