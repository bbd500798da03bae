"""Command-line front end.

Subcommands:

  build     construct the code from two check matrices and print the report
  params    validate and classify only, then print the [[n, k; c]]
            parameters and rates; no circuits are synthesised
  verify    build, then run the four-part verification; exit 4 on failure
  examples  run the two bundled single-generator examples end to end

Check matrices are given with --h1/--h2 as either a file path or an inline
matrix (rows separated by ';', entries by ',', polynomial grammar for the
entries).  Exit codes: 0 success, 1 any other typed error (a backstop that
no known input reaches), 2 parse or usage error (including a --window
below 1, a --scratch below 0, or a matrix file that cannot be read as
UTF-8 text), 3 validation error, 4 verification failure, 5 internal error
(stderr also repeats --h1/--h2 as given, so the failing input can be
reported; from `params` it can only come from the classification).

Each subcommand forms one JSON record and renders its text report from it.
The build report formats each gate and row once: it prints each term's line
from its gate string, the encoder ends in the reduction's strings inverted
and the decoder starts with them, so both print the reduction's text
wherever they hold its very strings, and the
measurable stabilizer prints each row it shares with the final stabilizer,
both over denominator 1, from the final's text.  JSON is printed as
`json.dumps(record, indent=2)` would print it, with each list of only
strings or only ints encoded and joined in C.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys

from .construct import build_code, decompose_general
from .errors import EaqconvError, InternalError, PolyParseError, ValidationError
from .gates import format_string
from .polymat import format_rows, parse_matrix
from .simulate import verify_code

SCHEMA_VERSION = 1

EXAMPLES = {
    "finite-depth": ("1+D^2, 1+D+D^2", "1+D^2, 1+D+D^2"),
    "infinite-depth": ("1, 1+D", "1, 1+D"),
}


def _load_matrix(arg: str):
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PolyParseError(f"cannot read matrix file {arg!r}: {exc}") from None
        return parse_matrix(text)
    return parse_matrix(arg.replace(";", "\n"))


def _qcm_json(qcm, printed=None):
    """The matrix's record.  `printed` is the (matrix, record) pair of a matrix already formatted: a row that is
    the very row tuple of that matrix's row at its index, both over denominator 1, takes the text of that row."""
    z, x, cols = [], [], qcm.cols
    pm, pr = printed or (qcm, None)
    for r, (row, d) in enumerate(zip(qcm.nums, qcm.dens)):
        if pr and r < pm.rows and row is pm.nums[r] and d.bits == pm.dens[r].bits == 1:
            z.append(pr["z"][r])
            x.append(pr["x"][r])
        else:
            z += format_rows([row[:cols]], [d])
            x += format_rows([row[cols:]], [d])
    return {"bob_cols": qcm.bob_cols, "z": z, "x": x, "row_labels": list(qcm.row_labels)}


def _qcm_lines(record):
    """The text rows of a `_qcm_json` record."""
    labels = record["row_labels"] or [""] * len(record["z"])
    out = [f"  ( {z} | {x} )" + (f"  [{lab}]" if lab else "") for z, x, lab in zip(record["z"], record["x"], labels)]
    return out or ["  (empty)"]


def _params_json(code):
    """The [[n, k; c]] parameters, class and rates of a `DecompositionRecord` or a `CodeSpec`."""
    rates = code.rates
    return {
        "schema": SCHEMA_VERSION,
        "n": code.n,
        "k": code.k,
        "c": code.c,
        "s": code.s,
        "class": code.class_tag,
        "rates": {
            "entanglement_assisted": str(rates.entanglement_assisted),
            "tradeoff": [str(r) for r in rates.tradeoff],
            "catalytic": str(rates.catalytic),
        },
    }


def _gate_lines(spec):
    """The encoder's and the decoder's `format_gate` lines, one per term.  The encoder ends in the reduction's strings
    R inverted and the decoder starts with R, so each takes R's text, formatted once, where it holds R's strings: the
    decoder R's very strings, the encoder each R string's very gate with its delays reversed."""
    _lines = lambda strings: [line for s in strings for line in format_string(*s)]
    red = spec.record.reduction.strings
    text, n = _lines(red), len(red)
    enc, dec = spec.encoder.strings, spec.decoder.strings
    cut = len(enc) - n
    ends_in_red = cut >= 0 and all(g is h and d[::-1] == e for (g, d), (h, e) in zip(reversed(enc), red))
    starts_with_red = len(dec) >= n and all(map(operator.is_, dec, red))
    encoder = [*_lines(enc[:cut]), *reversed(text)] if ends_in_red else _lines(enc)
    decoder = [*text, *_lines(dec[n:])] if starts_with_red else _lines(dec)
    return encoder, decoder


def _spec_report_json(spec):
    """The build report: the `_params_json` record, the invariant factors placed before its rates, then the code."""
    params = _params_json(spec)
    rates = params.pop("rates")
    encoder, decoder = _gate_lines(spec)
    final = _qcm_json(spec.final_stabilizer)
    return {
        **params,
        "invariant_factors": [str(g) for g in spec.record.product_factors],
        "rates": rates,
        "encoder": encoder,
        "decoder": decoder,
        "final_stabilizer": final,
        "measurable_stabilizer": _qcm_json(spec.measurable_stabilizer, (spec.final_stabilizer, final)),
        "measurement_multipliers": [str(m) for m in spec.measurement_multipliers],
        "logical_columns": [c + 1 for c in spec.logical_cols],
        "decoded_columns": [c + 1 for c in spec.decoded_cols],
        "decoded_offsets": list(spec.decoded_offsets),
    }


_JOINED = {str: json.encoder.encode_basestring_ascii, int: int.__repr__}


def _json(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte.  A list (or tuple) of only strs or only ints is encoded and joined
    in one C-level join; a dict key or scalar other than a str, int, bool or None falls back to `json.dumps`."""
    out = []
    _put(value, "\n", out)
    return "".join(out)


def _put(v, nl, out):
    """Append the text of v, nested at the indent that nl (a newline and that indent) opens, to out."""
    t, inner = type(v), nl + "  "
    if t is str or t is int:
        out.append(_JOINED[t](v))
    elif v is None or t is bool:
        out.append("null" if v is None else "true" if v else "false")
    elif (t is list or t is tuple or t is dict) and not v:
        out.append("{}" if t is dict else "[]")
    elif t is list or t is tuple:
        kinds = set(map(type, v))
        enc = _JOINED.get(kinds.pop()) if len(kinds) == 1 else None
        if enc:
            out += "[", inner, ("," + inner).join(map(enc, v)), nl, "]"
        else:
            lead = "[" + inner
            for x in v:
                out.append(lead)
                _put(x, inner, out)
                lead = "," + inner
            out += nl, "]"
    elif t is dict and set(map(type, v)) == {str}:
        lead = "{" + inner
        for k, x in v.items():
            out += lead, _JOINED[str](k), ": "
            _put(x, inner, out)
            lead = "," + inner
        out += nl, "}"
    else:
        out.append(json.dumps(v, indent=2).replace("\n", nl))


def _rates_line(rates):
    return (
        f"rates: entanglement-assisted {rates['entanglement_assisted']}, "
        f"trade-off ({rates['tradeoff'][0]}, {rates['tradeoff'][1]}), catalytic {rates['catalytic']}"
    )


def _spec_report_text(spec):
    """The `_spec_report_json` record as text, with the unencoded logical operators, which JSON does not carry."""
    rep = _spec_report_json(spec)
    listed = lambda items: ", ".join(items) or "(none)"
    lines = [
        f"[[{rep['n']}, {rep['k']}; {rep['c']}]] entanglement-assisted quantum convolutional code",
        f"class: {rep['class']} (unit invariant factors: {rep['s']} of {rep['c']})",
        f"invariant factors of H1*H2~: {listed(rep['invariant_factors'])}",
        _rates_line(rep["rates"]),
        f"encoder ({len(rep['encoder'])} gates):",
        *(f"  {g}" for g in rep["encoder"]),
        f"decoder ({len(rep['decoder'])} gates):",
        *(f"  {g}" for g in rep["decoder"]),
        "final stabilizer (Z | X), receiver columns first:",
        *_qcm_lines(rep["final_stabilizer"]),
        "measurable stabilizer (denominators cleared):",
        *_qcm_lines(rep["measurable_stabilizer"]),
        f"  row multipliers: {listed(rep['measurement_multipliers'])}",
        "logical operators (unencoded):",
        *_qcm_lines(_qcm_json(spec.bare.info)),
        f"information columns: {listed(map(str, rep['logical_columns']))}; "
        f"decoded to: {listed(map(str, rep['decoded_columns']))}; "
        f"frame offsets: {listed('?' if o is None else str(o) for o in rep['decoded_offsets'])}",
    ]
    return "\n".join(lines)


def cmd_build(args) -> int:
    spec = build_code(_load_matrix(args.h1), _load_matrix(args.h2))
    print(_json(_spec_report_json(spec)) if args.format == "json" else _spec_report_text(spec))
    return 0


def cmd_params(args) -> int:
    doc = _params_json(decompose_general(_load_matrix(args.h1), _load_matrix(args.h2)))
    text = f"[[{doc['n']}, {doc['k']}; {doc['c']}]] class={doc['class']}\n{_rates_line(doc['rates'])}"
    print(_json(doc) if args.format == "json" else text)
    return 0


def cmd_verify(args) -> int:
    spec = build_code(_load_matrix(args.h1), _load_matrix(args.h2))
    report = verify_code(spec, window=args.window, scratch=args.scratch)
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "params": _params_json(spec), **report.to_json_dict()}
        print(_json(payload))
    else:
        print(report.to_text())
    return 0 if report.passed else 4


def cmd_examples(args) -> int:
    payloads = []
    for name, (h1_text, h2_text) in EXAMPLES.items():
        spec = build_code(parse_matrix(h1_text), parse_matrix(h2_text))
        report = verify_code(spec, window=args.window, scratch=args.scratch)
        if args.format == "json":
            payloads.append(
                {
                    "name": name,
                    "h1": h1_text,
                    "h2": h2_text,
                    "report": _spec_report_json(spec),
                    "verification": report.to_json_dict(),
                }
            )
        else:
            print(f"=== example: {name} ===")
            print(f"H1 = [{h1_text}]   H2 = [{h2_text}]")
            print(_spec_report_text(spec))
            print(report.to_text())
            print()
        if not report.passed:
            return 4
    if args.format == "json":
        print(_json({"schema": SCHEMA_VERSION, "examples": payloads}))
    return 0


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum` (else a usage error, exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eaqconv",
        description="CSS entanglement-assisted quantum convolutional codes from classical check matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, matrices=True):
        if matrices:
            p.add_argument("--h1", required=True, help="first check matrix (file or inline, rows ';'-separated)")
            p.add_argument("--h2", required=True, help="second check matrix (file or inline)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_build = sub.add_parser("build", help="construct the code and print the full report")
    add_common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_params = sub.add_parser("params", help="classify only (no circuits) and print the code parameters and rates")
    add_common(p_params)
    p_params.set_defaults(func=cmd_params)

    p_verify = sub.add_parser("verify", help="construct and verify the code")
    add_common(p_verify)
    window, scratch = _int_at_least(1), _int_at_least(0)
    p_verify.add_argument("--window", type=window, default=32, help="simulation window in frames")
    p_verify.add_argument("--scratch", type=scratch, default=None, help="leading scratch frames")
    p_verify.set_defaults(func=cmd_verify)

    p_ex = sub.add_parser("examples", help="run the bundled examples end to end")
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.add_argument("--window", type=window, default=32)
    p_ex.add_argument("--scratch", type=scratch, default=None)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if "h1" in vars(args):
            print(f"input: --h1 {args.h1!r} --h2 {args.h2!r}", file=sys.stderr)
        return 5
    except EaqconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
