"""Command-line front end.

Subcommands:

  build     construct the code from two check matrices and print the report
  params    validate and classify only, then print the [[n, k; c]]
            parameters and rates; no circuits are synthesised
  verify    build, then run the four-part verification; exit 4 on failure
  examples  run the two bundled single-generator examples end to end

Check matrices are given with --h1/--h2 as either a file path or an inline
matrix (rows separated by ';', entries by ',', polynomial grammar for the
entries).  Exit codes: 0 success, 1 any other typed error (such as
`ClassMismatch` from the circuit synthesis of `build`, `verify` or
`examples`), 2 parse or usage error (including a --window below 1, a
--scratch below 0, or a matrix file that cannot be read as UTF-8 text), 3
validation error, 4 verification failure, 5 internal error (stderr also
repeats --h1/--h2 as given, so the failing input can be reported; from
`params` it can only come from the classification).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .construct import build_code, classify, code_params
from .errors import EaqconvError, InternalError, PolyParseError, ValidationError
from .gates import format_gate
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


def _qcm_json(qcm):
    return {
        "bob_cols": qcm.bob_cols,
        "z": format_rows(qcm.zn, qcm.dens),
        "x": format_rows(qcm.xn, qcm.dens),
        "row_labels": list(qcm.row_labels),
    }


def _qcm_lines(record):
    """The text rows of a `_qcm_json` record."""
    labels = record["row_labels"] or [""] * len(record["z"])
    out = [f"  ( {z} | {x} )" + (f"  [{lab}]" if lab else "") for z, x, lab in zip(record["z"], record["x"], labels)]
    return out or ["  (empty)"]


def _params_json(code):
    p = code_params(code)
    return {
        "schema": SCHEMA_VERSION,
        "n": p["n"],
        "k": p["k"],
        "c": p["c"],
        "s": p["s"],
        "class": p["class"],
        "rates": {
            "entanglement_assisted": str(p["entanglement_assisted_rate"]),
            "tradeoff": [str(r) for r in p["tradeoff_rate"]],
            "catalytic": str(p["catalytic_rate"]),
        },
    }


def _spec_report_json(spec):
    """The build report: the `_params_json` record, the invariant factors placed before its rates, then the code."""
    params = _params_json(spec)
    rates = params.pop("rates")
    return {
        **params,
        "invariant_factors": [str(g) for g in spec.record.product_factors],
        "rates": rates,
        "encoder": [format_gate(g) for g in spec.encoder],
        "decoder": [format_gate(g) for g in spec.decoder],
        "final_stabilizer": _qcm_json(spec.final_stabilizer),
        "measurable_stabilizer": _qcm_json(spec.measurable_stabilizer),
        "measurement_multipliers": [str(m) for m in spec.measurement_multipliers],
        "logical_columns": [c + 1 for c in spec.logical_cols],
        "decoded_columns": [c + 1 for c in spec.decoded_cols],
        "decoded_offsets": list(spec.decoded_offsets),
    }


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
    print(json.dumps(_spec_report_json(spec), indent=2) if args.format == "json" else _spec_report_text(spec))
    return 0


def cmd_params(args) -> int:
    _, record = classify(_load_matrix(args.h1), _load_matrix(args.h2))
    doc = _params_json(record)
    text = f"[[{doc['n']}, {doc['k']}; {doc['c']}]] class={doc['class']}\n{_rates_line(doc['rates'])}"
    print(json.dumps(doc, indent=2) if args.format == "json" else text)
    return 0


def cmd_verify(args) -> int:
    spec = build_code(_load_matrix(args.h1), _load_matrix(args.h2))
    report = verify_code(spec, window=args.window, scratch=args.scratch)
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "params": _params_json(spec), **report.to_json_dict()}
        print(json.dumps(payload, indent=2))
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
        print(json.dumps({"schema": SCHEMA_VERSION, "examples": payloads}, indent=2))
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
