"""Command-line interface: sequence tables, series expansion, identity checks.

Three subcommands::

    polybern table SEQ [--max-n N] [--k K] [--m M --l L --n N]
    polybern expand GF [--order N] [--k K] [--x RAT] [--n N]
    polybern verify ID|all [--order N] [--max-l L] [--max-m M] [--max-n N]
                           [--n N] [--r R] [--mode series|sample]

plus ``--format`` (table ``csv|json|text``, expand ``json``, verify
``json|text``) and ``--output FILE`` on each.  Exit codes: 0 success / all
identities pass, 1 at least one identity failed, 2 usage or parameter error.
Output is byte-deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .combinatorics import format_rational, stirling_first, stirling_second
from .identities import (
    IDENTITY_IDS,
    ParameterError,
    REGISTRY,
    VerificationReport,
    egf_closed_form,
    beta1_series,
    f1_series,
    g1_series,
    verify_all,
    verify_one,
)
from .polybernoulli import (
    bernoulli,
    egf_poly_bernoulli_B,
    egf_poly_bernoulli_C,
    egf_poly_bernoulli_polynomial,
    genocchi,
    poly_bernoulli_B,
    poly_bernoulli_C,
    script_B_closed,
)
from .series import DomainError, Series1

# The options each sequence and generating function reads, by dest; giving
# any other is a usage error.
TABLE_OPTIONS = {
    **dict.fromkeys(("stirling1", "stirling2", "bernoulli", "genocchi"), ("max_n",)),
    **dict.fromkeys(("polybernoulli-B", "polybernoulli-C"), ("max_n", "k")),
    "scriptB": ("m", "l", "n"),
}
EXPAND_OPTIONS = {
    **dict.fromkeys(("egf-B", "egf-C"), ("order", "k")),
    "egf-poly": ("order", "k", "x"),
    "egf-scriptB": ("order", "n"),
    **dict.fromkeys(("ogf-f1", "g1", "beta1"), ("order",)),
}
TABLE_SEQUENCES = tuple(TABLE_OPTIONS)
EXPAND_FUNCTIONS = tuple(EXPAND_OPTIONS)
DEFAULT_TABLE_MAX_N = 10
DEFAULT_EXPAND_ORDER = 32


class UsageError(ValueError):
    """A structurally valid command line with missing/invalid option values."""


def _render(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybern",
        description="Exact poly-Bernoulli / Stirling / Genocchi tables and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a sequence table")
    table.add_argument("sequence", choices=TABLE_SEQUENCES)
    table.add_argument("--max-n", type=int, dest="max_n")
    table.add_argument("--k", type=int, help="upper index for polybernoulli-B/C")
    table.add_argument("--m", type=int, help="scriptB: largest first index")
    table.add_argument("--l", type=int, help="scriptB: largest second index")
    table.add_argument("--n", type=int, help="scriptB: fixed argument n")
    table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    table.add_argument("--output")

    expand = sub.add_parser("expand", help="expand a named generating function (JSON)")
    expand.add_argument("function", choices=EXPAND_FUNCTIONS)
    expand.add_argument("--order", type=int, default=DEFAULT_EXPAND_ORDER)
    expand.add_argument("--k", type=int, help="polylogarithm order for egf-B/C/poly")
    expand.add_argument(
        "--x", help="rational evaluation point for egf-poly (e.g. 1/2; use --x=-1/3)"
    )
    expand.add_argument("--n", type=int, help="argument n for egf-scriptB")
    expand.add_argument("--format", choices=("json",), default="json")
    expand.add_argument("--output")

    verify = sub.add_parser("verify", help="verify one identity or the full inventory")
    verify.add_argument("identity", choices=IDENTITY_IDS + ("all",))
    verify.add_argument("--order", type=int)
    verify.add_argument("--max-l", type=int, dest="max_l")
    verify.add_argument("--max-m", type=int, dest="max_m")
    verify.add_argument("--max-n", type=int, dest="max_n")
    verify.add_argument("--n", type=int, help="point parameter for single-point identities")
    verify.add_argument("--r", type=int, help="upper index for stirling-expansion")
    verify.add_argument("--mode", choices=("series", "sample"))
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--output")
    return parser


def _given_options(args: argparse.Namespace) -> dict:
    """The options given on the command line, by dest, but --format and --output."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "sequence", "function", "identity", "format", "output")
        and value is not None
    }


def _require_read(args: argparse.Namespace, target: str, reads: tuple) -> None:
    for name in _given_options(args):
        if name not in reads:
            raise UsageError(f"{args.command} {target} does not read --{name.replace('_', '-')}")


# ---------------------------------------------------------------------------
# table


def _table_rows(args: argparse.Namespace):
    sequence = args.sequence
    _require_read(args, sequence, TABLE_OPTIONS[sequence])
    max_n = DEFAULT_TABLE_MAX_N if args.max_n is None else args.max_n
    if max_n < 0:
        raise UsageError("--max-n must be non-negative")
    if sequence in ("stirling1", "stirling2"):
        fn = stirling_first if sequence == "stirling1" else stirling_second
        header = ("n", "m", "value")
        rows = [(n, m, fn(n, m)) for n in range(max_n + 1) for m in range(n + 1)]
        return header, rows, {"max_n": max_n}
    if sequence in ("bernoulli", "genocchi"):
        fn = bernoulli if sequence == "bernoulli" else genocchi
        return ("n", "value"), [(n, fn(n)) for n in range(max_n + 1)], {"max_n": max_n}
    if sequence in ("polybernoulli-B", "polybernoulli-C"):
        k = args.k
        if k is None:
            raise UsageError(f"table {sequence} requires --k")
        fn = poly_bernoulli_B if sequence == "polybernoulli-B" else poly_bernoulli_C
        header = ("n", "k", "value")
        rows = [(n, k, fn(n, k)) for n in range(max_n + 1)]
        return header, rows, {"max_n": max_n, "k": k}
    # scriptB
    m, l, n = args.m, args.l, args.n
    if m is None or l is None or n is None:
        raise UsageError("table scriptB requires --m, --l and --n")
    if min(m, l, n) < 0:
        raise UsageError("scriptB indices must be non-negative")
    header = ("m", "l", "n", "value")
    rows = [
        (mi, li, n, script_B_closed(mi, li, n))
        for mi in range(m + 1)
        for li in range(l + 1)
    ]
    return header, rows, {"m": m, "l": l, "n": n}


def _table_document(args: argparse.Namespace) -> str:
    header, rows, params = _table_rows(args)
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_render(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    if args.format == "json":
        doc = {
            "sequence": args.sequence,
            "params": params,
            "header": list(header),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    # text: right-aligned columns
    cells = [tuple(_render(v) for v in row) for row in rows]
    widths = [
        max(len(header[i]), max((len(row[i]) for row in cells), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines.extend("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expand


def _expand_series(args: argparse.Namespace):
    name = args.function
    _require_read(args, name, EXPAND_OPTIONS[name])
    order = args.order
    if order < 0:
        raise UsageError("--order must be non-negative")
    if name in ("egf-B", "egf-C", "egf-poly"):
        k = args.k
        if k is None:
            raise UsageError(f"expand {name} requires --k")
        if name != "egf-poly":
            fn = egf_poly_bernoulli_B if name == "egf-B" else egf_poly_bernoulli_C
            return fn(k, order), ("t",), {"k": k, "order": order}
        raw = args.x
        if raw is None:
            raise UsageError("expand egf-poly requires --x (a rational such as 1/2)")
        try:
            x = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"invalid rational for --x: {raw!r}") from exc
        series = egf_poly_bernoulli_polynomial(k, x, order)
        return series, ("t",), {"k": k, "x": format_rational(x), "order": order}
    if name == "egf-scriptB":
        n = args.n
        if n is None:
            raise UsageError("expand egf-scriptB requires --n")
        if n < 0:
            raise UsageError("--n must be non-negative")
        return egf_closed_form(n, order), ("x", "y"), {"n": n, "order": order}
    if name == "ogf-f1":
        return f1_series(order), ("x",), {"order": order}
    if name == "g1":
        return g1_series(order), ("x",), {"order": order}
    return beta1_series(order), ("x",), {"order": order}


def _expand_document(args: argparse.Namespace) -> str:
    series, variables, params = _expand_series(args)
    if isinstance(series, Series1):
        coefficients = [[str(i), _render(series[i])] for i in range(series.order + 1)]
        orders = {variables[0]: series.order}
    else:
        coefficients = [
            [f"{i},{j}", _render(series[i, j])]
            for i in range(series.order + 1)
            for j in range(series.order - i + 1)
        ]
        orders = {variables[0]: series.order, variables[1]: series.order}
    doc = {
        "generating_function": args.function,
        "parameters": params,
        "variable_orders": orders,
        "coefficients": coefficients,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verify


def _report_json(report: VerificationReport) -> dict:
    counterexample = None
    if report.counterexample is not None:
        counterexample = {
            "at": {name: _json_value(value) for name, value in report.counterexample.location},
            "lhs": _render(report.counterexample.lhs),
            "rhs": _render(report.counterexample.rhs),
        }
    return {
        "identity": report.identity_id,
        "params": {name: _json_value(value) for name, value in report.parameters.items()},
        "passed": report.passed,
        "counterexample": counterexample,
        "checked": report.checked_count,
    }


def _report_line(report: VerificationReport) -> str:
    params = " ".join(f"{name}={_render(value)}" for name, value in report.parameters.items())
    if report.passed:
        return f"ok    {report.identity_id}  [{params}]  checked={report.checked_count}"
    at = " ".join(f"{name}={_render(value)}" for name, value in report.counterexample.location)
    return (
        f"FAIL  {report.identity_id}  [{params}]  at {at}: "
        f"lhs={_render(report.counterexample.lhs)} rhs={_render(report.counterexample.rhs)} "
        f"checked={report.checked_count}"
    )


def _verify_reports(args: argparse.Namespace) -> list[VerificationReport]:
    # Each verify flag's dest is the identity parameter it sets.
    overrides = _given_options(args)
    if args.identity == "all":
        return verify_all(
            {
                identity_id: {n: v for n, v in overrides.items() if n in dict(entry.defaults)}
                for identity_id, entry in REGISTRY.items()
            }
        )
    return [verify_one(args.identity, **overrides)]


def _verify_document(args: argparse.Namespace) -> tuple[str, bool]:
    reports = _verify_reports(args)
    all_passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = [_report_json(r) for r in reports]
        doc = payload[0] if args.identity != "all" else payload
        return json.dumps(doc, indent=2) + "\n", all_passed
    lines = [_report_line(r) for r in reports]
    if args.identity == "all":
        passed = sum(r.passed for r in reports)
        lines.append(f"{passed}/{len(reports)} identities verified")
    return "\n".join(lines) + "\n", all_passed


# ---------------------------------------------------------------------------
# driver


def _check_writable(output: str) -> None:
    """Fail before any work when ``output`` cannot be opened for writing.

    An existing file is opened for appending, which leaves it as it is; a
    file this check creates is removed again, so a run that then fails
    leaves nothing behind.
    """
    existed = os.path.lexists(output)
    try:
        with open(output, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc.strerror}") from exc
    if not existed:
        os.remove(output)


def _emit(document: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(document)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror}") from exc


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.output is not None:
            _check_writable(args.output)
        if args.command == "table":
            document, failed = _table_document(args), False
        elif args.command == "expand":
            document, failed = _expand_document(args), False
        else:
            document, all_passed = _verify_document(args)
            failed = not all_passed
        _emit(document, args.output)
    except (UsageError, ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
