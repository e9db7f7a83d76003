"""Command-line interface: sequence tables, series expansion, identity checks.

Three subcommands::

    polybern table SEQ [--max-n N] [--k K] [--m M --l L --n N]
    polybern expand GF [--order N] [--k K] [--x RAT] [--n N]
    polybern verify ID|all [--PARAMETER VALUE ...]

plus ``--format`` (table ``csv|json|text``, expand ``json``, verify
``json|text``) and ``--output FILE`` on each.  ``table`` and ``expand`` state
in one mapping each which options a target reads; ``verify`` has one flag per
identity parameter of :data:`~polybern.identities.REGISTRY` (see
``polybern verify --help``).  Exit codes: 0 success / all identities pass,
1 at least one identity failed, 2 usage or parameter error.  Output is
byte-deterministic for a fixed command line.
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


class UsageError(ValueError):
    """A structurally valid command line with missing/invalid option values."""


def _render(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _json_value(value):
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
    table.add_argument("sequence", choices=tuple(TABLES))
    table.add_argument("--max-n", type=int, dest="max_n")
    table.add_argument("--k", type=int, help="upper index for polybernoulli-B/C")
    table.add_argument("--m", type=int, help="scriptB: largest first index")
    table.add_argument("--l", type=int, help="scriptB: largest second index")
    table.add_argument("--n", type=int, help="scriptB: fixed argument n")
    table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    table.add_argument("--output")

    expand = sub.add_parser("expand", help="expand a named generating function (JSON)")
    expand.add_argument("function", choices=tuple(EXPANSIONS))
    expand.add_argument("--order", type=int)
    expand.add_argument("--k", type=int, help="polylogarithm order for egf-B/C/poly")
    expand.add_argument(
        "--x", help="rational evaluation point for egf-poly (e.g. 1/2; use --x=-1/3)"
    )
    expand.add_argument("--n", type=int, help="argument n for egf-scriptB")
    expand.add_argument("--format", choices=("json",), default="json")
    expand.add_argument("--output")

    verify = sub.add_parser("verify", help="verify one identity or the full inventory")
    verify.add_argument("identity", choices=IDENTITY_IDS + ("all",))
    # One flag per identity parameter, typed by its default; its dest is the
    # parameter's name.  A parameter without a default value is library-only.
    parameters = {
        name: default
        for entry in REGISTRY.values()
        for name, default in entry.defaults
        if default is not None
    }
    for name, default in parameters.items():
        verify.add_argument(_flag(name), type=type(default))
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--output")
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given_options(args: argparse.Namespace) -> dict:
    """The options given on the command line, by dest, but --format and --output."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "sequence", "function", "identity", "format", "output")
        and value is not None
    }


# ---------------------------------------------------------------------------
# table and expand: each target reads the options it lists, in the order that
# it takes and reports them.  A target requires every option it reads that has
# no default here.

DEFAULTS = {"max_n": 10, "order": 32}


def _target_options(args: argparse.Namespace, target: str, reads: tuple) -> dict:
    """The options ``target`` reads, in the order of ``reads``, defaults filled in."""
    given = _given_options(args)
    for name in given:
        if name not in reads:
            raise UsageError(f"{args.command} {target} does not read {_flag(name)}")
    for name, value in given.items():
        if isinstance(value, int) and value < 0 and name != "k":  # --k, an order, is signed
            raise UsageError(f"{_flag(name)} must be non-negative")
    required = [name for name in reads if name not in DEFAULTS]
    if any(name not in given for name in required):
        flags = [_flag(name) for name in required]
        listed = f"{', '.join(flags[:-1])} and {flags[-1]}" if len(flags) > 1 else flags[0]
        raise UsageError(f"{args.command} {target} requires {listed}")
    options = {name: given.get(name, DEFAULTS.get(name)) for name in reads}
    if "x" in options:  # a rational, reported in lowest terms
        try:
            options["x"] = format_rational(Fraction(options["x"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"invalid rational for --x: {options['x']!r}") from exc
    return options


def _by_n(fn):
    return lambda max_n: (("n", "value"), [(n, fn(n)) for n in range(max_n + 1)])


def _triangle(fn):
    return lambda max_n: (
        ("n", "m", "value"),
        [(n, m, fn(n, m)) for n in range(max_n + 1) for m in range(n + 1)],
    )


def _column(fn):
    return lambda max_n, k: (("n", "k", "value"), [(n, k, fn(n, k)) for n in range(max_n + 1)])


def _script_b_rows(m: int, l: int, n: int):
    rows = [(mi, li, n, script_B_closed(mi, li, n)) for mi in range(m + 1) for li in range(l + 1)]
    return ("m", "l", "n", "value"), rows


# Each sequence: the options it reads and the function of them that gives its
# header and rows.
TABLES = {
    "stirling1": (("max_n",), _triangle(stirling_first)),
    "stirling2": (("max_n",), _triangle(stirling_second)),
    "bernoulli": (("max_n",), _by_n(bernoulli)),
    "genocchi": (("max_n",), _by_n(genocchi)),
    "polybernoulli-B": (("max_n", "k"), _column(poly_bernoulli_B)),
    "polybernoulli-C": (("max_n", "k"), _column(poly_bernoulli_C)),
    "scriptB": (("m", "l", "n"), _script_b_rows),
}


def _table_document(args: argparse.Namespace) -> str:
    reads, rows_of = TABLES[args.sequence]
    params = _target_options(args, args.sequence, reads)
    header, rows = rows_of(*params.values())
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


# Each generating function: the options it reads, the function of them that
# expands it, and its variables.
EXPANSIONS = {
    "egf-B": (("k", "order"), egf_poly_bernoulli_B, "t"),
    "egf-C": (("k", "order"), egf_poly_bernoulli_C, "t"),
    "egf-poly": (("k", "x", "order"), egf_poly_bernoulli_polynomial, "t"),
    "egf-scriptB": (("n", "order"), egf_closed_form, "xy"),
    "ogf-f1": (("order",), f1_series, "x"),
    "g1": (("order",), g1_series, "x"),
    "beta1": (("order",), beta1_series, "x"),
}


def _expand_document(args: argparse.Namespace) -> str:
    reads, expansion, variables = EXPANSIONS[args.function]
    params = _target_options(args, args.function, reads)
    series = expansion(*params.values())
    if isinstance(series, Series1):
        coefficients = [[str(i), _render(series[i])] for i in range(series.order + 1)]
    else:
        coefficients = [
            [f"{i},{j}", _render(series[i, j])]
            for i in range(series.order + 1)
            for j in range(series.order - i + 1)
        ]
    doc = {
        "generating_function": args.function,
        "parameters": params,
        "variable_orders": dict.fromkeys(variables, series.order),
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
