"""Command-line front end.

Subcommands: count, check, oracle-compare, graph-table, series.  Results go
to stdout; the chosen method and diagnostics go to stderr.  Every error is a
single line "error: <category>: <message>" with exit codes 1 (oracle
disagreement), 2 (usage), 3 (precondition violated), 4 (resource cap).
With --json each subcommand emits one JSON document instead of the
human-readable text; --no-timing drops the elapsed_ms field so output is
byte-for-byte reproducible.  Counts and other unbounded integers are printed
as decimal strings.
"""

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction
from time import perf_counter

from . import graphenum
from .congruence import CongruenceInstance, check_condition
from .errors import HypothesisError, ResourceLimitError
from .methods import METHODS, auto_count, distinct_count
from .series import deformed_exp_truncated


# first match wins: HypothesisError is a ValueError
_EXIT_CODES = {
    HypothesisError: (3, "precondition"),
    ResourceLimitError: (4, "resource"),
    ValueError: (2, "usage"),
}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, wrapping at spaces only: textwrap would split iep-partitions."""

    def _split_lines(self, text, width):
        import textwrap  # only help text needs it: the import would add to every process's start

        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)

    def _fill_text(self, text, width, indent):
        return "\n".join(indent + line for line in self._split_lines(text, width - len(indent)))


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        raise ValueError(message)


# human and notes are lines for stdout and stderr; each error makes the exit code 1
_Result = namedtuple("_Result", "human doc notes errors", defaults=((), ()))


def _instance(args) -> tuple[CongruenceInstance, dict]:
    """The reduced instance and its "inputs" echo, which names b exactly when --b was given."""
    try:
        coeffs = tuple(int(part.strip()) for part in args.coeffs.split(","))
    except ValueError:
        raise ValueError(f"--coeffs must be comma-separated integers, got {args.coeffs!r}")
    inst = CongruenceInstance(coeffs, args.b or 0, args.n)
    inputs = {"n": str(inst.n), "b": str(inst.b), "coeffs": [str(a) for a in inst.coeffs]}
    if args.b is None:
        del inputs["b"]
    return inst, inputs


def _run_count(args) -> _Result:
    inst, inputs = _instance(args)
    if args.method is None:
        value, method = auto_count(inst)
    else:
        value, method = distinct_count(inst, args.method), args.method
    return _Result(
        human=[str(value)],
        doc={"inputs": inputs, "method": method, "count": str(value)},
        notes=[f"method: {method}"],
    )


def _run_check(args) -> _Result:
    inst, inputs = _instance(args)
    report = check_condition(inst)
    report_doc = {
        "holds": report.holds,
        "failing_subset": None if report.failing_subset is None else list(report.failing_subset),
        "full_sum_gcd": str(report.full_sum_gcd),
    }
    if args.b is not None:
        report_doc["divides_b"] = report.divides_b
    return _Result(
        human=[f"{key}: {_text(value)}" for key, value in report_doc.items() if value is not None],
        doc={"inputs": inputs, "report": report_doc},
    )


def _text(value) -> str:
    """A report value as check prints it: a set such as {1, 2}, true or false, or the string."""
    if isinstance(value, list):
        return "{" + ", ".join(map(str, value)) + "}"
    return json.dumps(value) if isinstance(value, bool) else value


def _run_compare(args) -> _Result:
    inst, inputs = _instance(args)
    results: dict[str, str] = {}
    skipped: dict[str, str] = {}
    for name in METHODS:
        try:
            results[name] = str(distinct_count(inst, name))
        except HypothesisError:
            skipped[name] = "hypothesis fails"
        except ResourceLimitError:
            # the formula's only refusal is its subset scan
            skipped[name] = "subset cap exceeded" if name == "formula" else "resource cap exceeded"
    agree = len(set(results.values())) <= 1
    human = [
        f"{name:<14}  " + (results[name] if name in results else f"skipped ({skipped[name]})")
        for name in METHODS
    ]
    human.append(f"agreement: {'yes' if agree else 'no'}")
    return _Result(
        human=human,
        doc={"inputs": inputs, "results": results, "skipped": skipped, "agree": agree},
        errors=[] if agree else ["error: disagreement: oracle methods returned differing counts"],
    )


def _run_graph_table(args) -> _Result:
    # the tables hold only nonzero entries, in (k, e) and (k, c, e) order
    if args.connected:
        table = graphenum.connected_counts(args.kmax)
        rows = [{"e": e, "k": k, "count": str(cnt)} for (e, k), cnt in table.gprime.items()]
    else:
        table = graphenum.component_counts(args.kmax)
        rows = [{"c": c, "e": e, "k": k, "count": str(cnt)} for (c, e, k), cnt in table.g.items()]
    return _Result(
        human=[] if args.json else [json.dumps(row) for row in rows],
        doc={"inputs": {"k_max": args.kmax, "connected": bool(args.connected)}, "rows": rows},
    )


def _run_series(args) -> _Result:
    try:
        beta = Fraction(args.beta)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--beta must be an exact rational such as 2 or -1/3, got {args.beta!r}")
    strs = [str(c) for c in deformed_exp_truncated(beta, args.order).coeffs]
    return _Result(
        human=strs,
        doc={"inputs": {"beta": str(beta), "order": args.order}, "coefficients": strs},
    )


def _add_instance_arguments(p: _Parser, b_help: str, b_required: bool = True) -> None:
    """--n, --b and --coeffs, in this order: argparse names missing options in definition order."""
    p.add_argument("--n", type=int, required=True, help="modulus (>= 1)")
    p.add_argument("--b", type=int, required=b_required, help=b_help)
    p.add_argument("--coeffs", required=True, help="comma-separated integers, e.g. --coeffs=-1,7,3")


def _build_parser() -> _Parser:
    summary = sys.modules[__package__].__doc__.splitlines()[0]  # the package's, not this module's
    parser = _Parser(prog="congcount", description=summary)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--no-timing", action="store_true", help="omit elapsed_ms for reproducible output"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name, handler, about) -> _Parser:
        p = sub.add_parser(name, parents=[common], help=about)
        p.set_defaults(handler=handler)
        return p

    p = command("count", _run_count, "count distinct-coordinate solutions")
    _add_instance_arguments(p, "right-hand side")
    p.add_argument(
        "--method",
        choices=METHODS,
        help="default: 0 by pigeonhole when k > n, else formula when the subset-sum gcd "
        "condition holds, else iep-partitions (also when the condition check is over budget)",
    )
    p = command("check", _run_check, "check the subset-sum gcd condition")
    _add_instance_arguments(p, "also report whether gcd(sum, n) divides b", b_required=False)
    p = command("oracle-compare", _run_compare, "run all applicable methods and compare")
    _add_instance_arguments(p, "right-hand side")
    p = command("graph-table", _run_graph_table, "emit labeled-graph counts as JSON lines")
    p.add_argument(
        "--kmax", type=int, required=True, help=f"largest vertex count (1..{graphenum.KMAX_CAP})"
    )
    p.add_argument(
        "--connected", action="store_true", help="emit connected counts g'(e,k) instead of g(c,e,k)"
    )
    p = command("series", _run_series, "emit deformed-exponential coefficients as fractions")
    p.add_argument("--beta", required=True, help="exact rational, e.g. 2, 1/3 or --beta=-1/3")
    p.add_argument("--order", type=int, required=True, help="truncation order (>= 0)")
    return parser


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit to lift
        return _main(argv)
    # exact counts and coefficients can run past the default 4300-digit int<->str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    t0 = perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        result = args.handler(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except tuple(_EXIT_CODES) as exc:
        code, category = next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
        print(f"error: {category}: {exc}", file=sys.stderr)
        return code
    if args.json:
        if not args.no_timing:
            result.doc["elapsed_ms"] = round((perf_counter() - t0) * 1000, 3)
        print(json.dumps(result.doc))
    else:
        for line in result.human:
            print(line)
        for note in result.notes:
            print(note, file=sys.stderr)
    for err in result.errors:
        print(err, file=sys.stderr)
    return 1 if result.errors else 0


def entrypoint():
    sys.exit(main())
