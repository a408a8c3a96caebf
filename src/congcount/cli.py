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
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from .congruence import METHODS, CongruenceInstance, auto_count, check_condition, distinct_count
from .errors import HypothesisError, ResourceLimitError
from .graphenum import component_counts, connected_counts
from .series import deformed_exp_truncated


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class _Result:
    human: list[str]
    doc: dict
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    code: int = 0


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--coeffs must be comma-separated integers, got {text!r}")


def _instance(args, b=None) -> CongruenceInstance:
    return CongruenceInstance(_parse_coeffs(args.coeffs), b if b is not None else args.b, args.n)


def _echo(inst: CongruenceInstance, with_b=True) -> dict:
    inputs = {"n": str(inst.n)}
    if with_b:
        inputs["b"] = str(inst.b)
    inputs["coeffs"] = [str(a) for a in inst.coeffs]
    return inputs


def _run_count(args) -> _Result:
    inst = _instance(args)
    if args.method is None:
        value, method = auto_count(inst)
    else:
        value, method = distinct_count(inst, args.method), args.method
    return _Result(
        human=[str(value)],
        doc={"inputs": _echo(inst), "method": method, "count": str(value)},
        notes=[f"method: {method}"],
    )


def _run_check(args) -> _Result:
    inst = _instance(args, b=args.b if args.b is not None else 0)
    report = check_condition(inst)
    human = [f"holds: {'true' if report.holds else 'false'}"]
    report_doc = {"holds": report.holds, "failing_subset": None}
    if report.failing_subset is not None:
        human.append("failing_subset: {" + ", ".join(map(str, report.failing_subset)) + "}")
        report_doc["failing_subset"] = list(report.failing_subset)
    human.append(f"full_sum_gcd: {report.full_sum_gcd}")
    report_doc["full_sum_gcd"] = str(report.full_sum_gcd)
    if args.b is not None:
        human.append(f"divides_b: {'true' if report.divides_b else 'false'}")
        report_doc["divides_b"] = report.divides_b
    return _Result(
        human=human,
        doc={"inputs": _echo(inst, with_b=args.b is not None), "report": report_doc},
    )


def _run_compare(args) -> _Result:
    inst = _instance(args)
    results: dict[str, int] = {}
    skipped: dict[str, str] = {}
    for name in METHODS:
        try:
            results[name] = distinct_count(inst, name)
        except HypothesisError:
            skipped[name] = "hypothesis fails"
        except ResourceLimitError:
            # the formula's only refusal is its subset scan
            skipped[name] = "subset cap exceeded" if name == "formula" else "resource cap exceeded"
    agree = len(set(results.values())) <= 1
    human = [
        f"{name:<14}  " + (str(results[name]) if name in results else f"skipped ({skipped[name]})")
        for name in METHODS
    ]
    human.append(f"agreement: {'yes' if agree else 'no'}")
    return _Result(
        human=human,
        doc={
            "inputs": _echo(inst),
            "results": {m: str(v) for m, v in results.items()},
            "skipped": skipped,
            "agree": agree,
        },
        errors=[] if agree else ["error: disagreement: oracle methods returned differing counts"],
        code=0 if agree else 1,
    )


def _run_graph_table(args) -> _Result:
    # the tables hold only nonzero entries, in (k, e) and (k, c, e) order
    if args.connected:
        table = connected_counts(args.kmax)
        rows = [{"e": e, "k": k, "count": str(cnt)} for (e, k), cnt in table.gprime.items()]
    else:
        table = component_counts(args.kmax)
        rows = [{"c": c, "e": e, "k": k, "count": str(cnt)} for (c, e, k), cnt in table.g.items()]
    return _Result(
        human=[] if args.json else [json.dumps(row) for row in rows],
        doc={"inputs": {"k_max": args.kmax, "connected": bool(args.connected)}, "rows": rows},
    )


def _run_series(args) -> _Result:
    try:
        beta = Fraction(args.beta)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--beta must be an exact rational such as 2 or -1/3, got {args.beta!r}")
    poly = deformed_exp_truncated(beta, args.order)
    strs = [str(c) for c in poly.coeffs]
    return _Result(
        human=strs,
        doc={"inputs": {"beta": str(beta), "order": args.order}, "coefficients": strs},
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="congcount", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--no-timing", action="store_true", help="omit elapsed_ms for reproducible output"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("count", parents=[common], help="count distinct-coordinate solutions")
    p.add_argument("--n", type=int, required=True, help="modulus (>= 1)")
    p.add_argument("--b", type=int, required=True, help="right-hand side")
    p.add_argument("--coeffs", required=True, help="comma-separated coefficients a1,a2,...")
    p.add_argument(
        "--method",
        choices=METHODS,
        default=None,
        help="default: 0 by pigeonhole when k > n, else formula when the subset-sum gcd "
        "condition holds, else iep-partitions (also when the condition check is over budget)",
    )
    p.set_defaults(handler=_run_count)

    p = sub.add_parser("check", parents=[common], help="check the subset-sum gcd condition")
    p.add_argument("--n", type=int, required=True, help="modulus (>= 1)")
    p.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    p.add_argument("--b", type=int, default=None, help="also report whether gcd(sum, n) divides b")
    p.set_defaults(handler=_run_check)

    p = sub.add_parser(
        "oracle-compare", parents=[common], help="run all applicable methods and compare"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--coeffs", required=True)
    p.set_defaults(handler=_run_compare)

    p = sub.add_parser(
        "graph-table", parents=[common], help="emit labeled-graph counts as JSON lines"
    )
    p.add_argument("--kmax", type=int, required=True, help="largest vertex count (1..30)")
    p.add_argument(
        "--connected", action="store_true", help="emit connected counts g'(e,k) instead of g(c,e,k)"
    )
    p.set_defaults(handler=_run_graph_table)

    p = sub.add_parser(
        "series", parents=[common], help="emit deformed-exponential coefficients as fractions"
    )
    p.add_argument("--beta", required=True, help="exact rational, e.g. 2 or -1/3")
    p.add_argument("--order", type=int, required=True, help="truncation order (>= 0)")
    p.set_defaults(handler=_run_series)
    return parser


def main(argv=None) -> int:
    t0 = perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        result = args.handler(args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except HypothesisError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = dict(result.doc)
        if not args.no_timing:
            doc["elapsed_ms"] = round((perf_counter() - t0) * 1000, 3)
        print(json.dumps(doc))
    else:
        for line in result.human:
            print(line)
        for note in result.notes:
            print(note, file=sys.stderr)
    for err in result.errors:
        print(err, file=sys.stderr)
    return result.code


def entrypoint():
    sys.exit(main())
