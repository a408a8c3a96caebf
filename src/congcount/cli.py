"""Command-line front end.

Subcommands: count, check, oracle-compare, graph-table, series.  Results go
to stdout; the chosen method and diagnostics go to stderr.  Every error is a
single line "error: <category>: <message>" with exit codes 1 (oracle
disagreement), 2 (usage), 3 (precondition violated), 4 (resource cap, also
when oracle-compare gets fewer than two answers to compare).
With --json each subcommand emits one JSON document instead of the
human-readable text; --no-timing drops the elapsed_ms field so output is
byte-for-byte reproducible.  Counts and other unbounded integers are printed
as decimal strings.  The document is written without the json module, byte
for byte as json.dumps would write it; json is imported only for a string
that needs escaping.  The terminal's width is read only to format help or
usage text, not for each parser built.  A call whose first argument names a
subcommand builds that subcommand's parser alone, as a standalone parser
with prog "congcount <name>", and parses the rest of argv with it; the full
tree of subparsers is built only for --help or a missing, unknown or
option-like first argument.
"""

import argparse
import sys
from collections import namedtuple
from fractions import Fraction
from math import isfinite
from time import perf_counter

from . import graphenum
from .congruence import CongruenceInstance, check_condition
from .errors import HypothesisError, ResourceLimitError
from .methods import METHODS, auto_count, distinct_count, try_count
from .series import deformed_exp_truncated


# first match wins: HypothesisError is a ValueError
_EXIT_CODES = {
    HypothesisError: (3, "precondition"),
    ResourceLimitError: (4, "resource"),
    ValueError: (2, "usage"),
}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, wrapping at spaces only: textwrap would split iep-partitions.

    argparse builds a formatter on every add_argument, only to check the
    metavar, and its __init__ reads the terminal's size each time.  This one
    reads it when help or usage text first needs the width, by argparse's
    rule: width = columns - 2, help column = min(24, max(width - 20, 4)).
    """

    def __init__(self, prog):
        super().__init__(prog, width=0)  # a stand-in width, so the terminal is not read here
        del self._width, self._max_help_position

    def __getattr__(self, name):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        import shutil  # only help and usage text need it

        self._width = shutil.get_terminal_size().columns - 2
        self._max_help_position = min(24, max(self._width - 20, 2 * self._indent_increment))
        return getattr(self, name)

    def _split_lines(self, text, width):
        import textwrap  # only help text needs it: the import would add to every process's start

        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)

    def _fill_text(self, text, width, indent):
        return "\n".join(indent + line for line in self._split_lines(text, width - len(indent)))


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, add_help=False, **kwargs)
        # argparse's own -h, its help string written out rather than looked up in gettext
        self.add_argument("-h", "--help", action="help", help="show this help message and exit")

    def error(self, message):
        raise ValueError(message)


class _Encoded(str):
    """A JSON text that the writer embeds as it is, instead of encoding it as a string."""

    __slots__ = ()


def _json_text(value) -> str:
    """json.dumps(value), byte for byte, with each _Encoded value embedded as it is.

    Written for the values a document holds: str, int, float, bool, None,
    lists and tuples, and dicts with str keys; a list holds no _Encoded.  A
    str is written as it is, in quotes, when it is printable ASCII without
    '"' or '\\'; a list's strs are checked as one joined text.  Anything else
    goes to json.dumps.
    """
    if isinstance(value, str):
        return value if isinstance(value, _Encoded) else _quoted(value)
    if isinstance(value, dict):
        items = [f"{_quoted(key)}: {_json_text(item)}" for key, item in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], str):
            text = '", "'.join(value)  # the joins put in 2 * (len - 1) quotes
            if (
                text.isascii() and text.isprintable() and "\\" not in text
                and text.count('"') == 2 * len(value) - 2
            ):
                return f'["{text}"]'
            return _dumps(value)
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and isfinite(value):
        return float.__repr__(value)
    return _dumps(value)


def _quoted(text: str) -> str:
    """json.dumps(text) for a str."""
    if text.isascii() and text.isprintable() and "\\" not in text and '"' not in text:
        return f'"{text}"'
    return _dumps(text)


def _dumps(value) -> str:
    import json  # only for text to escape: the import would add to every process's start

    return json.dumps(value)


# human and notes are iterables of lines for stdout and stderr; each error makes the exit code 1
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
    report = check_condition(inst)._asdict()
    report["full_sum_gcd"] = str(report["full_sum_gcd"])
    if args.b is None:
        del report["divides_b"]
    return _Result(
        human=[f"{key}: {_text(value)}" for key, value in report.items() if value is not None],
        doc={"inputs": inputs, "report": report},
    )


def _text(value) -> str:
    """A report value as check prints it: a set such as {1, 2}, true or false, or the string."""
    if isinstance(value, tuple):
        return "{" + ", ".join(map(str, value)) + "}"
    return _json_text(value) if isinstance(value, bool) else value


def _run_compare(args) -> _Result:
    inst, inputs = _instance(args)
    results: dict[str, str] = {}
    skipped: dict[str, str] = {}
    for name in METHODS:
        try:
            value = try_count(inst, name)
        except ResourceLimitError:
            # the formula's only refusal is its subset scan
            skipped[name] = "subset cap exceeded" if name == "formula" else "resource cap exceeded"
        else:
            if value is None:
                skipped[name] = "hypothesis fails"
            else:
                results[name] = str(value)
    if len(results) < 2:  # nothing to compare
        answered = f"only {next(iter(results))}" if results else "no method"
        reasons = ", ".join(f"{name}: {reason}" for name, reason in skipped.items())
        raise ResourceLimitError(f"{answered} answered ({reasons})")
    agree = len(set(results.values())) == 1
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
    # the tables hold only nonzero entries, in (k, e) and (k, c, e) order; each row is
    # written once, as the JSON object text that json.dumps would give it
    if args.connected:
        table = graphenum.connected_counts(args.kmax)
        rows = [
            f'{{"e": {e}, "k": {k}, "count": "{cnt}"}}' for (e, k), cnt in table.gprime.items()
        ]
    else:
        table = graphenum.component_counts(args.kmax)
        rows = [
            f'{{"c": {c}, "e": {e}, "k": {k}, "count": "{cnt}"}}'
            for (c, e, k), cnt in table.g.items()
        ]
    return _Result(
        human=rows,
        doc={
            "inputs": {"k_max": args.kmax, "connected": bool(args.connected)},
            "rows": _Encoded("[" + ", ".join(rows) + "]"),
        },
    )


def _run_series(args) -> _Result:
    try:
        # Fraction expands an exponent into all its digits: 1e30000000 would never finish
        if "e" in args.beta.lower():
            raise ValueError
        beta = Fraction(args.beta)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--beta must be an exact rational without an exponent, such as 2, -1/3 or 0.25, "
            f"got {args.beta!r}"
        )
    strs = [str(c) for c in deformed_exp_truncated(beta, args.order).coeffs]
    return _Result(
        human=strs,
        doc={"inputs": {"beta": str(beta), "order": args.order}, "coefficients": strs},
    )


def _add_instance_arguments(
    p: _Parser, b_help: str = "right-hand side", b_required: bool = True
) -> None:
    """--n, --b and --coeffs, in this order: argparse names missing options in definition order."""
    p.add_argument("--n", type=int, required=True, help="modulus (>= 1)")
    p.add_argument("--b", type=int, required=b_required, help=b_help)
    p.add_argument("--coeffs", required=True, help="comma-separated integers, e.g. --coeffs=-1,7,3")


def _count_arguments(p: _Parser) -> None:
    _add_instance_arguments(p)
    p.add_argument(
        "--method",
        choices=METHODS,
        help="default: 0 by pigeonhole when k > n, else formula when the subset-sum gcd "
        "condition holds, else iep-partitions (also when the condition check is over budget)",
    )


def _check_arguments(p: _Parser) -> None:
    _add_instance_arguments(p, "also report whether gcd(sum, n) divides b", b_required=False)


def _graph_table_arguments(p: _Parser) -> None:
    p.add_argument(
        "--kmax", type=int, required=True, help=f"largest vertex count (1..{graphenum.KMAX_CAP})"
    )
    p.add_argument(
        "--connected", action="store_true", help="emit connected counts g'(e,k) instead of g(c,e,k)"
    )


def _series_arguments(p: _Parser) -> None:
    p.add_argument("--beta", required=True, help="exact rational, e.g. 2, 1/3 or --beta=-1/3")
    p.add_argument("--order", type=int, required=True, help="truncation order (>= 0)")


# each subcommand, in --help order: its handler, its help line and what adds its own arguments
_SUBCOMMANDS = {
    "count": (_run_count, "count distinct-coordinate solutions", _count_arguments),
    "check": (_run_check, "check the subset-sum gcd condition", _check_arguments),
    "oracle-compare": (
        _run_compare, "run all applicable methods and compare", _add_instance_arguments
    ),
    "graph-table": (
        _run_graph_table, "emit labeled-graph counts as JSON lines", _graph_table_arguments
    ),
    "series": (
        _run_series, "emit deformed-exponential coefficients as fractions", _series_arguments
    ),
}


def _with_arguments(p: _Parser, name: str) -> _Parser:
    """p with --json and --no-timing, then the arguments of subcommand name, in --help order."""
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.add_argument(
        "--no-timing", action="store_true", help="omit elapsed_ms for reproducible output"
    )
    _SUBCOMMANDS[name][2](p)
    return p


def _build_parser(name=None) -> _Parser:
    """The standalone parser of subcommand name, or the full tree when name is no subcommand."""
    if name in _SUBCOMMANDS:
        return _with_arguments(_Parser(prog=f"congcount {name}"), name)
    summary = sys.modules[__package__].__doc__.splitlines()[0]  # the package's, not this module's
    parser = _Parser(prog="congcount", description=summary)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for each, (_, about, _) in _SUBCOMMANDS.items():
        _with_arguments(sub.add_parser(each, help=about), each)
    return parser


def main(argv=None) -> int:
    # exact counts and coefficients can run past the default 4300-digit int<->str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    t0 = perf_counter()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # a named subcommand parses the rest alone; anything else goes through the full tree
        name = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _build_parser(name).parse_args(argv[1:] if name else argv)
        result = _SUBCOMMANDS[name or args.subcommand][0](args)
    except SystemExit:  # argparse --help; _Parser.error raises ValueError instead
        return 0
    except tuple(_EXIT_CODES) as exc:
        code, category = next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
        print(f"error: {category}: {exc}", file=sys.stderr)
        return code
    else:
        if args.json:
            if not args.no_timing:
                result.doc["elapsed_ms"] = round((perf_counter() - t0) * 1000, 3)
            print(_json_text(result.doc))
        else:
            for line in result.human:
                print(line)
            for note in result.notes:
                print(note, file=sys.stderr)
        for err in result.errors:
            print(err, file=sys.stderr)
        return 1 if result.errors else 0
    finally:
        sys.set_int_max_str_digits(limit)
