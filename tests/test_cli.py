import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from importlib import import_module
from math import comb, factorial, perm
from pathlib import Path

import pytest

import congcount
from congcount import cli, congruence, graphenum, oracle
from support import (
    alt_sum_all,
    alt_sum_connected,
    connected_graph_totals,
    record_calls,
    reference_graph_tables,
)


README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _repeat(value, times):
    return ",".join([value] * times)


# Every exact CLI transcript: the name of the test that runs it, the command line after
# "congcount" (split at spaces), then the exit code, stdout and stderr.  Each "$ congcount"
# line in the README must be a row here, with the stdout the README shows.
TRANSCRIPTS = [
    ("count_human_output", "count --n 5 --b 0 --coeffs 1,1,3", 0, "20\n", "method: formula\n"),
    ("count_explicit_method", "count --n 5 --b 0 --coeffs 1,1,3 --method brute",
        0, "20\n", "method: brute\n"),
    ("count_auto_falls_back_to_partitions", "count --n 4 --b 0 --coeffs 2,2",
        0, "4\n", "method: iep-partitions\n"),
    ("count_json_no_timing_is_exact", "count --n 5 --b 0 --coeffs 1,1,3 --json --no-timing",
        0, '{"inputs": {"n": "5", "b": "0", "coeffs": ["1", "1", "3"]},'
        ' "method": "formula", "count": "20"}\n', ""),
    # values starting with "-" need the --opt=value spelling under argparse
    ("count_echoes_reduced_instance", "count --n 5 --b -4 --coeffs=-1,7,3 --json --no-timing",
        0, '{"inputs": {"n": "5", "b": "1", "coeffs": ["4", "2", "3"]},'
        ' "method": "iep-partitions", "count": "12"}\n', ""),
    ("auto_count_is_zero_when_k_exceeds_n", f"count --n 5 --b 0 --coeffs {_repeat('1', 25)}",
        0, "0\n", "method: pigeonhole\n"),
    ("auto_count_is_zero_when_k_exceeds_n_json",
        "count --n 2 --b 1 --coeffs 1,1,1 --json --no-timing",
        0, '{"inputs": {"n": "2", "b": "1", "coeffs": ["1", "1", "1"]},'
        ' "method": "pigeonhole", "count": "0"}\n', ""),
    ("partition_method_is_zero_when_k_exceeds_n",
        f"count --n 5 --b 0 --coeffs {_repeat('1', 13)} --method iep-partitions",
        0, "0\n", "method: iep-partitions\n"),
    ("partition_method_is_zero_when_k_exceeds_n_compare",
        f"oracle-compare --n 5 --b 0 --coeffs {_repeat('1', 13)} --json --no-timing",
        0, '{"inputs": {"n": "5", "b": "0", "coeffs": [' + ", ".join(['"1"'] * 13) + "]},"
        ' "results": {"iep-edges": "0", "iep-partitions": "0", "brute": "0"},'
        ' "skipped": {"formula": "hypothesis fails"}, "agree": true}\n', ""),
    # pigeonhole answers before the k <= 5 cap on the edge-subset walk
    ("edge_method_is_zero_when_k_exceeds_n",
        "count --n 3 --b 0 --coeffs 1,1,1,1,1,1 --method iep-edges",
        0, "0\n", "method: iep-edges\n"),
    ("check_failing", "check --n 6 --coeffs 2,4",
        0, "holds: false\nfailing_subset: {1}\nfull_sum_gcd: 6\n", ""),
    ("check_holding_with_b", "check --n 5 --b 0 --coeffs 1,1,3",
        0, "holds: true\nfull_sum_gcd: 5\ndivides_b: true\n", ""),
    ("check_json", "check --n 6 --coeffs 2,4 --json --no-timing",
        0, '{"inputs": {"n": "6", "coeffs": ["2", "4"]},'
        ' "report": {"holds": false, "failing_subset": [1], "full_sum_gcd": "6"}}\n', ""),
    ("check_json_with_b", "check --n 6 --b 1 --coeffs 2,4 --json --no-timing",
        0, '{"inputs": {"n": "6", "b": "1", "coeffs": ["2", "4"]}, "report": {"holds": false,'
        ' "failing_subset": [1], "full_sum_gcd": "6", "divides_b": false}}\n', ""),
    # 2000000014 = 2 * 1000000007: the prime 2 is decided by the residue DP,
    # whose witness {1} leaves no earlier subset for the large prime's scan
    ("check_small_prime_witness_spares_the_large_prime_scan",
        f"check --n 2000000014 --coeffs {_repeat('2', 25)}",
        0, "holds: false\nfailing_subset: {1}\nfull_sum_gcd: 2\n", ""),
    # 2000000032000000126 = 2 * 1000000007 * 1000000009: trial division finds
    # 2 but not the two large primes; the DP for 2 still finds {1}
    ("check_small_prime_witness_survives_an_unfactored_cofactor",
        f"check --n 2000000032000000126 --coeffs {_repeat('2', 25)}",
        0, "holds: false\nfailing_subset: {1}\nfull_sum_gcd: 2\n", ""),
    ("oracle_compare_agreement", "oracle-compare --n 5 --b 0 --coeffs 1,1,3",
        0, "formula         20\niep-edges       20\niep-partitions  20\nbrute           20\n"
        "agreement: yes\n", ""),
    ("oracle_compare_skips_formula_when_condition_fails",
        "oracle-compare --n 4 --b 0 --coeffs 2,2 --json --no-timing",
        0, '{"inputs": {"n": "4", "b": "0", "coeffs": ["2", "2"]},'
        ' "results": {"iep-edges": "4", "iep-partitions": "4", "brute": "4"},'
        ' "skipped": {"formula": "hypothesis fails"}, "agree": true}\n', ""),
    # a1 + a2 = p: the formula's hypothesis fails.  Twenty distinct residues put
    # k = 20 past every oracle's cap; three residue classes leave it to iep-partitions
    ("oracle_compare_with_no_answer_exits_four",
        "oracle-compare --n 1000003 --b 0 --coeffs 1,1000002,"
        f"{','.join(str(2**i) for i in range(1, 18))},737861",
        4, "", "error: resource: no method answered (formula: hypothesis fails, iep-edges: "
        "resource cap exceeded, iep-partitions: resource cap exceeded, brute: resource cap "
        "exceeded)\n"),
    ("oracle_compare_with_only_partitions_exits_four",
        f"oracle-compare --n 1000003 --b 0 --coeffs 1,1000002,{_repeat('1', 17)},999986",
        4, "", "error: resource: only iep-partitions answered (formula: hypothesis fails, "
        "iep-edges: resource cap exceeded, brute: resource cap exceeded)\n"),
    ("graph_table_connected", "graph-table --kmax 3 --connected",
        0, '{"e": 0, "k": 1, "count": "1"}\n{"e": 1, "k": 2, "count": "1"}\n'
        '{"e": 2, "k": 3, "count": "3"}\n{"e": 3, "k": 3, "count": "1"}\n', ""),
    ("graph_table_full", "graph-table --kmax 2",
        0, '{"c": 1, "e": 0, "k": 1, "count": "1"}\n{"c": 1, "e": 1, "k": 2, "count": "1"}\n'
        '{"c": 2, "e": 0, "k": 2, "count": "1"}\n', ""),
    ("graph_table_json_document", "graph-table --kmax 2 --connected --json --no-timing",
        0, '{"inputs": {"k_max": 2, "connected": true},'
        ' "rows": [{"e": 0, "k": 1, "count": "1"}, {"e": 1, "k": 2, "count": "1"}]}\n', ""),
    ("series_output", "series --beta 0 --order 5", 0, "1\n1\n0\n0\n0\n0\n", ""),
    ("series_output_at_beta_2", "series --beta 2 --order 3", 0, "1\n1\n1\n4/3\n", ""),
    # a3 + a40 = 9497, a prime: the refusal names the subset in index order, as check does
    ("formula_refusal_names_the_subset_in_index_order",
        f"count --n 9497 --b 0 --coeffs 1,1,5,{_repeat('1', 36)},9492,1 --method formula",
        3, "", "error: precondition: subset-sum gcd condition fails: coefficient subset "
        "{3, 40} sums to a non-unit mod 9497\n"),
    ("series_accepts_fractions", "series --beta 1/3 --order 2 --json --no-timing",
        0, '{"inputs": {"beta": "1/3", "order": 2}, "coefficients": ["1", "1", "1/6"]}\n', ""),
    ("series_accepts_plain_decimals", "series --beta 0.25 --order 3 --json --no-timing",
        0, '{"inputs": {"beta": "1/4", "order": 3}, "coefficients": ["1", "1", "1/8", "1/384"]}\n',
        ""),
    # Fraction would expand the exponent into 30 million digits before anything bounds it
    ("series_refuses_exponent_notation", "series --beta 1e30000000 --order 0",
        2, "", "error: usage: --beta must be an exact rational without an exponent, such as 2, "
        "-1/3 or 0.25, got '1e30000000'\n"),
    # usage errors of the top level and of a subcommand
    ("missing_subcommand_is_a_usage_error", "",
        2, "", "error: usage: the following arguments are required: subcommand\n"),
    ("unknown_subcommand_is_a_usage_error", "bogus",
        2, "", "error: usage: argument subcommand: invalid choice: 'bogus' (choose from "
        "'count', 'check', 'oracle-compare', 'graph-table', 'series')\n"),
    # --json belongs to the subcommand, so the top level does not know it
    ("option_before_subcommand_is_unrecognized", "--json count --n 5 --b 0 --coeffs 1",
        2, "", "error: usage: unrecognized arguments: --json\n"),
    ("count_without_b_is_a_usage_error", "count --n 5 --coeffs 1",
        2, "", "error: usage: the following arguments are required: --b\n"),
    ("count_with_unknown_option_is_a_usage_error", "count --n 5 --b 0 --coeffs 1 --bogus",
        2, "", "error: usage: unrecognized arguments: --bogus\n"),
    ("count_with_stray_positional_is_a_usage_error", "count --n 5 --b 0 --coeffs 1 extra",
        2, "", "error: usage: unrecognized arguments: extra\n"),
]


def _transcript_test(command, code, out, err):
    def test(capsys):
        assert run_cli(capsys, command.split()) == (code, out, err)

    return test


def _readme_section(start, end):
    text = README.read_text()
    return text[text.index(start) : text.index(end)]


def test_readme_transcripts_are_rows():
    rows = {command: (code, out) for _, command, code, out, _ in TRANSCRIPTS}
    shown = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for transcript in block.split("$ congcount ")[1:]:
            shown.append(transcript.partition("\n")[::2])
    assert shown
    for command, out in shown:
        assert command in rows, f"README shows a command no row runs: {command}"
        assert rows[command] == (0, out), command


def test_readme_module_map_names_every_public_name():
    """The map names every public name, and each name a row lists outside parentheses is in its module."""
    section = _readme_section("Module map:", "Resource caps.")
    named = set(re.findall(r"`(\w+)`", section))
    assert sorted(set(congcount.__all__) - named) == []
    rows = re.findall(r"^\| `(congcount\.\w+)` *\|(.*)\|$", section, re.M)
    assert rows
    missing = []
    for module, contents in rows:
        # strip the innermost (...) groups until none is left; code spans such as `C(k,2)` balance
        while re.search(r"\([^()]*\)", contents):
            contents = re.sub(r"\([^()]*\)", "", contents)
        missing += [
            f"{module}.{name}"
            for name in re.findall(r"`(\w+)`", contents)
            if not hasattr(import_module(module), name)
        ]
    assert missing == []


def test_readme_python_example_runs():
    """Each expression of the README's python block with a "# value, ..." comment gives that value."""
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)[1]
    lines = block.splitlines()
    namespace = {}
    got, shown = [], []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        _, comment_mark, comment = lines[statement.end_lineno - 1].partition("#")
        if isinstance(statement, ast.Expr) and comment_mark:
            got.append(repr(eval(code, namespace)))
            shown.append(comment.split(",")[0].strip())
        else:
            exec(code, namespace)
    assert shown
    assert got == shown


def test_readme_cap_values_are_the_constants():
    caps = re.findall(
        r"`(\w+)\.(\w+) = ([\d*]+)`", _readme_section("Resource caps.", "Everything is a pure")
    )
    assert len(caps) == 5
    for module, name, value in caps:
        base, _, exponent = value.partition("**")
        constant = getattr(import_module(f"congcount.{module}"), name)
        assert constant == int(base) ** int(exponent or 1), f"{module}.{name}"


@pytest.mark.parametrize("argv", [
    "count --n 5 --b 0 --coeffs 1,1,3",
    "check --n 6 --b 1 --coeffs 2,4",
    "oracle-compare --n 5 --b 0 --coeffs 1,1,3",
    "graph-table --kmax 4",
    "graph-table --kmax 4 --connected",
    "series --beta 1/3 --order 4",
], ids=["count", "check", "oracle-compare", "graph-table", "graph-table-connected", "series"])
def test_json_includes_timing_last_by_default(capsys, argv):
    # the timed document is the untimed one with elapsed_ms appended as its last key
    code, out, err = run_cli(capsys, argv.split() + ["--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert list(doc)[-1] == "elapsed_ms"
    assert isinstance(doc.pop("elapsed_ms"), float)
    code, untimed, _ = run_cli(capsys, argv.split() + ["--json", "--no-timing"])
    assert code == 0
    assert doc == json.loads(untimed)


def test_oracle_compare_disagreement_exits_one(capsys, monkeypatch):
    # patched where it is defined: the method dispatch looks counters up when called
    monkeypatch.setattr(oracle, "brute_force_distinct", lambda inst: 999)
    code, out, err = run_cli(capsys, ["oracle-compare", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert code == 1
    assert out.endswith("agreement: no\n")
    assert err == "error: disagreement: oracle methods returned differing counts\n"


def test_check_refusal_states_a_huge_scan_by_a_power_of_two(capsys):
    # 1000 ones mod the prime 1000003, past the residue DP's reach: the scan of
    # 2**1000 - 2 subsets is refused on one short line, not with its 302 digits
    code, out, err = run_cli(capsys, ["check", "--n", "1000003", "--coeffs", _repeat("1", 1000)])
    assert (code, out) == (4, "")
    assert err == "error: resource: subset scan would need more than 2**999 gcd checks; cap is 2**24\n"
    assert len(err) < 120


def test_oracle_compare_skip_reasons_when_only_partitions_fit(capsys):
    # k = 30 mod the prime 100003: the formula's subset scan, the edge subsets
    # and the tuple enumeration are all past their caps; L = gcd(465, 100003)
    # = 1, so iep-partitions runs no DP.  One answer compares nothing, so the
    # call is refused as when no method answers
    coeffs = ",".join(map(str, range(1, 31)))
    for mode in ([], ["--json", "--no-timing"]):
        argv = ["oracle-compare", "--n", "100003", "--b", "0", "--coeffs", coeffs] + mode
        assert run_cli(capsys, argv) == (
            4, "", "error: resource: only iep-partitions answered (formula: subset cap exceeded, "
            "iep-edges: resource cap exceeded, brute: resource cap exceeded)\n",
        )


def test_graph_table_rows_equal_reference(capsys):
    gp, g = reference_graph_tables(6)
    for k_max in range(1, 7):
        for connected in (True, False):
            if connected:
                rows = [{"e": e, "k": k, "count": str(v)} for (e, k), v in gp.items() if k <= k_max]
            else:
                rows = [
                    {"c": c, "e": e, "k": k, "count": str(v)}
                    for (c, e, k), v in g.items()
                    if k <= k_max
                ]
            argv = ["graph-table", "--kmax", str(k_max)] + ["--connected"] * connected
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            assert out == "".join(json.dumps(row) + "\n" for row in rows)
            code, out, err = run_cli(capsys, argv + ["--json", "--no-timing"])
            assert (code, err) == (0, "")
            doc = {"inputs": {"k_max": k_max, "connected": connected}, "rows": rows}
            assert out == json.dumps(doc) + "\n"


def test_graph_table_at_the_cap_finishes(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["graph-table", "--kmax", "30", "--json", "--no-timing"])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 10, f"graph-table --kmax 30 took {elapsed:.1f} s"
    all_graphs = [0] * 31
    connected = [0] * 31
    g, gprime = {}, {}
    for row in json.loads(out)["rows"]:
        c, e, k, count = row["c"], row["e"], row["k"], int(row["count"])
        g[(c, e, k)] = count
        all_graphs[k] += count
        if c == 1:
            gprime[(e, k)] = count
            connected[k] += count
    assert all_graphs[1:] == [2 ** comb(k, 2) for k in range(1, 31)]
    assert connected[1:] == connected_graph_totals(30)[1:]
    # the paper's two identities at every k <= 30, summed from the printed rows
    # and, for g', from the connected table too
    connected_table = graphenum.connected_counts(30).gprime
    for k in range(1, 31):
        want = (-1) ** (k - 1) * factorial(k - 1)
        assert alt_sum_connected(gprime, k) == alt_sum_connected(connected_table, k) == want, k
        for t in (1, 2, 30, 31):
            assert alt_sum_all(g, k, t) == perm(t, k), (k, t)


@pytest.mark.parametrize("mode, json_digest, human_digest", [
    ([], "ef672406c7a93e92991c44d7e4d960b3ab54a232be8f5552964e46cbb9acb8e0",
        "24bc26deed28348ce4ba0eaf901dd71d3df567c7baafe273683555cac2807caa"),
    (["--connected"], "cc8bf03c56b983555dab3c2e2cd4b36e45e6bda42c34290936d3376271d57066",
        "6f2b32875fd81089fa76b6db81b28e0cf504c464e585745ba50d391980244dff"),
], ids=["components", "connected"])
def test_graph_table_at_the_cap_is_byte_identical(capsys, mode, json_digest, human_digest):
    # the SHA-256 of the whole output in each mode, as json.dumps printed each row dict;
    # the packed rows are widest here, 56-byte slots for k = 30
    argv = ["graph-table", "--kmax", "30"] + mode
    for extra, digest in (["--json", "--no-timing"], json_digest), ([], human_digest):
        code, out, err = run_cli(capsys, argv + extra)
        assert (code, err) == (0, ""), extra
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


def test_series_output_is_byte_identical(capsys):
    # the SHA-256 of the document as the Fraction-by-Fraction engine printed it;
    # beta = 7/3 gives denominators 3**C(m,2) m!, up to 3**780 40!
    code, out, err = run_cli(capsys, ["series", "--beta=7/3", "--order", "40", "--json", "--no-timing"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "16c9d118d58961a042d42c492a91b153ce7bb0f655e5170a61339b37ce5680c7")


def test_usage_errors_exit_two(capsys):
    cases = [
        ["count", "--n", "5", "--coeffs", "1,1,3"],  # missing --b
        ["count", "--n", "5", "--b", "0", "--coeffs", "1,,3"],
        ["count", "--n", "0", "--b", "0", "--coeffs", "1"],
        ["count", "--n", "x", "--b", "0", "--coeffs", "1"],
        ["graph-table", "--kmax", "0"],
        ["series", "--beta", "x", "--order", "3"],
        ["series", "--beta", "1/0", "--order", "3"],
        ["series", "--beta", "1e30000000", "--order", "0"],
        ["series", "--beta=-2.5E-3", "--order", "0"],
        ["series", "--beta", "1", "--order", "-1"],
        ["count", "--n", "5", "--b", "0", "--coeffs", "1", "--method", "magic"],
        ["no-such-command"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error: usage: "), argv
        assert err.count("\n") == 1, argv


def test_precondition_error_exits_three(capsys):
    # 300 ones mod 199: the prime is past the residue DP's reach at k = 300 but
    # below k, so its smaller table decides the condition instead of a refused scan
    for n, b, coeffs in [("6", "1", "2,4"), ("199", "0", _repeat("1", 300))]:
        argv = ["count", "--n", n, "--b", b, "--coeffs", coeffs, "--method", "formula"]
        code, _, err = run_cli(capsys, argv)
        assert code == 3, n
        assert err.startswith("error: precondition: "), n
        assert err.count("\n") == 1, n


def test_resource_error_exits_four(capsys):
    code, _, err = run_cli(
        capsys, ["count", "--n", "100000", "--b", "1", "--coeffs", "3,5", "--method", "brute"]
    )
    assert code == 4
    assert err.startswith("error: resource: ")
    assert "10000000000" in err
    assert err.count("\n") == 1
    code, out, err = run_cli(capsys, ["graph-table", "--kmax", "31"])
    assert (code, out, err) == (4, "", "error: resource: k_max = 31 outside allowed range 1..30\n")
    # 25 coefficients: a prime modulus too large for the residue DP leaves the
    # 2**25 subset scan, past the cap, so the forced closed form is refused
    ones = ",".join(["1"] * 25)
    argv = ["count", "--n", "1000000007", "--b", "0", "--coeffs", ones]
    code, _, err = run_cli(capsys, argv + ["--method", "formula"])
    assert code == 4
    assert err.startswith("error: resource: ")
    assert "24" in err
    assert err.count("\n") == 1
    # auto mode counts it by the partition oracle instead; the condition does
    # hold (every proper subset sums to 1..24, a unit), and the count is the
    # closed form's, 1000000006 * ... * 999999983
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (0, f"{perm(1000000006, 24)}\n", "method: iep-partitions\n")
    # mod 101 the DP answers inside the budget: l = 1 divides b, so the
    # count is 100 * 99 * ... * 77
    code, out, err = run_cli(capsys, ["count", "--n", "101", "--b", "0", "--coeffs", ones])
    assert (code, out, err) == (0, f"{perm(100, 24)}\n", "method: formula\n")


def test_help_exits_zero(capsys, monkeypatch):
    # at 65 columns textwrap's default would split the summary after "pairwise-"
    monkeypatch.setenv("COLUMNS", "65")
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert congcount.__doc__.splitlines()[0] in " ".join(out.split())
    assert re.search(r"\w-\n", out) is None


# Every --help text at COLUMNS=80, byte for byte: the top level's, then each subcommand's.
HELP_AT_80_COLUMNS = {
    "--help": """\
usage: congcount [-h] {count,check,oracle-compare,graph-table,series} ...

Exact counting of linear-congruence solutions with pairwise-distinct
coordinates.

positional arguments:
  {count,check,oracle-compare,graph-table,series}
    count               count distinct-coordinate solutions
    check               check the subset-sum gcd condition
    oracle-compare      run all applicable methods and compare
    graph-table         emit labeled-graph counts as JSON lines
    series              emit deformed-exponential coefficients as fractions

options:
  -h, --help            show this help message and exit
""",
    "count --help": """\
usage: congcount count [-h] [--json] [--no-timing] --n N --b B --coeffs COEFFS
                       [--method {formula,iep-edges,iep-partitions,brute}]

options:
  -h, --help            show this help message and exit
  --json                emit one JSON document
  --no-timing           omit elapsed_ms for reproducible output
  --n N                 modulus (>= 1)
  --b B                 right-hand side
  --coeffs COEFFS       comma-separated integers, e.g. --coeffs=-1,7,3
  --method {formula,iep-edges,iep-partitions,brute}
                        default: 0 by pigeonhole when k > n, else formula when
                        the subset-sum gcd condition holds, else
                        iep-partitions (also when the condition check is over
                        budget)
""",
    # argparse 3.13 wraps this usage line before --coeffs, earlier versions after it
    "check --help": """\
usage: congcount check [-h] [--json] [--no-timing] --n N [--b B]
                       --coeffs COEFFS

options:
  -h, --help       show this help message and exit
  --json           emit one JSON document
  --no-timing      omit elapsed_ms for reproducible output
  --n N            modulus (>= 1)
  --b B            also report whether gcd(sum, n) divides b
  --coeffs COEFFS  comma-separated integers, e.g. --coeffs=-1,7,3
""" if sys.version_info >= (3, 13) else """\
usage: congcount check [-h] [--json] [--no-timing] --n N [--b B] --coeffs
                       COEFFS

options:
  -h, --help       show this help message and exit
  --json           emit one JSON document
  --no-timing      omit elapsed_ms for reproducible output
  --n N            modulus (>= 1)
  --b B            also report whether gcd(sum, n) divides b
  --coeffs COEFFS  comma-separated integers, e.g. --coeffs=-1,7,3
""",
    "oracle-compare --help": """\
usage: congcount oracle-compare [-h] [--json] [--no-timing] --n N --b B
                                --coeffs COEFFS

options:
  -h, --help       show this help message and exit
  --json           emit one JSON document
  --no-timing      omit elapsed_ms for reproducible output
  --n N            modulus (>= 1)
  --b B            right-hand side
  --coeffs COEFFS  comma-separated integers, e.g. --coeffs=-1,7,3
""",
    "graph-table --help": """\
usage: congcount graph-table [-h] [--json] [--no-timing] --kmax KMAX
                             [--connected]

options:
  -h, --help   show this help message and exit
  --json       emit one JSON document
  --no-timing  omit elapsed_ms for reproducible output
  --kmax KMAX  largest vertex count (1..30)
  --connected  emit connected counts g'(e,k) instead of g(c,e,k)
""",
    "series --help": """\
usage: congcount series [-h] [--json] [--no-timing] --beta BETA --order ORDER

options:
  -h, --help     show this help message and exit
  --json         emit one JSON document
  --no-timing    omit elapsed_ms for reproducible output
  --beta BETA    exact rational, e.g. 2, 1/3 or --beta=-1/3
  --order ORDER  truncation order (>= 0)
""",
}


@pytest.mark.parametrize("argv", HELP_AT_80_COLUMNS)
def test_help_text_is_byte_identical(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, argv.split()) == (0, HELP_AT_80_COLUMNS[argv], "")


SUBCOMMANDS = ["count", "check", "oracle-compare", "graph-table", "series"]


# the prog of each parser the full tree builds: the top level's, then each subcommand's
FULL_TREE = ["congcount", *(f"congcount {name}" for name in SUBCOMMANDS)]


@pytest.mark.parametrize("argv, built", [
    ("count --n 5 --b 0 --coeffs 1,1,3", ["congcount count"]),
    ("check --n 6 --coeffs 2,4", ["congcount check"]),
    ("oracle-compare --n 5 --b 0 --coeffs 1,1,3", ["congcount oracle-compare"]),
    ("graph-table --kmax 3", ["congcount graph-table"]),
    ("series --beta 2 --order 3", ["congcount series"]),
    ("count --help", ["congcount count"]),
    ("--help", FULL_TREE),
    ("", FULL_TREE),
    ("bogus", FULL_TREE),
    ("--json count --n 5 --b 0 --coeffs 1", FULL_TREE),
])
def test_a_call_builds_only_the_subparser_it_names(capsys, monkeypatch, argv, built):
    # one standalone parser for a named subcommand; the full tree only for --help or a
    # missing, unknown or option-like first argument
    progs = []
    init = cli._Parser.__init__

    def recording(self, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recording)
    run_cli(capsys, argv.split())
    assert progs == built


# argvs on which a standalone parser could part from argparse's own subparser dispatch:
# abbreviations, values starting with "-", repeats, "--", strays and a late -h
ODD_ARGVS = [
    "count --n 5 --b 0 --coeffs 1,1,3 --js",
    "count --n 5 --b 0 --coeffs=-1,2",
    "count --n 5 --b 0 --coeffs -1,2",
    "count --n 5 --n 7 --b 0 --coeffs 1,2",
    "count -- --n 5",
    "count --n 5 --b 0 --coeffs 1 -- extra",
    "count --n 5 --b 0 --coeffs 1 extra",
    "count --n 5 --b 0 --coeffs 1 -h",
    "count --n 5 --b 0 --coeffs 1 --method bogus",
    "count --n 5 --b 0 --coeffs 1 --meth brute",
    "count --n=5 --b=-2 --coeffs=1",
    "count --n five --b 0 --coeffs 1",
    "check --n 6 --coeffs 2,4 --no-t",
    "graph-table --kmax 3 --connected --connected",
    "graph-table --kmax",
    "series --beta=-1/3 --order 2 --json",
    "oracle-compare --help --n 5",
]


def _parse(capsys, parser, argv):
    """What parser makes of argv: its namespace less subcommand, its usage error, or its exit."""
    try:
        args = vars(parser.parse_args(argv))
    except ValueError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    args.pop("subcommand", None)
    return "parsed", args


@pytest.mark.parametrize("argv", [
    *(pytest.param(row[1], id=row[0])
      for row in TRANSCRIPTS if row[1].split(" ")[0] in SUBCOMMANDS),
    *ODD_ARGVS,
])
def test_standalone_parse_equals_the_full_tree(capsys, monkeypatch, argv):
    # main parses argv[1:] with the named subcommand's parser alone; argparse's subparser
    # dispatch, on the interpreter at hand, must make the same of the whole argv
    monkeypatch.setenv("COLUMNS", "80")
    name, *rest = argv.split()
    standalone = _parse(capsys, cli._build_parser(name), rest)
    assert standalone == _parse(capsys, cli._build_parser(), argv.split())


def option_help(text):
    """Map each option listed in an argparse --help text to its help, wrapped lines joined."""
    entries, current = {}, None
    for line in text.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            flags, _, rest = line.strip().partition("  ")
            current = flags.split(", ")[-1].split()[0]
            entries[current] = rest.strip()
        elif current and line.strip():
            entries[current] = (entries[current] + " " + line.strip()).strip()
    return entries


def test_every_option_has_one_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = {}
    for name in SUBCOMMANDS:
        code, out, _ = run_cli(capsys, [name, "--help"])
        assert code == 0
        # textwrap's default would split iep-partitions after its hyphen
        assert re.search(r"\w-\n", out) is None, name
        helps[name] = option_help(out)
        assert {"--help", "--json", "--no-timing"} <= set(helps[name]), name
        for option, text in helps[name].items():
            assert text, (name, option)
    assert set(helps["count"]) >= {"--n", "--b", "--coeffs", "--method"}
    for option in ("--n", "--coeffs"):
        assert helps["count"][option] == helps["check"][option] == helps["oracle-compare"][option]
    # a negative value must be glued to its option, or argparse reads it as one
    assert "--coeffs=-" in helps["count"]["--coeffs"]
    assert "--beta=-" in helps["series"]["--beta"]


def test_graph_table_help_reads_the_cap(capsys, monkeypatch):
    # twice in one process: a parser kept from the first call would show the first cap
    for cap in (30, 12):
        monkeypatch.setattr(graphenum, "KMAX_CAP", cap)
        code, out, _ = run_cli(capsys, ["graph-table", "--help"])
        assert code == 0
        assert option_help(out)["--kmax"] == f"largest vertex count (1..{cap})"


def test_console_script_entry_point(capsys, monkeypatch):
    # the installed congcount command; a regex, since tomllib needs Python 3.11
    text = PYPROJECT.read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)[1]
    module, name = re.fullmatch(r'congcount = "([\w.]+):(\w+)"', scripts.strip()).groups()
    entry = getattr(import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["congcount", *"count --n 5 --b 0 --coeffs 1,1,3".split()])
    # the generated script runs sys.exit(entry()), so entry reads sys.argv and returns the code
    with pytest.raises(SystemExit) as excinfo:
        sys.exit(entry())
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("20\n", "method: formula\n")


def test_repeated_invocations_are_byte_identical(capsys):
    outputs = {}
    for argv in (
        ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3", "--json", "--no-timing"],
        ["graph-table", "--kmax", "4"],
        ["series", "--beta=-1/2", "--order", "6"],
        ["check", "--n", "12", "--b", "3", "--coeffs", "1,5,7", "--json", "--no-timing"],
    ):
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second
        assert first[0] == 0, argv
        outputs[argv[0]] = first[1]
    # beta**C(m,2) / m! at beta = -1/2
    assert outputs["series"].split() == [
        "1", "1", "-1/4", "-1/48", "1/1536", "1/122880", "-1/23592960"
    ]


def test_module_entry_point_runs_as_subprocess():
    # the child imports the package under test even when only pytest's own
    # pythonpath setting put it on sys.path
    paths = [str(Path(congcount.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = ["-m", "congcount", *"count --n 5 --b 0 --coeffs 1,1,3".split()]
    # under -O too: invariant checks must not be assert statements
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, *command], capture_output=True, text=True, env=env
        )
        result = (proc.returncode, proc.stdout, proc.stderr)
        assert result == (0, "20\n", "method: formula\n"), flags


def test_exact_numbers_past_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    # 800 ones mod the prime 1000003: the condition holds, but its subset scan is over budget
    instance = ["--n", "1000003", "--b", "0", "--coeffs", _repeat("1", 800)]
    code, count, err = run_cli(capsys, ["count", *instance])
    assert (code, err) == (0, "method: iep-partitions\n")
    # 240 ones mod 251**8: the formula (by its residue DP for 251) and iep-partitions both answer
    argv = ["oracle-compare", "--n", str(251**8), "--b", "0", "--coeffs", _repeat("1", 240)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out.splitlines()[-1], err) == (0, "agreement: yes", "")
    assert len(out.split()[1]) > 4300
    code, out, err = run_cli(capsys, "series --beta 2 --order 200".split())
    assert (code, out.count("\n"), err) == (0, 201, "")
    big_b = "1" + "0" * 4999
    argv = ["count", "--n", "7", "--b", big_b, "--coeffs", "1,1,3", "--json", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert (code, json.loads(out)["inputs"]["b"], err) == (0, str(pow(10, 4999, 7)), "")
    assert sys.get_int_max_str_digits() == limit
    # the limit comes back on every exit path: usage error, refusal and --help
    for argv, expected in (
        (["count", "--n", "x", "--b", "0", "--coeffs", "1"], 2),
        (["graph-table", "--kmax", "31"], 4),
        (["--help"], 0),
    ):
        assert run_cli(capsys, argv)[0] == expected, argv
        assert sys.get_int_max_str_digits() == limit, argv
    sys.set_int_max_str_digits(0)
    try:
        assert int(count) == perm(1000002, 799)
    finally:
        sys.set_int_max_str_digits(limit)


def test_auto_count_scans_condition_once(capsys, monkeypatch):
    # one decision of the condition per call, whether it holds or fails, and no
    # report: the auto route and compare never call check_condition
    decisions = record_calls(monkeypatch, "_decide", congruence)
    checks = record_calls(monkeypatch, "check_condition", congruence, cli)
    for command, expected in (
        ("count --n 5 --b 0 --coeffs 1,1,3", (0, "20\n", "method: formula\n")),
        ("count --n 4 --b 0 --coeffs 2,2", (0, "4\n", "method: iep-partitions\n")),
        ("count --n 4 --b 0 --coeffs 2,2 --method formula", (3, "", "error: precondition: "
            "subset-sum gcd condition fails: coefficient subset {1} sums to a non-unit mod 4\n")),
        ("oracle-compare --n 4 --b 0 --coeffs 2,2", (0, "formula         skipped (hypothesis "
            "fails)\niep-edges       4\niep-partitions  4\nbrute           4\nagreement: yes\n", "")),
    ):
        decisions.clear()
        assert run_cli(capsys, command.split()) == expected, command
        assert len(decisions) == 1, command
    assert checks == []


def test_auto_count_and_compare_build_no_failing_subset(capsys, monkeypatch):
    # 186 = 2 * 3 * 31 and the second coefficient is even: the first failing subset is {2}
    instance = "--n 186 --b 0 --coeffs 107,10,66,130,124,103".split()
    refusal = (
        "error: precondition: subset-sum gcd condition fails: coefficient subset {2} sums "
        "to a non-unit mod 186\n"
    )
    assert run_cli(capsys, ["count", *instance, "--method", "formula"]) == (3, "", refusal)
    report = "holds: false\nfailing_subset: {2}\nfull_sum_gcd: 6\ndivides_b: true\n"
    assert run_cli(capsys, ["check", *instance]) == (0, report, "")
    fallback = (0, "204096380472\n", "method: iep-partitions\n")
    assert run_cli(capsys, ["count", *instance, "--method", "iep-partitions"]) == fallback
    compare = [
        ["oracle-compare", *instance],
        "oracle-compare --n 9 --b 4 --coeffs 1,2,3,5,7".split(),
    ]
    compared = [run_cli(capsys, argv) for argv in compare]

    def refuse(coeffs, p):
        raise AssertionError("a failing subset was built")

    monkeypatch.setattr(congruence, "_first_zero_sum_subset", refuse)
    assert run_cli(capsys, ["count", *instance]) == fallback
    assert [run_cli(capsys, argv) for argv in compare] == compared
    # the refusal and check do build it
    for argv in (["count", *instance, "--method", "formula"], ["check", *instance]):
        with pytest.raises(AssertionError, match="failing subset was built"):
            cli.main(argv)


def test_count_auto_falls_back_when_condition_check_is_over_budget(capsys):
    # k = 30 mod the prime 100003: the condition's subset scan would need
    # 2**30 - 2 gcd checks, while iep-partitions has L = gcd(465, 100003) = 1
    coeffs = ",".join(map(str, range(1, 31)))
    argv = ["count", "--n", "100003", "--b", "0", "--coeffs", coeffs]
    _, expected, _ = run_cli(capsys, argv + ["--method", "iep-partitions"])
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (0, expected, "method: iep-partitions\n")
    assert int(out) > 0


# Registered last, so that a row named like a test defined above fails here instead of hiding it.
for _name, *_row in TRANSCRIPTS:
    assert f"test_{_name}" not in globals(), _name
    globals()[f"test_{_name}"] = _transcript_test(*_row)
