import json
import os
import subprocess
import sys
from math import perm
from pathlib import Path

import pytest

import congcount
from congcount import cli, congruence


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_human_output(capsys):
    code, out, err = run_cli(capsys, ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert code == 0
    assert out == "20\n"
    assert err == "method: formula\n"


def test_count_explicit_method(capsys):
    code, out, err = run_cli(
        capsys, ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3", "--method", "brute"]
    )
    assert code == 0
    assert out == "20\n"
    assert err == "method: brute\n"


def test_count_auto_falls_back_to_partitions(capsys):
    code, out, err = run_cli(capsys, ["count", "--n", "4", "--b", "0", "--coeffs", "2,2"])
    assert code == 0
    assert out == "4\n"
    assert err == "method: iep-partitions\n"


def test_count_json_no_timing_is_exact(capsys):
    argv = ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3", "--json", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out == (
        '{"inputs": {"n": "5", "b": "0", "coeffs": ["1", "1", "3"]},'
        ' "method": "formula", "count": "20"}\n'
    )
    assert err == ""


def test_count_json_includes_timing_by_default(capsys):
    code, out, _ = run_cli(capsys, ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "20"
    assert isinstance(doc["elapsed_ms"], float)


def test_count_echoes_reduced_instance(capsys):
    # values starting with "-" need the --opt=value spelling under argparse
    argv = ["count", "--n", "5", "--b", "-4", "--coeffs=-1,7,3", "--json", "--no-timing"]
    _, out, _ = run_cli(capsys, argv)
    doc = json.loads(out)
    assert doc["inputs"] == {"n": "5", "b": "1", "coeffs": ["4", "2", "3"]}


def test_check_failing(capsys):
    code, out, err = run_cli(capsys, ["check", "--n", "6", "--coeffs", "2,4"])
    assert code == 0
    assert out == "holds: false\nfailing_subset: {1}\nfull_sum_gcd: 6\n"
    assert err == ""


def test_check_holding_with_b(capsys):
    code, out, _ = run_cli(capsys, ["check", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert code == 0
    assert out == "holds: true\nfull_sum_gcd: 5\ndivides_b: true\n"


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, ["check", "--n", "6", "--coeffs", "2,4", "--json", "--no-timing"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "inputs": {"n": "6", "coeffs": ["2", "4"]},
        "report": {"holds": False, "failing_subset": [1], "full_sum_gcd": "6"},
    }


def test_oracle_compare_agreement(capsys):
    code, out, err = run_cli(capsys, ["oracle-compare", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert code == 0
    assert out == (
        "formula         20\n"
        "iep-edges       20\n"
        "iep-partitions  20\n"
        "brute           20\n"
        "agreement: yes\n"
    )
    assert err == ""


def test_oracle_compare_skips_formula_when_condition_fails(capsys):
    code, out, _ = run_cli(
        capsys, ["oracle-compare", "--n", "4", "--b", "0", "--coeffs", "2,2", "--json", "--no-timing"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"] == {"formula": "hypothesis fails"}
    assert doc["results"] == {"iep-edges": "4", "iep-partitions": "4", "brute": "4"}
    assert doc["agree"] is True


def test_oracle_compare_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_distinct", lambda inst: 999)
    code, out, err = run_cli(capsys, ["oracle-compare", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert code == 1
    assert out.endswith("agreement: no\n")
    assert err == "error: disagreement: oracle methods returned differing counts\n"


def test_graph_table_connected(capsys):
    code, out, _ = run_cli(capsys, ["graph-table", "--kmax", "3", "--connected"])
    assert code == 0
    assert out == (
        '{"e": 0, "k": 1, "count": "1"}\n'
        '{"e": 1, "k": 2, "count": "1"}\n'
        '{"e": 2, "k": 3, "count": "3"}\n'
        '{"e": 3, "k": 3, "count": "1"}\n'
    )


def test_graph_table_full(capsys):
    code, out, _ = run_cli(capsys, ["graph-table", "--kmax", "2"])
    assert code == 0
    assert out == (
        '{"c": 1, "e": 0, "k": 1, "count": "1"}\n'
        '{"c": 1, "e": 1, "k": 2, "count": "1"}\n'
        '{"c": 2, "e": 0, "k": 2, "count": "1"}\n'
    )


def test_graph_table_json_document(capsys):
    code, out, _ = run_cli(capsys, ["graph-table", "--kmax", "2", "--connected", "--json", "--no-timing"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "inputs": {"k_max": 2, "connected": True},
        "rows": [
            {"e": 0, "k": 1, "count": "1"},
            {"e": 1, "k": 2, "count": "1"},
        ],
    }


def test_series_output(capsys):
    code, out, _ = run_cli(capsys, ["series", "--beta", "0", "--order", "5"])
    assert code == 0
    assert out == "1\n1\n0\n0\n0\n0\n"
    code, out, _ = run_cli(capsys, ["series", "--beta", "2", "--order", "3"])
    assert code == 0
    assert out == "1\n1\n1\n4/3\n"


def test_series_accepts_fractions(capsys):
    code, out, _ = run_cli(capsys, ["series", "--beta", "1/3", "--order", "2", "--json", "--no-timing"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"inputs": {"beta": "1/3", "order": 2}, "coefficients": ["1", "1", "1/6"]}


def test_usage_errors_exit_two(capsys):
    cases = [
        ["count", "--n", "5", "--coeffs", "1,1,3"],  # missing --b
        ["count", "--n", "5", "--b", "0", "--coeffs", "1,,3"],
        ["count", "--n", "0", "--b", "0", "--coeffs", "1"],
        ["count", "--n", "x", "--b", "0", "--coeffs", "1"],
        ["graph-table", "--kmax", "0"],
        ["graph-table", "--kmax", "31"],
        ["series", "--beta", "x", "--order", "3"],
        ["series", "--beta", "1/0", "--order", "3"],
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
    code, _, err = run_cli(
        capsys, ["count", "--n", "6", "--b", "1", "--coeffs", "2,4", "--method", "formula"]
    )
    assert code == 3
    assert err.startswith("error: precondition: ")
    assert err.count("\n") == 1


def test_resource_error_exits_four(capsys):
    code, _, err = run_cli(
        capsys, ["count", "--n", "100000", "--b", "1", "--coeffs", "3,5", "--method", "brute"]
    )
    assert code == 4
    assert err.startswith("error: resource: ")
    assert "10000000000" in err
    assert err.count("\n") == 1
    # 25 coefficients: a prime modulus too large for the residue DP leaves the
    # 2**25 subset scan, past the cap
    ones = ",".join(["1"] * 25)
    code, _, err = run_cli(capsys, ["count", "--n", "1000000007", "--b", "0", "--coeffs", ones])
    assert code == 4
    assert err.startswith("error: resource: ")
    assert "24" in err
    assert err.count("\n") == 1
    # mod 101 the DP answers inside the budget: l = 1 divides b, so the
    # count is 100 * 99 * ... * 77
    code, out, err = run_cli(capsys, ["count", "--n", "101", "--b", "0", "--coeffs", ones])
    assert (code, out, err) == (0, f"{perm(100, 24)}\n", "method: formula\n")


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_repeated_invocations_are_byte_identical(capsys):
    for argv in (
        ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3", "--json", "--no-timing"],
        ["graph-table", "--kmax", "4"],
        ["series", "--beta", "-1/2", "--order", "6"],
        ["check", "--n", "12", "--b", "3", "--coeffs", "1,5,7", "--json", "--no-timing"],
    ):
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second


def test_module_entry_point_runs_as_subprocess():
    # the child imports the package under test even when only pytest's own
    # pythonpath setting put it on sys.path
    paths = [str(Path(congcount.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "congcount", "count", "--n", "5", "--b", "0", "--coeffs", "1,1,3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
    assert proc.stderr == "method: formula\n"


def test_auto_count_scans_condition_once(capsys, monkeypatch):
    calls = []
    original = congruence.check_condition

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "check_condition", counting)
    monkeypatch.setattr(congruence, "check_condition", counting)
    code, out, err = run_cli(capsys, ["count", "--n", "5", "--b", "0", "--coeffs", "1,1,3"])
    assert (code, out, err) == (0, "20\n", "method: formula\n")
    assert len(calls) == 1


def test_auto_count_is_zero_when_k_exceeds_n(capsys):
    ones = ",".join(["1"] * 25)
    code, out, err = run_cli(capsys, ["count", "--n", "5", "--b", "0", "--coeffs", ones])
    assert (code, out, err) == (0, "0\n", "method: pigeonhole\n")
    argv = ["count", "--n", "2", "--b", "1", "--coeffs", "1,1,1", "--json", "--no-timing"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out) == {
        "inputs": {"n": "2", "b": "1", "coeffs": ["1", "1", "1"]},
        "method": "pigeonhole",
        "count": "0",
    }


def test_partition_method_is_zero_when_k_exceeds_n(capsys):
    ones = ",".join(["1"] * 13)
    argv = ["count", "--n", "5", "--b", "0", "--coeffs", ones, "--method", "iep-partitions"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (0, "0\n", "method: iep-partitions\n")
    argv = ["oracle-compare", "--n", "5", "--b", "0", "--coeffs", ones, "--json", "--no-timing"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"iep-partitions": "0", "brute": "0"}
    assert set(doc["skipped"]) == {"formula", "iep-edges"}
    assert doc["agree"] is True


def test_check_small_prime_witness_spares_the_large_prime_scan(capsys):
    # 2000000014 = 2 * 1000000007: the prime 2 is decided by the residue DP,
    # whose witness {1} leaves no earlier subset for the large prime's scan
    twos = ",".join(["2"] * 25)
    code, out, err = run_cli(capsys, ["check", "--n", "2000000014", "--coeffs", twos])
    assert (code, out, err) == (0, "holds: false\nfailing_subset: {1}\nfull_sum_gcd: 2\n", "")
