"""Self-tests for the benchmark harness, at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import combinations, product
from math import gcd
from pathlib import Path

import reference
import run
from tracer import Tracer
from workloads import WORKLOADS, Call

PACKAGE = run.load_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "formula-wide": {"k_mix": {3: 2, 4: 2}, "coeff_max": 5, "decks": 2},
    "fallback-count": {"k_mix": {4: 2, 5: 2}, "n_min": 6, "n_max": 30, "decks": 2},
    "oracle-grid": {"cells": [(4, 2), (5, 3)], "decks": 1},
    "tables": {"connected_kmax": [5, 6], "full_kmax": [4, 5], "series_calls": 2,
               "series_order": [3, 6], "log_orders": [4], "pow_calls": 1, "pow_orders": [3, 5],
               "bivar_log_z": [3], "bivar_pow_z": [3], "decks": 1},
}


def tiny_decks(name, seed=7):
    return WORKLOADS[name].decks(seed, PACKAGE, TINY[name])


class HarnessTest(unittest.TestCase):
    def test_every_workload_runs_clean_and_reports_every_metric(self):
        want = {m["name"] for m in SPEC["end_to_end"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                attempted, failed, metrics = run.run_untraced(
                    PACKAGE, tiny_decks(name), 0, passes=2, min_samples=10, setup_samples=2)
                self.assertEqual(failed, 0)
                self.assertGreater(attempted, 0)
                self.assertEqual(set(metrics), want)
                self.assertTrue(all(value > 0 for value, _ in metrics.values()))

    def test_planted_wrong_count_is_reported_not_raised(self):
        decks = tiny_decks("formula-wide")
        decks[0][0].expected += 1
        decks[0].append(Call("crash", lambda call, out, deck: True, fn=lambda: 1 // 0))
        attempted, failed, _ = run.run_untraced(PACKAGE, decks, 0, passes=1, min_samples=1,
                                                setup_samples=0)
        self.assertEqual(failed, 2)
        self.assertEqual(attempted, len(decks[0]))

    def test_traced_and_untraced_outputs_are_identical(self):
        want = {m["name"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                deck = tiny_decks(name)[0]
                plain, _, _ = run.run_deck(PACKAGE, deck)
                tracer = Tracer(PACKAGE)
                tracer.install()
                try:
                    traced, _, _ = run.run_deck(PACKAGE, deck, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced)
                self.assertIs(PACKAGE.cli.check_condition, PACKAGE.congruence.check_condition)
                _, failed, metrics = run.run_traced(PACKAGE, tiny_decks(name), 0, name, 7)
                self.assertEqual(failed, 0)
                self.assertEqual(set(metrics), want)
                if name == "formula-wide":
                    self.assertEqual(
                        metrics["congruence.check_condition.calls_per_count"][0], 2)

    def test_generators_build_what_they_claim(self):
        divides = set()
        for deck in tiny_decks("formula-wide", seed=3):
            for call in deck:
                n, b, coeffs = int(call.argv[2]), int(call.argv[4]), call.argv[6].split(",")
                coeffs = [int(a) for a in coeffs]
                self.assertTrue(reference.condition_holds(coeffs, n))
                divides.add(b % gcd(sum(coeffs), n) == 0)
        self.assertEqual(divides, {True, False})
        for deck in tiny_decks("fallback-count", seed=3):
            for call in deck:
                n, coeffs = int(call.argv[2]), [int(a) for a in call.argv[6].split(",")]
                self.assertFalse(reference.condition_holds(coeffs, n))


class ReferenceTest(unittest.TestCase):
    def test_character_count_matches_enumeration(self):
        for n in range(1, 7):
            for k in range(1, 5):
                for coeffs in product(range(n), repeat=k):
                    hist = reference.distinct_counts_by_residue(coeffs, n)
                    for b in range(n):
                        self.assertEqual(
                            reference.distinct_count_by_characters(coeffs, b, n), hist[b])

    def test_closed_form_matches_enumeration_where_condition_holds(self):
        for n in range(2, 8):
            for coeffs in product(range(1, n), repeat=3):
                if reference.condition_holds(coeffs, n):
                    hist = reference.distinct_counts_by_residue(coeffs, n)
                    for b in range(n):
                        self.assertEqual(reference.closed_form(coeffs, b, n), hist[b])

    def test_subset_rank_follows_scan_order(self):
        for k in range(1, 8):
            order = [s for size in range(1, k) for s in combinations(range(1, k + 1), size)]
            for i, subset in enumerate(order):
                self.assertEqual(reference.subsets_before(k, subset), i + 1)
            self.assertEqual(reference.subsets_before(k, None), len(order))

    def test_known_totals(self):
        self.assertEqual(reference.connected_graph_totals(5), [1, 1, 1, 4, 38, 728])
        self.assertEqual([reference.bell(k) for k in range(8)], [1, 1, 2, 5, 15, 52, 203, 877])
        by_c = reference.graphs_by_components(6)
        for k in range(1, 7):
            self.assertEqual(sum(by_c[c][k] for c in range(k + 1)), 2 ** (k * (k - 1) // 2))


class ContractTest(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "tables", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
