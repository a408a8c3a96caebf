"""End-to-end acceptance checks of the shipped guarantees.

Every comparison is an exact integer or rational identity (tolerance zero).
Each test prints one PASS line per guarantee it checks, naming the guarantee
and the grid it swept; run with `pytest tests/test_acceptance.py -v -s` to
see them.
"""

from itertools import product
from math import comb, factorial, perm
from time import perf_counter

from congcount.arith import falling_factorial
from congcount.congruence import (
    METHODS,
    CongruenceInstance,
    check_condition,
    lehmer_count,
    rademacher_brauer_count,
    schoenemann_count,
)
from congcount.graphenum import component_counts
from congcount.oracle import brute_force_distinct
from congcount.series import (
    SeriesPoly,
    bivar_log,
    bivar_pow,
    deformed_exp_bivariate,
    series_log,
    series_pow,
)
from support import (
    alt_sum_all,
    alt_sum_connected,
    congruence_histogram,
    edge_subset_graph_counts,
    unit_histogram,
)


def _report(name, checks, t0):
    print(f"PASS {name} [{checks} checks, {perf_counter() - t0:.1f}s]")


def test_every_method_matches_brute_force_on_the_exhaustive_grid(exhaustive_grid):
    # every coefficient vector in [0, n)**k, n <= 8, k <= 4, and every b; each
    # method in METHODS ran once per instance, reached through the dispatch
    t0 = perf_counter()
    others = [m for m in METHODS if m != "brute"]
    instances = 0
    for coeffs, n, answers in exhaustive_grid:
        for method in others:
            for b, value in enumerate(answers[method]):
                assert value in (None, answers["brute"][b]), (method, coeffs, b, n)
        instances += n
    assert instances == 72_048
    _report(f"{', '.join(others)} == brute force wherever they answer (n<=8, k<=4)", instances, t0)


def test_formula_matches_brute_force_grid(exhaustive_grid):
    t0 = perf_counter()
    checked = 0
    for coeffs, n, answers in exhaustive_grid:
        holds = check_condition(CongruenceInstance(coeffs, 0, n)).holds
        for b, value in enumerate(answers["formula"]):
            # None: the formula refused with HypothesisError
            assert (value is not None) == holds, (coeffs, b, n)
            if holds:
                assert value == answers["brute"][b], (coeffs, b, n)
                assert 0 <= value <= n * falling_factorial(n, len(coeffs))
                checked += 1
    assert checked
    _report("closed form == brute force exactly where the subset-gcd condition holds (n<=8, k<=4)", checked, t0)


def test_schoenemann_counts_coefficient_independent():
    t0 = perf_counter()
    checked = 0
    for p in (3, 5, 7, 11):
        for k in range(1, min(4, p) + 1):
            closed = (-1) ** (k - 1) * factorial(k - 1) * (p - 1) + falling_factorial(p, k)
            values = set()
            for coeffs in product(range(p), repeat=k):
                if sum(coeffs) % p:
                    continue
                inst = CongruenceInstance(coeffs, 0, p)
                if not check_condition(inst).holds:
                    continue
                value = schoenemann_count(p, coeffs)
                assert value == closed, (p, coeffs)
                assert value == brute_force_distinct(inst), (p, coeffs)
                values.add(value)
                checked += 1
            assert values == {closed}, (p, k)
    _report("prime-case counts are coefficient-independent (p in {3,5,7,11}, k<=4)", checked, t0)


def test_edge_subset_inclusion_exclusion_matches_brute_force(exhaustive_grid):
    t0 = perf_counter()
    checked = 0
    for coeffs, n, answers in exhaustive_grid:
        for b, reference in enumerate(answers["brute"]):
            assert answers["iep-edges"][b] == reference, (coeffs, b, n)
            assert answers["iep-partitions"][b] == reference, (coeffs, b, n)
            checked += 1
    _report("inclusion-exclusion oracles == brute force, no hypothesis (n<=8, k<=4)", checked, t0)


def test_graph_tables_match_exhaustive_enumeration():
    t0 = perf_counter()
    table = component_counts(5)
    connected_totals = []
    checked = 0
    for k in range(1, 6):
        gprime_hat, g_hat = edge_subset_graph_counts(k)
        connected_totals.append(sum(gprime_hat.values()))
        for e in range(comb(k, 2) + 1):
            assert table.gprime.get((e, k), 0) == gprime_hat.get(e, 0), (e, k)
            checked += 1
            for c in range(1, k + 1):
                assert table.g.get((c, e, k), 0) == g_hat.get((c, e), 0), (c, e, k)
                checked += 1
    assert connected_totals == [1, 1, 4, 38, 728]
    _report("recurrence tables == exhaustive edge-subset enumeration (k<=5)", checked, t0)


def test_generating_function_identities():
    t0 = perf_counter()
    table = component_counts(12)
    checked = 0
    one_plus_z = SeriesPoly([1, 1])

    log_series = series_log(one_plus_z, 12)
    for k in range(1, 13):
        assert log_series.coeff(k) * factorial(k) == alt_sum_connected(table.gprime, k)
        checked += 1

    for n in range(1, 13):
        powered = series_pow(one_plus_z, n, 10)
        for k in range(1, 11):
            assert powered.coeff(k) * factorial(k) == alt_sum_all(table.g, k, n)
            checked += 1

    y_order, z_order = comb(6, 2), 6
    grid = deformed_exp_bivariate(y_order, z_order)
    logged = bivar_log(grid)
    for k in range(1, z_order + 1):
        for e in range(y_order + 1):
            want = table.gprime.get((e, k), 0)
            assert logged[e][k] * factorial(k) == want, (e, k)
            checked += 1
    for t in range(1, 5):
        powered = bivar_pow(grid, t)
        for k in range(1, z_order + 1):
            for e in range(comb(k, 2) + 1):
                want = sum(t ** c * table.g.get((c, e, k), 0) for c in range(1, k + 1))
                assert powered[e][k] * factorial(k) == want, (t, e, k)
                checked += 1
    _report("series coefficients == table alternating sums (k<=12; bivariate k<=6)", checked, t0)


def test_lehmer_matches_exhaustive_enumeration():
    t0 = perf_counter()
    checked = 0
    for n in range(1, 9):
        for k in range(1, 5):
            for coeffs in product(range(n), repeat=k):
                hist = congruence_histogram(coeffs, n)
                for b in range(n):
                    assert lehmer_count(CongruenceInstance(coeffs, b, n)) == hist[b]
                    checked += 1
    _report("unrestricted count == exhaustive enumeration (n<=8, k<=4)", checked, t0)


def test_rademacher_brauer_matches_unit_enumeration():
    t0 = perf_counter()
    checked = 0
    for n in range(1, 13):
        for k in range(1, 5):
            hist = unit_histogram(n, k)
            for b in range(n):
                assert rademacher_brauer_count(n, k, b) == hist[b], (n, k, b)
                checked += 1
    _report("unit-coordinate count == exhaustive enumeration (n<=12, k<=4)", checked, t0)


def test_counts_sum_to_injective_tuple_total(exhaustive_grid):
    t0 = perf_counter()
    for coeffs, n, answers in exhaustive_grid:
        counts = answers["brute"]
        assert min(counts) >= 0 and sum(counts) == perm(n, len(coeffs)), (coeffs, n)
    _report("counts summed over b == n(n-1)...(n-k+1) for every vector", len(exhaustive_grid), t0)
