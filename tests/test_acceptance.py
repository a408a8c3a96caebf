"""End-to-end acceptance checks, one test per shipped guarantee.

Every comparison is an exact integer or rational identity (tolerance zero).
Each test prints one PASS line naming the guarantee and the grid it swept;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

from itertools import product
from math import comb, factorial
from time import perf_counter

from congcount import cli
from congcount.arith import falling_factorial
from congcount.congruence import (
    CongruenceInstance,
    check_condition,
    distinct_count_formula,
    lehmer_count,
    rademacher_brauer_count,
    schoenemann_count,
)
from congcount.graphenum import component_counts
from congcount.oracle import brute_force_distinct, iep_edge_subsets, iep_partitions
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


def _condition_grid(n_range, k_range):
    """Yield (coeffs, n) with coefficients in [1, n]**k passing the gcd condition."""
    for n in n_range:
        for k in k_range:
            for coeffs in product(range(1, n + 1), repeat=k):
                if check_condition(CongruenceInstance(coeffs, 0, n)).holds:
                    yield coeffs, n


def test_formula_matches_brute_force_grid():
    t0 = perf_counter()
    checked = 0
    for coeffs, n in _condition_grid(range(2, 9), range(1, 5)):
        for b in range(n):
            inst = CongruenceInstance(coeffs, b, n)
            value = distinct_count_formula(inst)
            assert value == brute_force_distinct(inst), (coeffs, b, n)
            assert 0 <= value <= n * falling_factorial(n, len(coeffs))
            checked += 1
    assert checked
    _report("closed form == brute force on the full subset-gcd grid (n<=8, k<=4)", checked, t0)


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


def test_edge_subset_inclusion_exclusion_matches_brute_force():
    t0 = perf_counter()
    checked = 0
    for n in range(1, 9):
        for k in range(1, 5):
            for coeffs in product(range(n), repeat=k):
                for b in range(n):
                    inst = CongruenceInstance(coeffs, b, n)
                    reference = brute_force_distinct(inst)
                    assert iep_edge_subsets(inst) == reference, (coeffs, b, n)
                    assert iep_partitions(inst) == reference, (coeffs, b, n)
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


def test_counts_sum_to_injective_tuple_total():
    t0 = perf_counter()
    checked = 0
    for coeffs, n in _condition_grid(range(2, 9), range(1, 5)):
        total = sum(
            distinct_count_formula(CongruenceInstance(coeffs, b, n)) for b in range(n)
        )
        assert total == n * falling_factorial(n, len(coeffs)), (coeffs, n)
        checked += 1
    _report("counts summed over b == n(n-1)...(n-k+1) on the subset-gcd grid", checked, t0)


def test_cli_documented_invocations_reproduce_recorded_output(capsys):
    # the documented transcripts are rows of test_cli.TRANSCRIPTS; here
    # oracle-compare agrees across the whole small grid
    t0 = perf_counter()
    compared = 0
    for n in range(1, 7):
        for k in range(1, 4):
            for coeffs in product(range(n), repeat=k):
                coeff_arg = ",".join(map(str, coeffs))
                for b in range(n):
                    code = cli.main(
                        ["oracle-compare", "--n", str(n), "--b", str(b), "--coeffs", coeff_arg]
                    )
                    assert code == 0, (coeffs, b, n)
                    compared += 1
    capsys.readouterr()
    _report("oracle-compare exits 0, all methods agreeing (n<=6, k<=3)", compared, t0)
