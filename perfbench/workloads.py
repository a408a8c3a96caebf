"""The four benchmark workloads: seeded generators and output checks.

A workload is a list of decks.  A deck is a short list of calls whose mix
of sizes is fixed (only the seeded values inside change), so any whole
number of decks has the same composition and the latency percentiles land
inside a size class, not on the edge between two.  The run loop cycles
through the decks and always finishes the deck it started.

Generators build instances by construction and never call the library
function being measured; expected values come from reference.py.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Callable

import reference


@dataclass
class Call:
    """One front-end call and how to check what it returns.

    argv calls go through congcount.cli.main with --json --no-timing; their
    output is (exit code, parsed JSON document or None).  fn calls are
    library calls, used only where the CLI has no subcommand; their output is
    the return value.  check(call, output, deck_outputs) says whether the
    output is right; deck_outputs maps each label in the deck to its call's
    output.
    """

    label: str
    check: Callable
    argv: list = None
    fn: Callable = None
    expected: object = None


@dataclass
class Workload:
    name: str
    params: dict
    build: Callable  # (rng, params, package) -> one deck

    def decks(self, seed, package, params=None):
        params = params or self.params
        rng = random.Random(f"{self.name}:{seed}")
        return [self.build(rng, params, package) for _ in range(params["decks"])]


def _deck_sizes(rng, mix):
    """Expand {size: copies} into a shuffled list of sizes."""
    sizes = [size for size, copies in mix.items() for _ in range(copies)]
    rng.shuffle(sizes)
    return sizes


def _count_argv(n, b, coeffs):
    return ["count", "--n", str(n), "--b", str(b), "--coeffs", ",".join(map(str, coeffs)),
            "--json", "--no-timing"]


def _expect_count(method):
    def check(call, output, deck):
        code, doc = output
        return code == 0 and doc["method"] == method and doc["count"] == str(call.expected)
    return check


# --- formula-wide ------------------------------------------------------------


def _random_prime(rng, lo, hi, avoid=()):
    while True:
        p = rng.randint(lo, hi)
        if p not in avoid and reference.is_prime(p):
            return p


def _formula_instance(rng, k, coeff_max, shape):
    """A condition-holding instance, by construction.

    Every prime factor of n exceeds k * coeff_max, so the first k-1
    coefficients (drawn from [1, coeff_max]) and all their subset sums are
    units.  shape bit 0: n = p*q instead of p.  shape bit 1: the last
    coefficient makes the full sum 0 mod p (l = p), otherwise l = 1.  A
    proper subset containing the last coefficient sums to minus a nonempty
    excluded sum mod p, and to at most k * coeff_max mod q, so it is a unit
    too.
    """
    lo = k * coeff_max + 1
    p = _random_prime(rng, lo, 4 * lo)
    q = _random_prime(rng, lo, 4 * lo, avoid=(p,)) if shape & 1 else 1
    n = p * q
    coeffs = [rng.randint(1, coeff_max) for _ in range(k - 1)]
    head = sum(coeffs)
    if shape & 2:
        last_mod_q = rng.randint(1, coeff_max)
        # CRT: last = -head (mod p), last = last_mod_q (mod q)
        last = (-head) % p
        if q > 1:
            last += p * (((last_mod_q - last) * pow(p, -1, q)) % q)
        ell = p
        divides = rng.random() < 0.5
        b = p * rng.randrange(q) + (0 if divides else rng.randint(1, p - 1))
    else:
        last = rng.randint(1, coeff_max)
        ell = 1
        b = rng.randrange(n)
    coeffs.append(last)
    if gcd(sum(coeffs), n) != ell:
        raise RuntimeError(f"generator produced l != {ell} for {coeffs} mod {n}")
    return n, b, coeffs


def _build_formula(rng, params, package):
    deck = []
    for i, k in enumerate(_deck_sizes(rng, params["k_mix"])):
        n, b, coeffs = _formula_instance(rng, k, params["coeff_max"], shape=i % 4)
        call = Call(f"count k={k}", _expect_count("formula"), argv=_count_argv(n, b, coeffs),
                    expected=reference.closed_form(coeffs, b, n))
        deck.append(call)
    return deck


# --- fallback-count ----------------------------------------------------------


def _build_fallback(rng, params, package):
    """Condition-failing instances: n has a prime factor p <= k-1.

    Pigeonhole on the k prefix sums 0, a1, a1+a2, ... of the first k-1
    coefficients mod p makes some proper consecutive block sum to 0 mod p.
    """
    deck = []
    for k in _deck_sizes(rng, params["k_mix"]):
        p = rng.choice([q for q in (2, 3, 5, 7) if q <= k - 1])
        n = p * rng.randint(-(-params["n_min"] // p), params["n_max"] // p)
        coeffs = [rng.randrange(n) for _ in range(k)]
        b = rng.randrange(n)
        call = Call(f"count k={k}", _expect_count("iep-partitions"),
                    argv=_count_argv(n, b, coeffs),
                    expected=reference.distinct_count_by_characters(coeffs, b, n))
        deck.append(call)
    return deck


# --- oracle-grid -------------------------------------------------------------


def _check_compare(call, output, deck):
    code, doc = output
    count, methods = call.expected
    return (code == 0 and doc["agree"] is True and set(doc["results"]) == methods
            and all(v == str(count) for v in doc["results"].values()))


def _build_grid(rng, params, package):
    deck = []
    for n, k in params["cells"]:
        coeffs = [rng.randrange(n) for _ in range(k)]
        counts = reference.distinct_counts_by_residue(coeffs, n)
        methods = {"iep-edges", "iep-partitions", "brute"}
        if reference.condition_holds(coeffs, n):
            methods.add("formula")
        for b in range(n):
            argv = ["oracle-compare", "--n", str(n), "--b", str(b),
                    "--coeffs", ",".join(map(str, coeffs)), "--json", "--no-timing"]
            deck.append(Call(f"compare n={n} k={k}", _check_compare, argv=argv,
                             expected=(counts[b], frozenset(methods))))
    rng.shuffle(deck)
    return deck


# --- tables ------------------------------------------------------------------

# Known totals for the table and series checks; every size used is at most this.
_TOTALS_KMAX = 24


def _conn():
    return reference.connected_graph_totals(_TOTALS_KMAX)


def _by_components():
    return reference.graphs_by_components(_TOTALS_KMAX)


def _rows(output, keys):
    code, doc = output
    if code != 0:
        return None
    return {tuple(row[key] for key in keys): int(row["count"]) for row in doc["rows"]}


def _check_connected_table(kmax):
    def check(call, output, deck):
        table = _rows(output, ("e", "k"))
        if table is None or any(v == 0 for v in table.values()):
            return False
        for k in range(1, kmax + 1):
            col = {e: table.get((e, k), 0) for e in range(comb(k, 2) + 1)}
            if sum(col.values()) != _conn()[k]:
                return False
            # k! [z^k] log(1 + z)
            if sum((-1) ** e * v for e, v in col.items()) != (-1) ** (k - 1) * factorial(k - 1):
                return False
        return sum(1 for e, k in table if k > kmax or e > comb(k, 2)) == 0
    return check


def _check_component_table(kmax):
    t = kmax + 1  # large enough that (1 + z)**t has no zero coefficient up to z**kmax

    def check(call, output, deck):
        table = _rows(output, ("c", "e", "k"))
        if table is None:
            return False
        for k in range(1, kmax + 1):
            for e in range(comb(k, 2) + 1):
                if sum(table.get((c, e, k), 0) for c in range(1, k + 1)) != comb(comb(k, 2), e):
                    return False
            for c in range(1, k + 1):
                total = sum(table.get((c, e, k), 0) for e in range(comb(k, 2) + 1))
                if total != _by_components()[c][k]:
                    return False
            # k! [z^k] (1 + z)**t
            alt = sum((-1) ** e * t ** c * v for (c, e, kk), v in table.items() if kk == k)
            if alt != reference.falling(t, k):
                return False
        return True
    return check


def _check_series_cli(beta, order):
    want = reference.deformed_exp_coefficients(beta, order)

    def check(call, output, deck):
        code, doc = output
        return code == 0 and doc["coefficients"] == want
    return check


def _check_log_graphs(order):
    def check(call, poly, deck):
        return poly.coeff(0) == 0 and all(
            poly.coeff(m) * factorial(m) == _conn()[m] for m in range(1, order + 1))
    return check


def _check_pow_graphs(t, order):
    def check(call, poly, deck):
        return all(
            poly.coeff(m) * factorial(m)
            == sum(t ** c * _by_components()[c][m] for c in range(0, m + 1))
            for m in range(order + 1))
    return check


def _check_bivar_log(z_order, table_label):
    def check(call, grid, deck):
        table = _rows(deck[table_label], ("e", "k"))
        if table is None:
            return False
        y_order = comb(z_order, 2)
        return all(
            grid[e][k] * factorial(k) == (table.get((e, k), 0) if k else 0)
            for e in range(y_order + 1) for k in range(z_order + 1))
    return check


def _check_bivar_pow(z_order, t, table_label):
    def check(call, grid, deck):
        table = _rows(deck[table_label], ("c", "e", "k"))
        if table is None:
            return False
        y_order = comb(z_order, 2)
        for e in range(y_order + 1):
            for k in range(z_order + 1):
                want = (e == 0) if k == 0 else sum(
                    t ** c * table.get((c, e, k), 0) for c in range(1, k + 1))
                if grid[e][k] * factorial(k) != want:
                    return False
        return True
    return check


def _build_tables(rng, params, package):
    series = package.series
    deck = []
    for kmax in params["connected_kmax"]:
        deck.append(Call(f"graph-table --connected {kmax}", _check_connected_table(kmax),
                         argv=["graph-table", "--kmax", str(kmax), "--connected",
                               "--json", "--no-timing"]))
    for kmax in params["full_kmax"]:
        deck.append(Call(f"graph-table {kmax}", _check_component_table(kmax),
                         argv=["graph-table", "--kmax", str(kmax), "--json", "--no-timing"]))
    lo, hi = params["series_order"]
    for _ in range(params["series_calls"]):
        # negative values need the --beta=-1/2 spelling, as documented for --coeffs
        beta = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
        order = rng.randint(lo, hi)
        deck.append(Call("series", _check_series_cli(beta, order),
                         argv=["series", f"--beta={beta}", "--order", str(order),
                               "--json", "--no-timing"]))
    # beta = 2 turns the deformed exponential into the labeled-graph EGF,
    # whose log and powers have known totals.
    for order in params["log_orders"]:
        deck.append(Call("series_log", _check_log_graphs(order),
                         fn=lambda order=order: series.series_log(
                             series.deformed_exp_truncated(2, order), order)))
    lo, hi = params["pow_orders"]
    for _ in range(params["pow_calls"]):
        t, order = rng.randint(2, 5), rng.randint(lo, hi)
        deck.append(Call("series_pow", _check_pow_graphs(t, order),
                         fn=lambda t=t, order=order: series.series_pow(
                             series.deformed_exp_truncated(2, order), t, order)))
    conn_label = f"graph-table --connected {min(params['connected_kmax'])}"
    full_label = f"graph-table {min(params['full_kmax'])}"
    for z_order in params["bivar_log_z"]:
        deck.append(Call("bivar_log", _check_bivar_log(z_order, conn_label),
                         fn=lambda z=z_order: series.bivar_log(
                             series.deformed_exp_bivariate(comb(z, 2), z))))
    for z_order in params["bivar_pow_z"]:
        t = rng.randint(2, 4)
        deck.append(Call("bivar_pow", _check_bivar_pow(z_order, t, full_label),
                         fn=lambda z=z_order, t=t: series.bivar_pow(
                             series.deformed_exp_bivariate(comb(z, 2), z), t)))
    rng.shuffle(deck)
    return deck


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "formula-wide",
            {"k_mix": {12: 16, 13: 10, 14: 7, 15: 4, 16: 2, 17: 1}, "coeff_max": 50, "decks": 4,
             "passes": 6},
            _build_formula,
        ),
        Workload(
            "fallback-count",
            {"k_mix": {6: 24, 7: 16, 8: 13, 9: 6, 10: 1}, "n_min": 40, "n_max": 200, "decks": 3,
             "passes": 3},
            _build_fallback,
        ),
        Workload(
            "oracle-grid",
            {"cells": [(4, 3), (5, 3), (6, 3), (6, 4), (7, 4), (8, 4), (9, 4), (7, 5), (8, 5),
                       (9, 5)], "decks": 8, "passes": 16},
            _build_grid,
        ),
        Workload(
            "tables",
            {"connected_kmax": [12, 14, 16, 18], "full_kmax": [8, 10, 12], "series_calls": 18,
             "series_order": [20, 40], "log_orders": [12, 16, 20], "pow_calls": 2,
             "pow_orders": [12, 20], "bivar_log_z": [6, 7], "bivar_pow_z": [5, 6], "decks": 8,
             "passes": 16},
            _build_tables,
        ),
    )
}
