import random
import tracemalloc
from itertools import combinations, product
from math import factorial, gcd, perm

import pytest

from congcount import congruence, oracle
from congcount.congruence import CongruenceInstance, lehmer_count
from congcount.errors import ResourceLimitError
from congcount.oracle import (
    all_pairs,
    brute_force_distinct,
    iep_edge_subsets,
    iep_partitions,
    pattern_components,
    pattern_count,
)
from support import (
    brute_distinct_count,
    brute_distinct_histogram,
    component_blocks,
    index_partitions,
    prefix_lookup_count,
    reference_iep_partitions,
)


def test_all_pairs():
    assert all_pairs(3) == ((1, 2), (1, 3), (2, 3))
    assert all_pairs(1) == ()


def test_pattern_components_canonical():
    assert pattern_components(4, [(2, 3)]) == ((1,), (2, 3), (4,))
    assert pattern_components(4, [(1, 2), (3, 4), (2, 3)]) == ((1, 2, 3, 4),)
    assert pattern_components(3, []) == ((1,), (2,), (3,))


def test_pattern_components_matches_depth_first_search_on_random_patterns():
    # repeated pairs and any pair order must give the same canonical partition
    rng = random.Random(20261018)
    for k in range(1, 11):
        pairs = all_pairs(k)
        for _ in range(300):
            pattern = rng.choices(pairs, k=rng.randint(0, 2 * len(pairs)))
            want = component_blocks(k, pattern)
            assert pattern_components(k, pattern) == want, (k, pattern)
            rng.shuffle(pattern)
            assert pattern_components(k, pattern) == want, (k, pattern)


def test_pattern_components_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pattern_components(3, [(2, 1)])
    with pytest.raises(ValueError):
        pattern_components(3, [(1, 4)])
    with pytest.raises(ValueError):
        pattern_components(3, [(2, 2)])


def test_pattern_count_examples():
    inst = CongruenceInstance((1, 1, 3), 0, 5)
    assert pattern_count(inst, ()) == 25
    assert pattern_count(inst, ((1, 2),)) == 5
    assert pattern_count(inst, all_pairs(3)) == 5


def test_pattern_count_full_pattern_is_single_variable_lehmer():
    for n in range(1, 6):
        for k in range(1, 5):
            for coeffs in product(range(n), repeat=k):
                for b in range(n):
                    inst = CongruenceInstance(coeffs, b, n)
                    merged = CongruenceInstance((sum(coeffs),), b, n)
                    assert pattern_count(inst, all_pairs(k)) == lehmer_count(merged)


def test_iep_edge_subsets_examples():
    assert iep_edge_subsets(CongruenceInstance((1, 1, 3), 0, 5)) == 20
    assert iep_edge_subsets(CongruenceInstance((2, 2), 0, 4)) == 4
    # k = 1 has a single empty pattern, so the sum is just the Lehmer count
    for a, b, n in ((3, 0, 6), (2, 1, 4)):
        inst = CongruenceInstance((a,), b, n)
        assert iep_edge_subsets(inst) == lehmer_count(inst)


def test_iep_edge_subsets_cap():
    # the cap is checked before the per-k sign table is built or looked up
    table = oracle._edge_subset_signs
    before = table.cache_info()
    with pytest.raises(ResourceLimitError):
        iep_edge_subsets(CongruenceInstance((1,) * 6, 0, 7))
    assert table.cache_info() == before
    for k in range(1, oracle.EDGE_SUBSET_MAX_K + 1):
        iep_edge_subsets(CongruenceInstance((1,) * k, 0, 7))
    assert table.cache_info().currsize <= oracle.EDGE_SUBSET_MAX_K


def test_iep_edge_subsets_is_zero_when_k_exceeds_n():
    # pigeonhole answers before the cap, without walking or building a sign table
    table = oracle._edge_subset_signs
    before = table.cache_info()
    for k, n in ((6, 5), (13, 5), (3, 2)):
        stats = {}
        assert iep_edge_subsets(CongruenceInstance((1,) * k, 0, n), stats=stats) == 0
        assert stats == {"edge_subsets": 0, "partitions": 0}
    assert table.cache_info() == before


def test_iep_edge_subsets_one_lehmer_call_per_partition(monkeypatch):
    calls = []

    def counting(inst):
        calls.append(inst)
        return lehmer_count(inst)

    monkeypatch.setattr(oracle, "lehmer_count", counting)
    coeffs, b, n = (1, 2, 2, 4, 6), 3, 8
    stats = {}
    assert iep_edge_subsets(CongruenceInstance(coeffs, b, n), stats=stats) == (
        brute_distinct_count(coeffs, b, n)
    )
    assert len(calls) <= 52  # Bell(5), against 2**10 edge subsets
    assert stats == {"edge_subsets": 2**10, "partitions": len(calls)}


def test_iep_edge_subsets_and_brute_force_match_reference_at_k5():
    rng = random.Random("edge-subsets:5")
    for n, _ in product(range(5, 10), range(2)):
        coeffs = tuple(rng.randrange(n) for _ in range(5))
        for b in range(n):
            inst = CongruenceInstance(coeffs, b, n)
            reference = brute_distinct_count(coeffs, b, n)
            edge_stats, brute_stats = {}, {}
            assert iep_edge_subsets(inst, stats=edge_stats) == reference, (coeffs, b, n)
            assert brute_force_distinct(inst, stats=brute_stats) == reference, (coeffs, b, n)
            assert edge_stats == {"edge_subsets": 2**10, "partitions": 52}
            assert brute_stats == {"prefixes": perm(n, 4), "tuples_evaluated": perm(n, 5)}


def test_index_partitions_bell_counts_and_canonical_form():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for k, want in bell.items():
        parts = list(index_partitions(k))
        assert len(parts) == want
        assert len(set(parts)) == want
        for blocks in parts:
            flat = sorted(i for b in blocks for i in b)
            assert flat == list(range(1, k + 1))
            assert list(blocks) == sorted(blocks, key=min)
            for b in blocks:
                assert list(b) == sorted(b)


def test_iep_partitions_examples():
    assert iep_partitions(CongruenceInstance((1, 1, 3), 0, 5)) == 20
    assert iep_partitions(CongruenceInstance((2, 2), 0, 4)) == 4
    assert iep_partitions(CongruenceInstance((1, 1), 0, 2)) == 0
    # k > n is 0 before any factoring or budget: L = 6 would plan three
    # DPs of (3**20 + 1) // 2 steps
    stats = {}
    assert iep_partitions(CongruenceInstance((1,) * 19 + (5,), 0, 6), stats=stats) == 0
    assert stats == {"divisors": 0, "dp_steps": 0}


def test_iep_partitions_cap():
    # the planned steps are (3**k + 1) // 2 per divisor d of L = gcd(sum, n)
    # that does not divide every coefficient; b = 0 keeps every g(d) nonzero
    per_divisor = (3**14 + 1) // 2
    assert 14 * per_divisor <= oracle.PARTITION_STEP_BUDGET < 15 * per_divisor
    head = tuple(range(1, 14))  # sum 91, and the 1 makes every d > 1 run a DP
    # L = 144 has 14 divisors above 1: just under the budget
    stats = {}
    assert iep_partitions(CongruenceInstance(head + (53,), 0, 144), stats=stats) > 0
    assert stats["divisors"] == 14
    assert stats["dp_steps"] <= 14 * per_divisor
    # L = 120 has 15: just over it, refused before any DP
    with pytest.raises(ResourceLimitError, match=str(15 * per_divisor)):
        iep_partitions(CongruenceInstance(head + (29,), 0, 120))


def test_iep_partitions_refuses_unfactored_gcd(monkeypatch):
    # L = 1009 * 1013 needs about 500 trial divisions
    monkeypatch.setattr(oracle, "PARTITION_STEP_BUDGET", 100)
    n = 1009 * 1013
    with pytest.raises(ResourceLimitError, match="factor"):
        iep_partitions(CongruenceInstance((1, n - 1), 0, n))
    # with L = 1 nothing needs factoring
    assert iep_partitions(CongruenceInstance((1, 1), 0, n)) == n - 1


def test_iep_partitions_matches_reference_grid(exhaustive_grid):
    for coeffs, n, answers in exhaustive_grid:
        for b, value in enumerate(answers["iep-partitions"]):
            assert value == reference_iep_partitions(coeffs, b, n), (coeffs, b, n)


def _random_vectors(rng, k):
    """Seeded (coeffs, n) pairs: all-zero, L = n, L = 1, and n = 720."""
    for _ in range(2):
        n = rng.choice((k, 12, 30, 64, 72, 180, 210, rng.randint(k, 60)))
        yield (0,) * k, n
        head = [rng.randrange(n) for _ in range(k - 1)]
        yield tuple(head + [-sum(head) % n]), n
        while True:
            coeffs = tuple(rng.randrange(n) for _ in range(k))
            if gcd(sum(coeffs), n) == 1:
                break
        yield coeffs, n
        # multiples of 6 mod 720 share many divisors with it
        yield tuple(rng.randrange(720) * rng.choice((1, 6)) for _ in range(k)), 720


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
def test_iep_partitions_matches_reference_random(k):
    rng = random.Random(f"partitions:{k}")
    for coeffs, n in _random_vectors(rng, k):
        b = rng.choice((0, rng.randrange(n), n // 2, n // 4))
        stats = {}
        inst = CongruenceInstance(coeffs, b, n)
        assert iep_partitions(inst, stats=stats) == reference_iep_partitions(coeffs, b, n)
        assert stats["dp_steps"] <= stats["divisors"] * (3**k + 1) // 2
        if gcd(sum(coeffs), n) == 1:
            assert stats == {"divisors": 0, "dp_steps": 0}


def test_iep_partitions_makes_no_lehmer_calls(monkeypatch):
    calls = []

    def counting(inst):
        calls.append(inst)
        return lehmer_count(inst)

    monkeypatch.setattr(oracle, "lehmer_count", counting)
    monkeypatch.setattr(congruence, "lehmer_count", counting)
    stats = {}
    assert iep_partitions(CongruenceInstance((1, 2, 3, 4, 2), 0, 12), stats=stats) == (
        reference_iep_partitions((1, 2, 3, 4, 2), 0, 12)
    )
    assert stats["divisors"] > 0
    assert calls == []


def test_partition_weights_compress_edge_subset_signs():
    # Grouping the 2**C(k,2) edge subsets by induced component partition and
    # summing (-1)**|S| must give the cached sign table, and reproduce
    # prod (-1)**(|B|-1) (|B|-1)! per block.
    for k in range(1, oracle.EDGE_SUBSET_MAX_K + 1):
        pairs = list(combinations(range(1, k + 1), 2))
        signed = {}
        for size in range(len(pairs) + 1):
            for subset in combinations(pairs, size):
                blocks = component_blocks(k, subset)
                signed[blocks] = signed.get(blocks, 0) + (-1) ** size
        table = oracle._edge_subset_signs(k)
        assert len(table) == len(dict(table))
        assert dict(table) == signed
        weights = {}
        for blocks in index_partitions(k):
            weight = 1
            for block in blocks:
                weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            weights[blocks] = weight
        assert signed == weights


def test_brute_force_examples():
    assert brute_force_distinct(CongruenceInstance((1, 1, 3), 0, 5)) == 20
    assert brute_force_distinct(CongruenceInstance((1,), 2, 4)) == 1
    # pigeonhole: more coordinates than residues
    assert brute_force_distinct(CongruenceInstance((1,) * 4, 0, 3)) == 0


def test_brute_force_budget_and_accounting(monkeypatch):
    inst = CongruenceInstance((1, 2, 3), 0, 4)
    stats = {}
    brute_force_distinct(inst, stats=stats)
    assert stats["tuples_evaluated"] == perm(4, 3) == 24
    assert stats["tuples_evaluated"] <= 4 ** 3
    monkeypatch.setattr(oracle, "TUPLE_BUDGET", 63)
    with pytest.raises(ResourceLimitError, match="64"):
        brute_force_distinct(inst)
    # k > n short-circuits before any budget or tuple accounting
    monkeypatch.setattr(oracle, "TUPLE_BUDGET", 1)
    stats = {}
    assert brute_force_distinct(CongruenceInstance((1, 1, 1), 0, 2), stats=stats) == 0
    assert stats["tuples_evaluated"] == 0


def test_brute_force_single_coordinate_at_large_n():
    # k = 1 lets n reach the whole budget; a*x = b (mod n) has gcd(a, n)
    # solutions when the gcd divides b and none otherwise.
    n = 10 ** 6
    for a, b in ((3, 0), (250_000, 500_000), (250_000, 1), (0, 0)):
        g = gcd(a, n)
        stats = {}
        assert brute_force_distinct(CongruenceInstance((a,), b, n), stats=stats) == (
            g * (b % g == 0)
        )
        assert stats == {"prefixes": 1, "tuples_evaluated": n}
    # and it needs no table of n entries
    tracemalloc.start()
    try:
        brute_force_distinct(CongruenceInstance((7,), 3, 10 ** 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_brute_force_matches_prefix_lookup_reference():
    # k = 5..7 with n <= 12, where the n**k product enumeration is too slow;
    # the second vector of each cell has ak = 0 mod n and a zero coefficient
    rng = random.Random("brute-walk")
    checked = 0
    for k in range(5, 8):
        for n in range(k, 13):
            if perm(n, k - 1) > 10 ** 5:
                continue
            for zero_last in (False, True):
                coeffs = [rng.randrange(-n, n) for _ in range(k)]
                if zero_last:
                    coeffs[rng.randrange(k - 1)] = 0
                    coeffs[-1] = rng.choice((0, -n, 2 * n))
                b = rng.randrange(-n, 2 * n)
                reference, reference_stats = prefix_lookup_count(coeffs, b, n)
                stats = {}
                inst = CongruenceInstance(tuple(coeffs), b, n)
                assert brute_force_distinct(inst, stats=stats) == reference, (coeffs, b, n)
                assert stats == reference_stats, (coeffs, b, n)
                checked += 1
    assert checked == 36


def test_brute_force_planted_extremes():
    # k = n = 8, all ones: every permutation of 0..7 sums to 28 = 4 (mod 8)
    for b in range(8):
        stats = {}
        count = brute_force_distinct(CongruenceInstance((1,) * 8, b, 8), stats=stats)
        assert count == factorial(8) * (b == 4)
        assert stats == {"prefixes": factorial(8), "tuples_evaluated": factorial(8)}
    # k = 2 at n**k = TUPLE_BUDGET: x1 - x2 = b has n solutions, all distinct
    # unless b = 0, where every solution has x1 = x2
    n = 10 ** 4
    assert n ** 2 == oracle.TUPLE_BUDGET
    for b in (0, 1, 2, n // 2, n - 1):
        stats = {}
        count = brute_force_distinct(CongruenceInstance((1, -1), b, n), stats=stats)
        assert count == n * (b != 0)
        assert stats == {"prefixes": n, "tuples_evaluated": n * (n - 1)}


def test_three_oracles_agree_small_grid(exhaustive_grid):
    for coeffs, n, answers in exhaustive_grid:
        if n <= 6:
            reference = brute_distinct_histogram(coeffs, n)
            for method in ("brute", "iep-edges", "iep-partitions"):
                assert answers[method] == reference, (method, coeffs, n)
