import random
import tracemalloc
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, perm

import pytest

from congcount import congruence, oracle
from congcount.congruence import CongruenceInstance, distinct_count_formula, lehmer_count
from congcount.errors import HypothesisError, ResourceLimitError
from congcount.oracle import (
    all_pairs,
    brute_force_distinct,
    iep_edge_subsets,
    iep_partitions,
    pattern_components,
    pattern_count,
)
from support import (
    _blocks_divisible_sum,
    brute_distinct_histogram,
    component_blocks,
    equal_coefficient_count,
    index_partitions,
    prefix_lookup_count,
    record_calls,
    reference_iep_partitions,
    reference_moebius_expansion,
    two_class_partition_sum,
)

# CLASS_STEP_COST values that force iep_partitions' DP: 0 plans every class DP
# at no cost, and one past the budget plans none under a subset DP's cost
FORCED_KERNELS = {"class": 0, "subset": oracle.PARTITION_STEP_BUDGET + 1}


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
    # the cap is checked before the per-k sign and mask tables are built or looked up
    tables = oracle._edge_subset_signs, oracle._edge_subset_masks
    before = [table.cache_info() for table in tables]
    with pytest.raises(ResourceLimitError):
        iep_edge_subsets(CongruenceInstance((1,) * 6, 0, 7))
    assert [table.cache_info() for table in tables] == before
    for k in range(1, oracle.EDGE_SUBSET_MAX_K + 1):
        iep_edge_subsets(CongruenceInstance((1,) * k, 0, 7))
    assert all(table.cache_info().currsize <= oracle.EDGE_SUBSET_MAX_K for table in tables)


def test_iep_edge_subsets_is_zero_when_k_exceeds_n():
    # pigeonhole answers before the cap, without walking or building a sign or mask table
    tables = oracle._edge_subset_signs, oracle._edge_subset_masks
    before = [table.cache_info() for table in tables]
    for k, n in ((6, 5), (13, 5), (3, 2)):
        stats = {}
        assert iep_edge_subsets(CongruenceInstance((1,) * k, 0, n), stats=stats) == 0
        assert stats == {"edge_subsets": 0, "partitions": 0}
    assert [table.cache_info() for table in tables] == before


def test_iep_edge_subsets_one_lehmer_call_per_merged_gcd_key(monkeypatch):
    # a merged count sees its partition only through l = gcd(block sums, n) and
    # the number of blocks: one lehmer_count call per such key, and every key's
    # summed weight is nonzero, all partitions into m blocks weighing (-1)**(k-m)
    calls = record_calls(monkeypatch, "lehmer_count", oracle)
    cases = [((1, 2, 2, 4, 6), 3, 8), ((1, 2, 3, 4, 5), 0, 12), ((0, 0, 0, 1, 1), 2, 6),
             ((2, 4, 6, 8), 0, 12), ((3, 6, 10), 1, 30), ((5, 5), 0, 10), ((4,), 4, 6)]
    split = 0  # the cases in which partitions of one size fall under two values of l
    for coeffs, b, n in cases:
        k = len(coeffs)
        weights = {}
        for blocks in index_partitions(k):
            key = gcd(n, *[sum(coeffs[i - 1] for i in block) for block in blocks]), len(blocks)
            weight = 1
            for block in blocks:
                weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            weights[key] = weights.get(key, 0) + weight
        assert 0 not in weights.values(), (coeffs, n)
        calls.clear()
        stats = {}
        assert iep_edge_subsets(CongruenceInstance(coeffs, b, n), stats=stats) == (
            brute_distinct_histogram(coeffs, n)[b]
        ), (coeffs, b, n)
        called = sorted((gcd(*call["inst"].coeffs, n), call["inst"].k) for call in calls)
        assert called == sorted(weights), (coeffs, b, n)
        assert stats == {"edge_subsets": 2 ** comb(k, 2), "partitions": len(list(index_partitions(k)))}
        split += len({size for _, size in weights}) < len(weights)
    assert split >= 3


def test_iep_edge_subsets_groups_the_signed_sum_over_every_partition():
    # the grouped sum is the literal one: signed * _merged_count over all Bell(5)
    # partitions, on seeded vectors whose block sums share many gcds with n
    rng = random.Random("edge-subsets:grouped")
    signs = oracle._edge_subset_signs(5)
    for n in (8, 9, 10, 12, 30):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(4):
            coeffs = tuple(rng.choice(divisors) * rng.randrange(n) for _ in range(5))
            for b in range(n):
                inst = CongruenceInstance(coeffs, b, n)
                stats = {}
                literal = sum(signed * oracle._merged_count(inst, blocks) for blocks, signed in signs)
                assert iep_edge_subsets(inst, stats=stats) == literal, (coeffs, b, n)
                assert stats == {"edge_subsets": 2**10, "partitions": 52}


def test_iep_edge_subsets_and_brute_force_match_reference_at_k5():
    rng = random.Random("edge-subsets:5")
    for n, _ in product(range(5, 10), range(2)):
        coeffs = tuple(rng.randrange(n) for _ in range(5))
        for b, reference in enumerate(brute_distinct_histogram(coeffs, n)):
            inst = CongruenceInstance(coeffs, b, n)
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
    # mod 30 the subset sums of (2, 3, 25) have gcds {30, 2, 3, 5}: the
    # closure adds G = 1, without which the expansion would give 572
    stats = {}
    assert iep_partitions(CongruenceInstance((2, 3, 25), 0, 30), stats=stats) == 660
    assert reference_iep_partitions((2, 3, 25), 30)[0] == 660
    assert stats["divisors"] == 4
    # k > n is 0 before any budget: with L = 6 and G = 1, one DP of
    # (3**20 + 1) // 2 steps would already be refused
    stats = {}
    assert iep_partitions(CongruenceInstance((1,) * 19 + (5,), 0, 6), stats=stats) == 0
    assert stats == {"divisors": 0, "dp_steps": 0}


def _class_steps(counts):
    """Steps of the class DP over every composition alpha <= counts, summed state by state.

    A state alpha != 0 costs one step and one per block holding an element of
    its lowest nonzero class i0: alpha_i0 * prod over i > i0 of (alpha_i + 1).
    """
    total = 0
    for alpha in product(*(range(m + 1) for m in counts)):
        if any(alpha):
            i0 = next(i for i, a in enumerate(alpha) if a)
            blocks = alpha[i0]
            for a in alpha[i0 + 1:]:
                blocks *= a + 1
            total += 1 + blocks
    return total


def test_iep_partitions_cap(monkeypatch):
    # each d in the gcd-closure C of the subset sums mod L = gcd(sum, n) with
    # h(d) != 0, other than its least element G, plans the cheaper of a
    # subset DP, (3**k + 1) // 2 steps, and a class DP, CLASS_STEP_COST steps
    # per state and per block over the classes mod d in order of first
    # appearance; here C is every divisor of L and b = 0 keeps every h(d)
    # nonzero.  The plans are summed and weighted by the size of the numbers
    k = 14
    head = tuple(range(1, k))  # sum 91, and the 1 makes every d > 1 run a DP
    for n, last in ((144, 53), (120, 29)):
        coeffs = head + (last,)
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        chosen = []
        for d in divisors:
            counts = {}
            for a in coeffs:
                counts[a % d] = counts.get(a % d, 0) + 1
            chosen.append(min((3**k + 1) // 2, oracle.CLASS_STEP_COST * _class_steps(counts.values())))
        planned = sum(chosen) * (1 + k * (n.bit_length() + k.bit_length()) // oracle.STEP_BITS)
        # small d take the class DP, the large ones the subset DP
        assert min(chosen) < (3**k + 1) // 2 == max(chosen)
        # just under the budget: answered, one DP per divisor
        monkeypatch.setattr(oracle, "PARTITION_STEP_BUDGET", planned)
        stats = {}
        inst = CongruenceInstance(coeffs, 0, n)
        assert iep_partitions(inst, stats=stats) > 0
        assert stats["divisors"] == len(divisors)
        # just over it: refused before any DP
        monkeypatch.setattr(oracle, "PARTITION_STEP_BUDGET", planned - 1)
        subset_calls = record_calls(monkeypatch, "_partition_sum", oracle)
        class_calls = record_calls(monkeypatch, "_class_partition_sum", oracle)
        with pytest.raises(ResourceLimitError, match=f"{len(divisors)} divisors of {n} need {planned} "):
            iep_partitions(inst)
        assert subset_calls == class_calls == []
        monkeypatch.undo()


def test_iep_partitions_needs_no_factoring(monkeypatch):
    # L = 1009 * 1013 would need about 500 trial divisions; the closure of the
    # subset sums' gcds, {1, L}, needs a handful of gcds
    monkeypatch.setattr(oracle, "PARTITION_STEP_BUDGET", 100)
    n = 1009 * 1013
    assert iep_partitions(CongruenceInstance((1, n - 1), 0, n)) == 0
    assert iep_partitions(CongruenceInstance((1, 1), 0, n)) == n - 1


def test_iep_partitions_answers_a_semiprime_gcd():
    # L = n = p * q with both primes above 10**9: trial division would not
    # split it within the budget, and one DP answers
    p, q = 1000000007, 1000000009
    n = p * q
    for b in (0, 1, p, n - 1):
        inst = CongruenceInstance((1, 2, 3, n - 6), b, n)
        stats = {}
        assert iep_partitions(inst, stats=stats) == distinct_count_formula(inst), b
        assert stats["divisors"] == 1
    # {1, 2} sums to p, so the formula refuses; C = {1, p, n} then
    planted = (1, p - 1, 3, n - p - 3)
    for b in (0, 1, p, q, n - 1):
        inst = CongruenceInstance(planted, b, n)
        with pytest.raises(HypothesisError):
            distinct_count_formula(inst)
        assert iep_partitions(inst) == iep_edge_subsets(inst), b


def test_iep_partitions_refuses_one_dp_over_the_budget(monkeypatch):
    # k = 17 once L != G: a subset DP of (3**17 + 1) // 2 steps is over the
    # budget.  Sixteen ones and n - 16 fall in two residue classes, so the
    # class DP answers, in 33 steps; every proper subset sum is a unit, so the
    # formula answers too
    n = 1000000007 * 1000000009
    inst = CongruenceInstance((1,) * 16 + (n - 16,), 0, n)
    stats = {}
    assert iep_partitions(inst, stats=stats) == distinct_count_formula(inst)
    assert stats == {"divisors": 1, "dp_steps": 33}
    # seventeen distinct residues mod a prime: no two meet mod any d above
    # G = 1, so each DP costs what one mod L does, over the budget for either
    # kernel.  Refused before any DP and before the 2**17 subset sums are built
    p = 1000003
    coeffs = tuple(2**i for i in range(16)) + (p - (2**16 - 1),)
    subset_calls = record_calls(monkeypatch, "_partition_sum", oracle)
    class_calls = record_calls(monkeypatch, "_class_partition_sum", oracle)
    one_dp = f"one partition DP over 17 residue classes mod {p} needs {(3**17 + 1) // 2} steps"
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=one_dp):
            iep_partitions(CongruenceInstance(coeffs, 0, p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert subset_calls == class_calls == []
    # G = 1000000007 not dividing b answers 0 with no DP at any k
    stats = {}
    coeffs = (1000000007,) * 16 + (n - 16 * 1000000007,)
    assert iep_partitions(CongruenceInstance(coeffs, 1, n), stats=stats) == 0
    assert stats == {"divisors": 0, "dp_steps": 0}


def test_iep_partitions_refuses_a_closure_over_the_budget(monkeypatch):
    # n = 2**6 3**4 5**2 7**2 11 13 ... 43 and k = 13 seeded coefficients
    # summing to 0 mod n: C has 990 elements, built by 3.4 * 10**5 gcds, and
    # solving h on it takes up to 990**2 divisibility tests more
    n = 2**6 * 3**4 * 5**2 * 7**2 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    rng = random.Random("closure-budget")
    head = [rng.randrange(n) for _ in range(12)]
    inst = CongruenceInstance(tuple(head + [-sum(head) % n]), 0, n)
    calls = record_calls(monkeypatch, "_partition_sum", oracle)
    # at the full budget the plan of DPs is refused instead
    with pytest.raises(ResourceLimitError, match="partition DP steps"):
        iep_partitions(inst)
    # with room for one DP of (3**13 + 1) // 2 steps, but not for the closure
    monkeypatch.setattr(oracle, "PARTITION_STEP_BUDGET", 10**6)
    with pytest.raises(ResourceLimitError, match="gcd-closure .* 1000000 gcds"):
        iep_partitions(inst)
    assert calls == []


def test_iep_partitions_matches_reference_grid(exhaustive_grid, monkeypatch):
    for coeffs, n, answers in exhaustive_grid:
        assert answers["iep-partitions"] == reference_iep_partitions(coeffs, n), (coeffs, n)
    # and with each DP forced in turn
    for kernel, cost in FORCED_KERNELS.items():
        monkeypatch.setattr(oracle, "CLASS_STEP_COST", cost)
        for coeffs, n, answers in exhaustive_grid:
            counts = [iep_partitions(CongruenceInstance(coeffs, b, n)) for b in range(n)]
            assert counts == answers["iep-partitions"], (kernel, coeffs, n)


def _random_vectors(rng, k):
    """Seeded (coeffs, n) pairs: all-zero, L = n, L = 1, n = 720, squarefree n and unclosed gcds."""
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
        n = rng.choice((2310, 30030))
        yield tuple(rng.randrange(n) * rng.choice((1, 2, 3, 5, 7)) for _ in range(k)), n
        # every subset sum of (2, 3, 25) shares a prime with 30 and the rest are
        # multiples of 30, so no gcd(subset sum, L) is 1 while G is: C0 is
        # not closed under gcd
        u = rng.choice([x for x in range(n) if gcd(x, n) == 1])
        coeffs = [2, 3, 25] + [30 * rng.randrange(n) for _ in range(k - 3)]
        rng.shuffle(coeffs)
        yield tuple(u * a % n for a in coeffs), n


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
def test_iep_partitions_matches_reference_random(k, monkeypatch):
    rng = random.Random(f"partitions:{k}")
    for coeffs, n in _random_vectors(rng, k):
        b = rng.choice((0, rng.randrange(n), n // 2, n // 4))
        stats = {}
        inst = CongruenceInstance(coeffs, b, n)
        reference = reference_iep_partitions(coeffs, n)[b]
        assert iep_partitions(inst, stats=stats) == reference
        # the cheaper DP never takes more steps than a subset DP plans
        assert stats["dp_steps"] <= stats["divisors"] * (3**k + 1) // 2
        if gcd(sum(coeffs), n) == 1:
            assert stats == {"divisors": 0, "dp_steps": 0}
        for kernel, cost in FORCED_KERNELS.items():
            monkeypatch.setattr(oracle, "CLASS_STEP_COST", cost)
            assert iep_partitions(inst) == reference, (kernel, coeffs, b, n)
        monkeypatch.undo()


@pytest.mark.parametrize("k", [10, 11, 12])
def test_iep_partitions_matches_moebius_expansion(k, monkeypatch):
    # past the Bell-number reference: the factor-and-Moebius expansion over
    # every divisor of L, which never needs fewer DPs than the closure
    rng = random.Random(f"moebius:{k}")
    for n in (720, 5040, 30030, 9699690):
        head = [rng.randrange(n) * rng.choice((1, 2, 6)) for _ in range(k - 1)]
        for last in (-sum(head) % n, rng.randrange(n)):
            coeffs = (*head, last)
            b = rng.choice((0, rng.randrange(n), n // 2))
            count, dps = reference_moebius_expansion(coeffs, b, n)
            stats = {}
            inst = CongruenceInstance(coeffs, b, n)
            assert iep_partitions(inst, stats=stats) == count
            assert stats["divisors"] <= dps
            for kernel, cost in FORCED_KERNELS.items():
                monkeypatch.setattr(oracle, "CLASS_STEP_COST", cost)
                assert iep_partitions(inst) == count, (kernel, coeffs, b, n)
            monkeypatch.undo()


@pytest.mark.parametrize("k", range(1, 10))
def test_partition_sum_is_the_blocks_divisible_sum_for_every_closure_divisor(k):
    # the kernel on its own: for each d in the gcd-closure C, G and L
    # included, the table wt[S] = (-1)**(|S|-1) (|S|-1)! n [d | sum_S a]
    # gives the top-down recursion's sum, and 2**(|S|-1) steps for each
    # nonempty S with d | sum_S a and none for the other states
    rng = random.Random(f"kernel:{k}")
    for n in (720, 2310, 30030):
        head = [rng.randrange(n) * rng.choice((1, 2, 3, 5, 6)) for _ in range(k - 1)]
        # a last coefficient completing the sum to 0 mod n, so L = n, and a uniform one
        for coeffs in (tuple(head + [-sum(head) % n]), tuple(head + [rng.randrange(n)])):
            sums = [sum(a for i, a in enumerate(coeffs) if S >> i & 1) for S in range(1 << k)]
            ell = gcd(sums[-1], n)
            closure = {gcd(s, ell) for s in sums}
            while (closed := closure | {gcd(x, y) for x in closure for y in closure}) != closure:
                closure = closed
            assert {gcd(*coeffs, n), ell} <= closure
            for d in closure:
                blocks = [S for S in range(1, 1 << k) if sums[S] % d == 0]
                wt = [0] * (1 << k)
                for S in blocks:
                    wt[S] = (-1) ** (S.bit_count() - 1) * factorial(S.bit_count() - 1) * n
                steps = sum(2 ** (S.bit_count() - 1) for S in blocks)
                expected = (_blocks_divisible_sum(coeffs, n, d), steps)
                assert oracle._partition_sum(wt) == expected, (coeffs, n, d)


def _block_row(k, n):
    """[0] + [(-1)**(s-1) (s-1)! n for s = 1..k], the block weights of Z_d."""
    return [0] + [(-1) ** (s - 1) * factorial(s - 1) * n for s in range(1, k + 1)]


def _subset_dp(coeffs, d, n):
    """Z_d of these coefficients by the subset DP, over a table built from every subset's sum."""
    row = _block_row(len(coeffs), n)
    wt = [0] * (1 << len(coeffs))
    for S in range(1, 1 << len(coeffs)):
        if sum(a for i, a in enumerate(coeffs) if S >> i & 1) % d == 0:
            wt[S] = row[S.bit_count()]
    return oracle._partition_sum(wt)[0]


def _first_appearance_classes(coeffs, d):
    """(r, m) pairs of the residues mod d, in order of first appearance, as iep_partitions builds them."""
    classes = {}
    for a in coeffs:
        classes[a % d] = classes.get(a % d, 0) + 1
    return list(classes.items())


def test_class_partition_sum_is_the_subset_dp_exhaustively():
    # every coefficient vector mod d, d <= 6, k <= 6, n in {d, 2d, 3d}: Z_d
    # sees only the multiset, so the subset DP runs once per sorted vector and
    # the class DP once per class order and multiplicities that a vector's
    # first appearances give.  Steps never pass the plan, and meet it when
    # every state is visited (d = 1)
    checked = 0
    for d in range(1, 7):
        for k in range(1, 7):
            for n in (d, 2 * d, 3 * d):
                row = _block_row(k, n)
                subset, by_class = {}, {}
                for coeffs in product(range(d), repeat=k):
                    key = tuple(sorted(coeffs))
                    if key not in subset:
                        subset[key] = _subset_dp(key, d, n)
                    classes = tuple(_first_appearance_classes(coeffs, d))
                    if classes not in by_class:
                        z, steps = oracle._class_partition_sum(classes, d, row)
                        plan = oracle._class_plan([m for _, m in classes])
                        assert steps <= plan and (steps == plan or d > 1), classes
                        by_class[classes] = z
                    assert by_class[classes] == subset[key], (coeffs, d, n)
                    checked += 1
    assert checked == 3 * sum(d**k for d in range(1, 7) for k in range(1, 7))


def test_class_partition_sum_is_the_subset_dp_on_seeded_vectors():
    rng = random.Random("class-kernel")
    for k in range(7, 13):
        for _ in range(6):
            d = rng.choice((2, 3, 4, 5, 6, 8, 10, 12, 30))
            n = d * rng.randint(1, 4)
            # few classes or many, and a full sum d divides or not
            coeffs = [rng.choice((1, 2, d - 1, rng.randrange(d))) % d for _ in range(k)]
            if rng.random() < 0.7:
                coeffs[-1] = (coeffs[-1] - sum(coeffs)) % d
            classes = _first_appearance_classes(coeffs, d)
            rng.shuffle(classes)
            z, steps = oracle._class_partition_sum(classes, d, _block_row(k, n))
            assert z == _subset_dp(coeffs, d, n), (coeffs, d, n)
            assert steps <= oracle._class_plan([m for _, m in classes])


def test_class_partition_sum_matches_the_two_class_closed_form():
    # mod 2: m0 even and m1 odd elements, any even n, up to k = 200; the
    # large k keep one class small, so that the DP stays short
    rng = random.Random("two-classes")
    cases = [(rng.randint(0, 40), rng.randint(0, 40), 2 * rng.randint(1, 40)) for _ in range(120)]
    cases += [(190, 10, 1000), (10, 190, 1000), (196, 4, 400), (0, 200, 2), (0, 200, 400), (200, 0, 2)]
    for m0, m1, n in cases:
        if m0 + m1:
            classes = [(r, m) for r, m in ((0, m0), (1, m1)) if m]
            z, _ = oracle._class_partition_sum(classes, 2, _block_row(m0 + m1, n))
            assert z == two_class_partition_sum(m0, m1, n), (m0, m1, n)


def test_equal_coefficient_count_matches_brute_force():
    # every a, b and n <= 11 with k <= 5: one histogram of the sums of the
    # distinct tuples per (n, k), read at each a
    for n in range(1, 12):
        for k in range(1, 6):
            sums = [0] * n
            for xs in permutations(range(n), k):
                sums[sum(xs) % n] += 1
            for a in range(n):
                hist = [0] * n
                for s, count in enumerate(sums):
                    hist[a * s % n] += count
                assert [equal_coefficient_count(a, k, b, n) for b in range(n)] == hist, (a, k, n)


def test_iep_partitions_counts_one_class_past_the_subset_dp(monkeypatch):
    # k = 17..100 equal coefficients with L = gcd(k a, n) above G = gcd(a, n):
    # one residue class mod every d, so only the class DP answers
    for k, a, n in ((17, 1, 34), (20, 7, 60), (30, 2, 45), (40, 3, 100), (64, 5, 96), (100, 7, 1000)):
        assert gcd(k * a, n) != gcd(a, n)
        for b in (0, 1, 3, n // 2):
            stats = {}
            assert iep_partitions(CongruenceInstance((a,) * k, b, n), stats=stats) == (
                equal_coefficient_count(a, k, b, n)
            ), (k, a, b, n)
            assert stats["divisors"] > 0 or b % gcd(a, n)
    monkeypatch.setattr(oracle, "CLASS_STEP_COST", oracle.PARTITION_STEP_BUDGET + 1)
    with pytest.raises(ResourceLimitError):
        iep_partitions(CongruenceInstance((1,) * 17, 0, 34))


def test_iep_partitions_reaches_few_classes_at_large_k():
    # j ones, l twos and p - j - 2l mod the prime p = 1009 > j + 2l: every
    # proper subset sum is a unit, so the formula answers (p is inside its
    # residue DP's reach at every k here), and the three classes mod p give
    # the class DP, which visits the full state only
    p = 1009
    assert p <= (1 << congruence.SUBSET_CAP) // 101**2
    for k in (17, 20, 30, 40, 60, 100):
        for l in (1, k // 10, k // 8):
            j = k - 1 - l
            inst_coeffs = (1,) * j + (2,) * l + (p - j - 2 * l,)
            for b in (0, 5):
                inst = CongruenceInstance(inst_coeffs, b, p)
                stats = {}
                assert iep_partitions(inst, stats=stats) == distinct_count_formula(inst), (k, l, b)
                assert stats["divisors"] == 1


def test_iep_partitions_makes_no_lehmer_calls(monkeypatch):
    calls = record_calls(monkeypatch, "lehmer_count", oracle, congruence)
    stats = {}
    assert iep_partitions(CongruenceInstance((1, 2, 3, 4, 2), 0, 12), stats=stats) == (
        reference_iep_partitions((1, 2, 3, 4, 2), 12)[0]
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


def test_brute_force_matches_prefix_lookup_at_depth_zero_and_a_root_fold():
    # k = 2 walks its one prefix level with no parent to fold into; at k = 3 the
    # root's loop is the folded last level.  Every vector and every b, n <= 9
    checked = 0
    for k in (2, 3):
        for n in range(k, 10):
            for coeffs in product(range(n), repeat=k):
                for b in range(n):
                    stats = {}
                    inst = CongruenceInstance(coeffs, b, n)
                    count = brute_force_distinct(inst, stats=stats)
                    assert (count, stats) == prefix_lookup_count(coeffs, b, n), (coeffs, b, n)
                    checked += 1
    assert checked == sum(n ** 3 for n in range(2, 10)) + sum(n ** 4 for n in range(3, 10))


def test_brute_force_planted_diagonals():
    # a(k-1) + ak = 0 makes the diagonal count hit every free y at one target
    # and none at the others; ak = 0 puts every value under one residue
    rng = random.Random("brute-diagonal")
    for k in range(2, 7):
        for n in range(k, 10):
            if perm(n, k - 1) > 20_000:
                continue
            for plant in ("opposite", "zero"):
                coeffs = [rng.randrange(n) for _ in range(k)]
                if plant == "opposite":
                    coeffs[-1] = -coeffs[-2] + n * rng.randrange(-1, 2)
                else:
                    coeffs[-1] = n * rng.randrange(-1, 2)
                for b in range(n):
                    stats = {}
                    inst = CongruenceInstance(tuple(coeffs), b, n)
                    count = brute_force_distinct(inst, stats=stats)
                    assert (count, stats) == prefix_lookup_count(coeffs, b, n), (coeffs, b, n)


def test_brute_force_at_k_equal_n():
    # the folded level starts from three free values: x takes one, y another and
    # the last coordinate the third; at n = 2 there is no level to fold
    rng = random.Random("brute-k-equals-n")
    for n in range(2, 8):
        for _ in range(3):
            coeffs = [rng.randrange(n) for _ in range(n)]
            for b in range(n):
                stats = {}
                inst = CongruenceInstance(tuple(coeffs), b, n)
                count = brute_force_distinct(inst, stats=stats)
                assert (count, stats) == prefix_lookup_count(coeffs, b, n), (coeffs, b, n)
                assert stats == {"prefixes": factorial(n), "tuples_evaluated": factorial(n)}
                # every permutation of 0..n-1 is a tuple: the count is the sum
                # over permutations whose weighted sum is b
                assert count == sum(
                    sum(a * x for a, x in zip(coeffs, xs)) % n == b for xs in permutations(range(n))
                )


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
