import copy
import pickle
import random
from itertools import permutations, product
from math import gcd, perm

import pytest

from congcount import congruence
from congcount.arith import factorize
from congcount.congruence import (
    CongruenceInstance,
    check_condition,
    distinct_count_formula,
    lehmer_count,
    rademacher_brauer_count,
    schoenemann_count,
)
from congcount.errors import HypothesisError, ResourceLimitError
from congcount.methods import auto_count, distinct_count
from support import (
    brute_distinct_histogram,
    record_calls,
    reference_condition,
    trial_division_prime,
    unit_histogram,
)


def test_instance_reduces_mod_n():
    inst = CongruenceInstance((-1, 7, 3), -4, 5)
    assert inst.coeffs == (4, 2, 3)
    assert inst.b == 1
    assert inst.n == 5
    assert inst.k == 3


def test_instance_validation():
    with pytest.raises(ValueError):
        CongruenceInstance((), 0, 5)
    with pytest.raises(ValueError):
        CongruenceInstance((1,), 0, 0)


def test_instance_is_a_frozen_value():
    inst = CongruenceInstance((1, 1, 3), b=0, n=5)
    assert repr(CongruenceInstance((-1, 7), 8, 5)) == "CongruenceInstance(coeffs=(4, 2), b=3, n=5)"
    with pytest.raises(AttributeError):
        inst.b = 1
    same = CongruenceInstance((6, 11, -2), 5, 5)
    assert same == inst and hash(same) == hash(inst)
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert type(twin) is CongruenceInstance and twin == inst


def test_instance_replace_and_make_reduce():
    inst = CongruenceInstance((1, 1, 3), 0, 5)
    assert inst._replace(b=-1) == CongruenceInstance((1, 1, 3), 4, 5)
    assert CongruenceInstance._make(((6, -1), 7, 5)) == CongruenceInstance((1, 4), 2, 5)
    with pytest.raises(ValueError):
        CongruenceInstance._make(((1,), 0, 0))
    with pytest.raises(ValueError):
        inst._replace(coeffs=())


def test_lehmer_examples():
    assert lehmer_count(CongruenceInstance((2, 4), 2, 6)) == 12
    assert lehmer_count(CongruenceInstance((2, 4), 1, 6)) == 0
    for b, n in ((0, 1), (3, 7), (5, 9)):
        assert lehmer_count(CongruenceInstance((1,), b, n)) == 1


def test_check_condition_examples():
    rep = check_condition(CongruenceInstance((1, 1, 3), 0, 5))
    assert rep.holds and rep.failing_subset is None
    assert rep.full_sum_gcd == 5 and rep.divides_b

    rep = check_condition(CongruenceInstance((2, 4), 1, 6))
    assert not rep.holds
    assert rep.failing_subset == (1,)
    assert rep.full_sum_gcd == 6 and not rep.divides_b

    rep = check_condition(CongruenceInstance((7,), 2, 5))
    assert rep.holds and rep.failing_subset is None  # k = 1 is vacuous
    assert rep.full_sum_gcd == 1


def test_check_condition_reports_first_failure_by_size_then_lex():
    # singletons 1, 2, 4 are all units mod 9; the first failing subset is {1, 2}
    rep = check_condition(CongruenceInstance((1, 2, 4), 0, 9))
    assert rep.failing_subset == (1, 2)


def test_check_condition_subset_cap(monkeypatch):
    # 25 ones mod 101 is answered by the residue DP, far inside the budget
    rep = check_condition(CongruenceInstance((1,) * 25, 0, 101))
    assert rep.holds and rep.failing_subset is None
    # a prime too large for the DP leaves only the 2**25 scan, past the cap
    with pytest.raises(ResourceLimitError, match="24"):
        check_condition(CongruenceInstance((1,) * 25, 0, 1000000007))
    # SUBSET_CAP is read when called and honored both ways: 26**2 * 30011
    # bits fit in 2**26, not in 2**24, and a cap of 3 leaves k = 4 to a
    # refused scan
    with pytest.raises(ResourceLimitError, match="24"):
        check_condition(CongruenceInstance((1,) * 25, 0, 30011))
    monkeypatch.setattr(congruence, "SUBSET_CAP", 26)
    assert check_condition(CongruenceInstance((1,) * 25, 0, 30011)).holds
    monkeypatch.setattr(congruence, "SUBSET_CAP", 3)
    with pytest.raises(ResourceLimitError, match="3"):
        check_condition(CongruenceInstance((1, 1, 1, 1), 0, 5))


def _report_tuple(rep):
    return rep.holds, rep.failing_subset, rep.full_sum_gcd, rep.divides_b


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_check_condition_matches_subset_scan_small_grid(k):
    # Every coefficient vector mod n where n**k <= 30000, else 1000 seeded
    # random ones; b varies with the vector so divides_b takes both values.
    for n in range(1, 31):
        if n**k <= 30000:
            vectors = product(range(n), repeat=k)
        else:
            rng = random.Random(f"{n}:{k}")
            vectors = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(1000)]
        for coeffs in vectors:
            b = (7 * sum(coeffs) + 3) % n
            rep = check_condition(CongruenceInstance(coeffs, b, n))
            assert _report_tuple(rep) == reference_condition(coeffs, b, n), (coeffs, b, n)


def _random_prime(rng, lo, hi):
    while True:
        p = rng.randint(lo, hi)
        if trial_division_prime(p):
            return p


def test_check_condition_matches_subset_scan_random_wide():
    rng = random.Random(2017)
    small = (2, 3, 5, 7, 11, 13, 17, 19)
    for k in range(6, 21):
        # mid primes lie in (k, 2**k); past k = 14 they stay below 4k, so the
        # condition fails early and the reference scan stays short
        mid_hi = 2**k if k <= 14 else 4 * k
        moduli = [
            rng.choice([p for p in small if p <= k - 1]) * _random_prime(rng, k + 1, mid_hi),
            _random_prime(rng, k + 1, mid_hi),
            _random_prime(rng, k + 1, mid_hi) * _random_prime(rng, k + 1, mid_hi),
        ]
        if k <= 12:
            # a prime factor no trial-division budget reaches: the scan route
            big = _random_prime(rng, 10**9, 2 * 10**9)
            moduli += [big, big * rng.choice(small), big * _random_prime(rng, k + 1, 2**k)]
        cases = [(tuple(rng.randrange(n) for _ in range(k)), n) for n in moduli for _ in range(3)]
        if k <= 16:
            # coefficients in [1, 3] against primes above 3k: every proper
            # subset sum is a unit unless the last coefficient cancels a
            # random block of the others, which plants a late witness
            q, r = (_random_prime(rng, 3 * k + 1, 2**k) for _ in range(2))
            n = q * rng.choice((1, r))
            head = [rng.randint(1, 3) for _ in range(k - 1)]
            block = rng.sample(head, rng.randint(1, k - 2))
            cases += [(tuple(head + [rng.randint(1, 3)]), n), (tuple(head + [-sum(block) % n]), n)]
        for coeffs, n in cases:
            b = rng.randrange(n)
            rep = check_condition(CongruenceInstance(coeffs, b, n))
            assert _report_tuple(rep) == reference_condition(coeffs, b, n), (coeffs, b, n)


def test_check_condition_route_rule(monkeypatch):
    scanned = record_calls(monkeypatch, "_scan_failing_subset", congruence)
    cases = [
        # (coeffs, n, scanned): k = 3 tries 8 divisors, which miss 37 in 37 * 41
        ((1, 2, 4), 37, False),
        ((1, 2, 4), 37 * 41, True),
        # k = 25: the DP needs 26**2 * p <= 2**24, i.e. p <= 24818
        ((1, 24808) + (1,) * 23, 24809, False),
        ((1, 24820) + (1,) * 23, 24821, True),
    ]
    for coeffs, n, scan in cases:
        scanned.clear()
        inst = CongruenceInstance(coeffs, 0, n)
        if len(coeffs) > congruence.SUBSET_CAP and scan:
            with pytest.raises(ResourceLimitError):
                check_condition(inst)
        else:
            assert _report_tuple(check_condition(inst)) == reference_condition(coeffs, 0, n)
        shapes = [(len(call["coeffs"]), call["n"]) for call in scanned]
        assert shapes == ([(len(coeffs), n)] if scan else []), (coeffs, n)


def test_check_condition_scans_only_before_dp_witness(monkeypatch):
    # 2 is decided by the residue DP; 1000000007 is too large for it, but the
    # witness {1} leaves no earlier subset to scan
    twos = (2,) * 25
    rep = check_condition(CongruenceInstance(twos, 0, 2000000014))
    assert _report_tuple(rep) == reference_condition(twos, 0, 2000000014)
    assert rep.failing_subset == (1,)
    # cap = 10, k = 11, n = 7 * 1009: 12**2 * 7 <= 2**10 < 12**2 * 1009.  Ten
    # ones and one 2: the witness mod 7 is the first size-6 subset holding
    # the 2, after the 1023 smaller subsets and one or two of size 6
    monkeypatch.setattr(congruence, "SUBSET_CAP", 10)
    n = 7 * 1009
    two_at_7 = (1,) * 6 + (2,) + (1,) * 4
    rep = check_condition(CongruenceInstance(two_at_7, 0, n))
    assert _report_tuple(rep) == reference_condition(two_at_7, 0, n)
    assert rep.failing_subset == (1, 2, 3, 4, 5, 7)  # 1024 = 2**10 subsets scanned
    two_at_8 = (1,) * 7 + (2,) + (1,) * 3
    with pytest.raises(ResourceLimitError, match="1025 gcd checks"):
        check_condition(CongruenceInstance(two_at_8, 0, n))
    # random instances mod p * q with the DP taking the small primes p and
    # the scan the prime q: coefficients that are multiples of q (or
    # complete one) plant scan witnesses before or after the DP's
    monkeypatch.setattr(congruence, "SUBSET_CAP", 16)
    rng = random.Random(4)
    for k in range(6, 12):
        for _ in range(40):
            q = _random_prime(rng, 2000, 3000)
            n = q * rng.choice((2, 3, 5, 7, 11, 13, 6, 10))
            coeffs = [rng.choice((rng.randrange(n), 1, 2)) for _ in range(k)]
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(k)
                coeffs[i] = q * rng.randint(1, 5) if rng.random() < 0.5 else -coeffs[i - 1] % q
            b = rng.randrange(n)
            rep = check_condition(CongruenceInstance(coeffs, b, n))
            assert _report_tuple(rep) == reference_condition(tuple(coeffs), b, n), (coeffs, n)


def test_check_condition_runs_the_dp_for_primes_found_before_an_unfactored_cofactor(
    monkeypatch,
):
    # n = s * q * r with q, r primes above every trial divisor, so trial
    # division finds the primes of s and leaves q * r; those primes still get
    # the residue DP, and the scan stops at its witness
    first_zero_sum = congruence._first_zero_sum_subset
    dp_calls = record_calls(monkeypatch, "_first_zero_sum_subset", congruence)
    scans = record_calls(monkeypatch, "_scan_failing_subset", congruence)
    rng = random.Random(5)
    for k in range(2, 10):
        # 2**k candidates reach no further than 2**(k+1) + 1
        lo, hi = 2 ** (k + 2), 2 ** (k + 3)
        for _ in range(30):
            q, r = _random_prime(rng, lo, hi), _random_prime(rng, lo, hi)
            s = rng.choice((1, 2, 3, 5, 6, 7, 10, 12, 30))
            n = s * q * r
            coeffs = [rng.choice((rng.randrange(n), 1, 2, 3, q, q * r)) for _ in range(k)]
            b = rng.randrange(n)
            dp_calls.clear()
            scans.clear()
            rep = check_condition(CongruenceInstance(coeffs, b, n))
            assert _report_tuple(rep) == reference_condition(tuple(coeffs), b, n), (coeffs, n)
            dp_primes = [call["p"] for call in dp_calls]
            assert dp_primes == [p for p, _ in factorize(s)], (coeffs, n)
            witnesses = [first_zero_sum(coeffs, p) for p in dp_primes]
            found = [w for w in witnesses if w is not None]
            first = min(found, key=lambda w: (len(w), w), default=None)
            assert [call["before"] for call in scans] == [first], (coeffs, n)


def test_formula_examples():
    assert distinct_count_formula(CongruenceInstance((1, 1, 3), 0, 5)) == 20
    assert distinct_count_formula(CongruenceInstance((1, 1, 3), 1, 5)) == 10
    assert distinct_count_formula(CongruenceInstance((3,), 4, 6)) == 0


def test_formula_refuses_when_condition_fails():
    with pytest.raises(HypothesisError) as excinfo:
        distinct_count_formula(CongruenceInstance((2, 4), 1, 6))
    assert excinfo.value.report.failing_subset == (1,)


def test_formula_equals_lehmer_for_single_variable():
    for n in range(1, 21):
        for a in range(n):
            for b in range(n):
                inst = CongruenceInstance((a,), b, n)
                assert distinct_count_formula(inst) == lehmer_count(inst)


def test_formula_depends_only_on_coefficient_sum():
    for coeffs in ((1, 1, 3), (2, 2, 4)):
        for n, b in ((5, 0), (5, 2), (7, 3)):
            reference = distinct_count_formula(CongruenceInstance(coeffs, b, n))
            for perm in permutations(coeffs):
                assert distinct_count_formula(CongruenceInstance(perm, b, n)) == reference


def test_formula_agrees_with_enumeration_small_grid():
    for n in range(2, 7):
        for k in range(1, 4):
            for coeffs in product(range(1, n + 1), repeat=k):
                if not check_condition(CongruenceInstance(coeffs, 0, n)).holds:
                    continue
                for b, reference in enumerate(brute_distinct_histogram(coeffs, n)):
                    assert distinct_count_formula(CongruenceInstance(coeffs, b, n)) == reference


def _subset_condition_vector_exists(n, k):
    # Depth-first search over coefficient residues 1..n with pruning: every
    # nonempty subset of a proper prefix must stay coprime to n; at full depth
    # the all-indices sum (last entry) is exempt.  sums[-1] is always the sum
    # of the whole prefix.
    def rec(sums, depth):
        if depth == k:
            return True
        for a in range(1, n + 1):
            new_sums = [a] + [s + a for s in sums]
            check = new_sums[:-1] if depth + 1 == k else new_sums
            if all(gcd(s, n) == 1 for s in check):
                if rec(new_sums, depth + 1):
                    return True
        return False

    return rec([], 0)


def test_subset_search_agrees_with_check_condition_small():
    for n in range(2, 7):
        for k in range(1, 4):
            found = any(
                check_condition(CongruenceInstance(coeffs, 0, n)).holds
                for coeffs in product(range(1, n + 1), repeat=k)
            )
            assert found == _subset_condition_vector_exists(n, k)


def test_condition_forces_k_at_most_smallest_prime_factor():
    # For k >= 2 the condition can only hold when k <= every prime factor of
    # n; exhaustively confirmed (via the pruned search) for n <= 30, k <= 6.
    for n in range(2, 31):
        spf = min(p for p, _ in factorize(n))
        for k in range(2, 7):
            if k > spf:
                assert not _subset_condition_vector_exists(n, k), (n, k)


def test_schoenemann_examples():
    assert schoenemann_count(5, (1, 1, 3)) == 20
    assert schoenemann_count(3, (1, 2)) == 0
    assert schoenemann_count(7, (1, 6)) == 0
    assert schoenemann_count(5, (1, 1, 3)) == brute_distinct_histogram((1, 1, 3), 5)[0]


def test_schoenemann_preconditions():
    with pytest.raises(ValueError):
        schoenemann_count(6, (1, 5))  # not prime
    with pytest.raises(ValueError):
        schoenemann_count(5, (1, 1))  # sum not divisible by p
    with pytest.raises(HypothesisError):
        schoenemann_count(5, (5, 2, 3))  # a proper subset sum is 0 mod p


def test_rademacher_brauer_examples():
    assert rademacher_brauer_count(3, 2, 1) == 1
    assert rademacher_brauer_count(3, 2, 0) == 2
    assert rademacher_brauer_count(4, 1, 3) == 1


def test_rademacher_brauer_degenerate_modulus_one():
    for k in range(1, 4):
        assert rademacher_brauer_count(1, k, 0) == 1


def test_rademacher_brauer_validation():
    with pytest.raises(ValueError):
        rademacher_brauer_count(0, 2, 1)
    with pytest.raises(ValueError):
        rademacher_brauer_count(5, 0, 1)


def test_rademacher_brauer_matches_enumeration_small():
    for n in range(1, 11):
        for k in range(1, 4):
            hist = unit_histogram(n, k)
            for b in range(n):
                assert rademacher_brauer_count(n, k, b) == hist[b]
    # negative b reduces the same way
    assert rademacher_brauer_count(9, 2, -5) == rademacher_brauer_count(9, 2, 4)


def test_distinct_count_dispatch():
    inst = CongruenceInstance((1, 1, 3), 0, 5)
    for method in ("formula", "iep-edges", "iep-partitions", "brute"):
        assert distinct_count(inst, method) == 20
    assert distinct_count(CongruenceInstance((2, 2), 0, 4), "brute") == 4
    with pytest.raises(ValueError):
        distinct_count(inst, "magic")


def test_auto_count_routes():
    assert auto_count(CongruenceInstance((1,) * 6, 0, 5)) == (0, "pigeonhole")
    assert auto_count(CongruenceInstance((1, 1, 3), 0, 5)) == (20, "formula")
    # (2, 2) mod 4: the singleton {1} sums to 2, a non-unit
    inst = CongruenceInstance((2, 2), 0, 4)
    with pytest.raises(HypothesisError):
        distinct_count_formula(inst)
    assert auto_count(inst) == (4, "iep-partitions")
    # 25 ones mod the prime 1000000007: too large for the residue DP, and the
    # 2**25 - 2 subset scan is past the default cap
    inst = CongruenceInstance((1,) * 25, 0, 1000000007)
    with pytest.raises(ResourceLimitError):
        distinct_count_formula(inst)
    assert auto_count(inst) == (perm(1000000006, 24), "iep-partitions")
