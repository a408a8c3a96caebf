import random
import time
from itertools import product
from math import factorial, gcd, prod

import pytest

from congcount import arith
from support import reference_factor_partially, trial_division_prime


def test_gcd_many_examples():
    assert arith.gcd_many([2, 4, 6]) == 2
    assert arith.gcd_many([0, 7]) == 7
    assert arith.gcd_many([5, 12]) == 1
    assert arith.gcd_many([9]) == 9
    assert arith.gcd_many([0, 0, 0]) == 0


def test_gcd_many_empty_list_rejected():
    with pytest.raises(ValueError):
        arith.gcd_many([])


def test_gcd_many_permutation_and_sign_invariance_exhaustive():
    # Comparing every list against its canonical form (sorted absolute values)
    # covers all permutations and sign flips transitively.
    for length in range(1, 5):
        for values in product(range(-10, 11), repeat=length):
            canonical = sorted(abs(v) for v in values)
            assert arith.gcd_many(values) == arith.gcd_many(canonical)


def test_factorize_examples():
    assert arith.factorize(1) == []
    assert arith.factorize(12) == [(2, 2), (3, 1)]
    assert arith.factorize(97) == [(97, 1)]
    assert trial_division_prime(97)


def test_factor_partially_counts_candidate_divisors():
    # 37 is the 19th candidate of 2, 3, 5, 7, ...; after it, 39**2 > 41 ends the search
    assert arith.factor_partially(37 * 41, 18) == ([], 37 * 41)
    assert arith.factor_partially(37 * 41, 19) == ([(37, 1), (41, 1)], 1)
    # one division by 2 leaves the prime 3 < 3**2
    assert arith.factor_partially(6, 1) == ([(2, 1), (3, 1)], 1)
    assert arith.factor_partially(1, 0) == ([], 1)
    for n in range(1, 2000):
        assert arith.factor_partially(n, n) == (arith.factorize(n), 1)


def test_factor_partially_keeps_what_it_found():
    # 8 candidates (2, 3, 5, ..., 15) find 2**2 and 3; 17**2 <= 1517 = 37 * 41 stays
    assert arith.factor_partially(12 * 37 * 41, 8) == ([(2, 2), (3, 1)], 37 * 41)
    assert arith.factor_partially(12 * 37 * 41, 19) == ([(2, 2), (3, 1), (37, 1), (41, 1)], 1)
    assert arith.factor_partially(37 * 41, 0) == ([], 37 * 41)
    for n in range(1, 2000):
        pairs, rest = arith.factor_partially(n, 5)
        assert prod(p**e for p, e in pairs) * rest == n
        assert (pairs, rest) == (arith.factorize(n), 1) or rest > 1


def test_factor_partially_matches_the_candidate_loop():
    # the range loop against a plain loop that tries the candidates one at a time
    for n in range(1, 3000):
        for max_trials in range(40):
            assert arith.factor_partially(n, max_trials) == reference_factor_partially(
                n, max_trials
            ), (n, max_trials)
    rng = random.Random(1012)
    for _ in range(20000):
        n = rng.randint(1, 10 ** rng.randint(1, 12))
        max_trials = rng.randint(0, 5000)
        assert arith.factor_partially(n, max_trials) == reference_factor_partially(
            n, max_trials
        ), (n, max_trials)
    # the budget runs out exactly at a candidate d with d * d <= n, or just
    # before the first candidate is needed
    assert arith.factor_partially(9, 1) == ([], 9)
    assert arith.factor_partially(25, 2) == ([], 25)
    assert arith.factor_partially(25, 3) == ([(5, 2)], 1)
    assert arith.factor_partially(4, 0) == ([], 4)
    assert arith.factor_partially(3, 0) == ([(3, 1)], 1)


def test_factorize_rejects_nonpositive():
    for n in (0, -3):
        with pytest.raises(ValueError):
            arith.factorize(n)


def test_factorize_reconstructs_everything_up_to_10000():
    for n in range(1, 10001):
        pairs = arith.factorize(n)
        prod = 1
        for p, e in pairs:
            assert e >= 1
            assert trial_division_prime(p)
            prod *= p ** e
        assert prod == n
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})


def test_euler_phi_examples():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(12) == 4
    assert arith.euler_phi(7) == 6


def test_euler_phi_matches_coprime_count_up_to_500():
    for n in range(1, 501):
        assert arith.euler_phi(n) == sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.euler_phi(0)


def test_falling_factorial_examples():
    assert arith.falling_factorial(5, 3) == 12
    assert arith.falling_factorial(5, 1) == 1
    assert arith.falling_factorial(3, 4) == 0
    # factors <= 0 are kept as a signed product
    assert arith.falling_factorial(0, 2) == -1
    assert arith.falling_factorial(-2, 3) == 12


def test_falling_factorial_rejects_k_below_one():
    with pytest.raises(ValueError):
        arith.falling_factorial(5, 0)


def test_falling_factorial_factorial_quotient():
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert arith.falling_factorial(n, k) == factorial(n - 1) // factorial(n - k)


def test_binomial_examples():
    assert arith.binomial(5, 2) == 10
    assert arith.binomial(7, 0) == 1
    assert arith.binomial(0, 0) == 1
    assert arith.binomial(3, 4) == 0


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        arith.binomial(-1, 2)
    with pytest.raises(ValueError):
        arith.binomial(2, -1)


def test_is_prime_matches_trial_division_below_200000():
    for n in range(-5, 200000):
        assert arith.is_prime(n) == trial_division_prime(n), n


def test_is_prime_refuses_strong_pseudoprimes_to_the_first_bases():
    # the least strong pseudoprimes to the first 4, 11 and 12 primes as bases:
    # each is caught only by a later base of the 13 that is_prime uses
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not arith.is_prime(n), n


def test_is_prime_decides_large_numbers_at_once():
    # trial division took 2.55 s to prove 10000000000000061 prime
    start = time.perf_counter()
    for q in (1000000000039, 10000000000000061):
        assert arith.is_prime(q), q
        assert not arith.is_prime(2 * q) and not arith.is_prime(3 * q), q
    assert time.perf_counter() - start < 0.5
