"""Exact integer helpers: gcd, factorization, totient, binomials, falling factorials.

Everything runs on Python's built-in arbitrary-precision integers, so no
overflow or rounding can occur.  Counts produced downstream grow like
l * n**(k-1) and exceed 64 bits quickly, which is why all counting APIs in
this package stick to plain ints.
"""

import math


def gcd_many(values) -> int:
    """Greatest common divisor of one or more integers, ignoring signs.

    gcd of an all-zero list is 0, matching the convention gcd(0, n) = n.
    """
    values = list(values)
    if not values:
        raise ValueError("gcd_many needs at least one value")
    return math.gcd(*values)


def is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin below 3.3 * 10**24, trial division above.

    The strong probable-prime test to the first 13 primes as bases, 2 to
    41, passes no composite below 3317044064679887385961981 (Sorenson and
    Webster 2015), so there it is a proof.  Above that bound trial division
    decides, stopping at the first divisor found; a prime there costs about
    sqrt(n) / 2 trials.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        return all(n % d for d in range(43, math.isqrt(n) + 1, 2))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes increasing.

    Trial division; n = 1 gives the empty list.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    # 2, 3, 5, ..., isqrt(n) are at most isqrt(n) candidates, so this never runs out
    return factor_partially(n, math.isqrt(n))[0]


def factor_partially(n: int, max_trials: int) -> tuple[list[tuple[int, int]], int]:
    """Trial division of n by at most max_trials candidate divisors 2, 3, 5, 7, ...

    Returns the (prime, exponent) pairs found, primes increasing, and the
    cofactor left unfactored: 1 when n is fully factored, which happens as
    soon as d * d exceeds the cofactor (it is then 1 or prime, and a prime is
    listed as a pair).  A cofactor above 1 has only prime factors larger than
    every candidate tried.

    After 2, the odd candidates run as one range at a time, up to the lesser
    of isqrt of the cofactor and the last candidate allowed, 2 * max_trials -
    1; a new range starts only after a factor is found.
    """
    if n < 4:  # 2 * 2 > n: no candidate is tried
        return ([(n, 1)] if n > 1 else []), 1
    if not max_trials:
        return [], n
    pairs = []
    e = (n & -n).bit_length() - 1  # the exponent of 2 in n
    if e:
        n >>= e
        pairs.append((2, e))
    last = 2 * max_trials - 1
    d = 3
    while True:
        for d in range(d, min(math.isqrt(n), last) + 1, 2):
            if n % d == 0:
                break
        else:
            break
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        pairs.append((d, e))
        d += 2
    # no candidate up to min(isqrt(n), last) is left; the next, last + 2, is
    # past the budget and is needed only when its square is still <= n
    if (last + 2) ** 2 <= n:
        return pairs, n
    if n > 1:
        pairs.append((n, 1))
    return pairs, 1


def euler_phi(n: int) -> int:
    """Euler's totient phi(n), computed exactly from the factorization."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def falling_factorial(n: int, k: int) -> int:
    """The product (n-1)(n-2)...(n-k+1); the empty product (k = 1) is 1.

    Factors <= 0 are not rejected: the signed product is returned as-is and
    the caller interprets it.
    """
    if k < 1:
        raise ValueError(f"falling_factorial requires k >= 1, got {k}")
    out = 1
    for j in range(1, k):
        out *= n - j
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n, error on negative input."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)
