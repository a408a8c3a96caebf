"""Counting formulas for linear congruences a1*x1 + ... + ak*xk = b (mod n).

Four counters live here:

* lehmer_count        -- unrestricted solutions: l * n**(k-1) when
                         l = gcd(a1, ..., ak, n) divides b, else 0.
* distinct_count_formula -- pairwise-distinct coordinates, in closed form,
                         valid when every nonempty proper subset of the
                         coefficients sums to a unit mod n.
* schoenemann_count   -- the classical prime special case (b = 0, n = p,
                         coefficient sum divisible by p).
* rademacher_brauer_count -- unit coefficients, every coordinate coprime
                         to n, any b.

check_condition decides the subset-sum gcd hypothesis and reports the first
failing subset, smallest size first, then lexicographically.  A subset sum is
a non-unit exactly when a prime p | n divides it, so for each prime a
subset-sum DP over residues mod p (bitsets per subset size, polynomial in k
and p) finds the first zero-sum subset.  The DP runs for every prime that
trial division finds within its budget and that fits the DP's table; when a
prime is too large for it or a cofactor of n stays unfactored, subsets are
scanned too, only those ordered before the DP primes' first witness if they
found one; SUBSET_CAP bounds the work of both routes.
distinct_count_formula refuses to answer when the condition fails, since no
closed form is claimed in that regime (the oracle module still counts).
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .arith import euler_phi, factor_partially, factorize, falling_factorial, is_prime
from .errors import HypothesisError, ResourceLimitError

SUBSET_CAP = 24


class CongruenceInstance(namedtuple("CongruenceInstance", "coeffs b n")):
    """One congruence a1*x1 + ... + ak*xk = b (mod n).

    Coefficients and b are reduced into [0, n) on construction; every count
    below depends only on residues, so the reduced form is canonical.
    """

    __slots__ = ()

    def __new__(cls, coeffs, b, n):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        return super().__new__(cls, tuple(a % n for a in coeffs), b % n, n)

    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace reduces too

    @property
    def k(self) -> int:
        return len(self.coeffs)


class ConditionReport(namedtuple("ConditionReport", "holds failing_subset full_sum_gcd divides_b")):
    """Verdict and witnesses for the subset-sum gcd condition.

    failing_subset holds 1-based indices of the first (by size, then
    lexicographically) nonempty proper subset whose coefficient sum shares a
    factor with n; it is None exactly when the condition holds.
    full_sum_gcd is gcd(a1 + ... + ak, n) and divides_b says whether it
    divides b.
    """

    __slots__ = ()


def lehmer_count(inst: CongruenceInstance) -> int:
    """Number of unrestricted solutions in Z_n**k.

    With l = gcd(a1, ..., ak, n): l * n**(k-1) solutions if l divides b,
    none otherwise.
    """
    ell = math.gcd(*inst.coeffs, inst.n)
    if inst.b % ell != 0:
        return 0
    return ell * inst.n ** (inst.k - 1)


def check_condition(inst: CongruenceInstance) -> ConditionReport:
    """Decide whether every nonempty proper index subset sums to a unit mod n.

    A sum is a non-unit exactly when some prime p | n divides it, so each
    prime that trial division finds gets a subset-sum DP over residues mod p
    (see _first_zero_sum_subset); the primes it cannot reach are left to a
    subset scan.
    SUBSET_CAP, read when called, bounds the work of either route: trial
    division tries at most min(2**k, 2**SUBSET_CAP // (k+1)) divisors, so it
    never does more steps than the scan; the DP runs for each prime p found
    with (k+1)**2 * p <= 2**SUBSET_CAP, which bounds its table to
    2**SUBSET_CAP bits.  When a cofactor of n stays unfactored, or some prime
    is too large for the DP, subsets are scanned: only those before the first
    DP witness, if there is one, else all 2**k - 2; a scan of more than
    2**SUBSET_CAP subsets raises ResourceLimitError.

    The reported failing subset is the first by size, then lexicographically,
    on either route.  For k = 1 the condition is vacuously true.
    """
    k, n = inst.k, inst.n
    ell = math.gcd(sum(inst.coeffs), n)
    divides_b = inst.b % ell == 0
    budget = 1 << SUBSET_CAP
    # 1 << min(k, SUBSET_CAP) gives the same minimum as 2**k without building 2**k
    pairs, rest = factor_partially(n, min(1 << min(k, SUBSET_CAP), budget // (k + 1)))
    small = [p for p, _ in pairs if (k + 1) ** 2 * p <= budget]
    witnesses = [_first_zero_sum_subset(inst.coeffs, p) for p in small]
    failing = min(
        (w for w in witnesses if w is not None), key=lambda w: (len(w), w), default=None
    )
    if len(small) < len(pairs) or rest > 1:
        failing = _scan_failing_subset(inst.coeffs, n, failing)
    return ConditionReport(failing is None, failing, ell, divides_b)


def _scan_failing_subset(coeffs, n: int, before=None) -> tuple[int, ...] | None:
    """First failing subset by walking the subsets by size, then lexicographically.

    Only the subsets ordered before `before` are walked, and `before` is
    returned when none of them fails; before=None walks all 2**k - 2.  More
    than 2**SUBSET_CAP subsets to walk raises ResourceLimitError.
    """
    k = len(coeffs)
    todo = 2 ** k - 2 if before is None else _subset_rank(k, before)
    if todo > 1 << SUBSET_CAP:
        raise ResourceLimitError(
            f"subset scan would need {todo} gcd checks; cap is 2**{SUBSET_CAP}"
        )
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(1, k + 1), size) for size in range(1, k)
    )
    for subset in itertools.islice(subsets, todo):
        if math.gcd(sum(coeffs[i - 1] for i in subset), n) > 1:
            return subset
    return before


def _subset_rank(k: int, subset: tuple[int, ...]) -> int:
    """Number of nonempty subsets of 1..k ordered before subset by size, then lexicographically."""
    size = len(subset)
    rank = sum(math.comb(k, s) for s in range(1, size))
    prev = 0
    for i, c in enumerate(subset):
        # subsets agreeing before position i and smaller at it
        rank += sum(math.comb(k - v, size - i - 1) for v in range(prev + 1, c))
        prev = c
    return rank


def _first_zero_sum_subset(coeffs, p: int) -> tuple[int, ...] | None:
    """First (by size, then lexicographically) nonempty proper subset summing to 0 mod p.

    suf[i][s] is a p-bit mask of the residues that size-s subsets of coeffs[i:]
    reach; adding coefficient a rotates a mask by a.  Sizes stop at
    min(k-1, p): among any p coefficients some nonempty subset sums to 0 mod p
    (pigeonhole on prefix sums), so no first failing subset is larger.  The
    subset is built greedily, taking each index whose inclusion still lets the
    later indices complete a zero sum of the chosen size.
    """
    k = len(coeffs)
    top = min(k - 1, p)
    mask = (1 << p) - 1
    suf = [None] * (k + 1)
    suf[k] = row = [1] + [0] * top
    for i in range(k - 1, -1, -1):
        a = coeffs[i] % p
        row = [row[0]] + [
            row[s] | ((row[s - 1] << a | row[s - 1] >> (p - a)) & mask) for s in range(1, top + 1)
        ]
        suf[i] = row
    size = next((s for s in range(1, top + 1) if suf[0][s] & 1), None)
    if size is None:
        return None
    subset = []
    residue = 0  # what the indices still to be chosen must sum to, mod p
    for i in range(k):
        left = size - len(subset)
        if not left:
            break
        need = (residue - coeffs[i]) % p
        if suf[i + 1][left - 1] >> need & 1:
            subset.append(i + 1)
            residue = need
    return tuple(subset)


def distinct_count_formula(inst: CongruenceInstance) -> int:
    """Closed-form count of solutions with pairwise-distinct coordinates.

    Requires the subset-sum gcd condition (enforced).  With
    l = gcd(a1 + ... + ak, n) and P = (n-1)(n-2)...(n-k+1):

        count = (-1)**k * (k-1)! + P              if l does not divide b,
        count = (-1)**(k-1) * (k-1)! * (l-1) + P  if l divides b.
    """
    report = check_condition(inst)
    if not report.holds:
        subset = ", ".join(map(str, report.failing_subset))  # in index order, as check prints it
        raise HypothesisError(
            f"subset-sum gcd condition fails: coefficient subset {{{subset}}} sums to a "
            f"non-unit mod {inst.n}",
            report,
        )
    k = inst.k
    ell = report.full_sum_gcd
    base = falling_factorial(inst.n, k)
    fact = math.factorial(k - 1)
    if report.divides_b:
        value = (-1) ** (k - 1) * fact * (ell - 1) + base
    else:
        value = (-1) ** k * fact + base
    if value < 0:
        raise AssertionError(f"negative count {value} for {inst}")
    return value


def schoenemann_count(p: int, coeffs) -> int:
    """Distinct-coordinate count in the classical prime case.

    Preconditions: p prime, sum of coefficients divisible by p, and no
    nonempty proper subset sum divisible by p.  The value is independent of
    the coefficients:

        (-1)**(k-1) * (k-1)! * (p-1) + (p-1)(p-2)...(p-k+1)

    Delegates to distinct_count_formula with b = 0, n = p and checks
    agreement with that closed form.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    coeffs = tuple(coeffs)
    if sum(coeffs) % p != 0:
        raise ValueError("coefficient sum must be divisible by p")
    inst = CongruenceInstance(coeffs, 0, p)
    value = distinct_count_formula(inst)
    k = len(coeffs)
    closed = (-1) ** (k - 1) * math.factorial(k - 1) * (p - 1) + falling_factorial(p, k)
    if value != closed:
        raise AssertionError(f"closed form {closed} != general formula {value}")
    return value


def rademacher_brauer_count(n: int, k: int, b: int) -> int:
    """Solutions of x1 + ... + xk = b (mod n) with every gcd(xi, n) = 1.

    Evaluates phi(n)**k / n times a product over prime divisors p of n:
    factor 1 - (-1)**(k-1) / (p-1)**(k-1) when p divides b, else
    1 - (-1)**k / (p-1)**k.  Exact rational arithmetic throughout; the result
    is checked to be a non-negative integer.  For n = 1 the empty product
    gives 1, the all-zero tuple (gcd(0, 1) = 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    value = Fraction(euler_phi(n) ** k, n)
    for p, _ in factorize(n):
        if b % p == 0:
            value *= 1 - Fraction((-1) ** (k - 1), (p - 1) ** (k - 1))
        else:
            value *= 1 - Fraction((-1) ** k, (p - 1) ** k)
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"non-integral count {value}")
    return int(value)

