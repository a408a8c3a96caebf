"""Counting formulas for linear congruences a1*x1 + ... + ak*xk = b (mod n).

Four counters live here:

* lehmer_count        -- unrestricted solutions: l * n**(k-1) when
                         l = gcd(a1, ..., ak, n) divides b, else 0.
* distinct_count_formula -- pairwise-distinct coordinates, in closed form,
                         valid when every nonempty proper subset of the
                         coefficients sums to a unit mod n (formula_count:
                         the same, or None where that fails).
* schoenemann_count   -- the classical prime special case (b = 0, n = p,
                         coefficient sum divisible by p).
* rademacher_brauer_count -- unit coefficients, every coordinate coprime
                         to n, any b.

check_condition decides the subset-sum gcd hypothesis and reports the first
failing subset, smallest size first, then lexicographically.  A subset sum is
a non-unit exactly when a prime p | n divides it, so for each prime a
subset-sum DP over residues mod p finds the first zero-sum subset.  It
decides first and explains only on failure.  The decision (_decide) is trial
division, then one p-bit mask of reachable residues per DP prime (one
rotation per coefficient), which says whether any zero-sum subset exists,
then the scan for a prime left without a DP.  The explanation is the table
of masks per subset size (polynomial in k and p) for each prime whose mask
found a zero sum, which picks that prime's first subset, and the minimum
over the primes.  Each prime whose DP table fits in 2**SUBSET_CAP bits gets
the DP: a prime p >= k when p <= reach = 2**SUBSET_CAP // (k+1)**2, and a
prime p < k, whose table holds only (k+1)(p+1) masks of p bits, when those
bits fit.  Trial division (arith.factor_partially, which tries its odd
candidates as C-level ranges) tries no more candidates than it takes to find
all of them, nor more than k * 2**k: one scanned subset costs about k trial
candidates.  A prime factor of n left without a DP, found past reach or left
in an unfactored cofactor, sends the subsets to a scan too, only those
ordered before the DP primes' first witness if they found one, and at most
2**SUBSET_CAP of them; the decision then builds that witness itself.

distinct_count_formula refuses to answer when the condition fails, since no
closed form is claimed in that regime (the oracle module still counts): it
decides once and explains only when it refuses.  formula_count, the closed
form that the CLI's default count and oracle-compare take, returns None there
instead; it only decides, so it never builds a failing subset.
"""

import itertools
import math
from collections import namedtuple
from operator import index

from .arith import factor_partially, factorize, falling_factorial, is_prime
from .errors import HypothesisError, ResourceLimitError

SUBSET_CAP = 24


def _integer(x):
    """x as an int, through operator.index; a float, string or Fraction is refused."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"coefficients, b and n must be integers, got {x!r}") from None


class CongruenceInstance(namedtuple("CongruenceInstance", "coeffs b n")):
    """One congruence a1*x1 + ... + ak*xk = b (mod n).

    Coefficients, b and n must be integers (anything operator.index takes);
    coefficients and b are reduced into [0, n) on construction; every count
    below depends only on residues, so the reduced form is canonical.
    """

    __slots__ = ()

    def __new__(cls, coeffs, b, n):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        n = _integer(n)
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        return super().__new__(cls, tuple(_integer(a) % n for a in coeffs), _integer(b) % n, n)

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
    prime p | n that trial division finds with p <= reach = 2**SUBSET_CAP //
    (k+1)**2, or with p < k and (k+1) * (p+1) * p <= 2**SUBSET_CAP, gets a
    subset-sum DP over residues mod p: one p-bit mask decides whether p
    divides some subset sum (_has_zero_sum_subset), and only then does a
    table of at most 2**SUBSET_CAP bits pick the first such subset
    (_first_zero_sum_subset).  SUBSET_CAP is read when called.  Trial
    division tries min(k * 2**k, max(reach, k)) candidate divisors, counting
    a scanned subset as k candidates: no more than it takes to find every
    prime up to reach and below k.  A prime factor of n left without a DP,
    found past reach or in an unfactored cofactor, is decided by the subset
    scan: only the subsets before the first DP witness, if there is one,
    else all 2**k - 2; a scan of more than 2**SUBSET_CAP subsets raises
    ResourceLimitError.

    The reported failing subset is the first by size, then lexicographically,
    on either route.  For k = 1 the condition is vacuously true.
    """
    return _report(inst, _decide(inst.coeffs, inst.n))


def _report(inst: CongruenceInstance, decision) -> ConditionReport:
    """A decision explained: the scan's failing subset, else the DP primes' first witness."""
    zero_primes, failing = decision
    failing = failing or _first_dp_witness(inst.coeffs, zero_primes)
    ell = math.gcd(sum(inst.coeffs), inst.n)
    return ConditionReport(failing is None, failing, ell, inst.b % ell == 0)


def _decide(coeffs, n: int) -> tuple[list[int], tuple[int, ...] | None]:
    """Decide the condition without explaining it: (zero_primes, failing).

    zero_primes are the DP primes that divide some nonempty proper subset
    sum.  failing is None unless a prime was left to the scan; then the DP
    primes' first witness is built to bound the scan, and failing is the
    scan's answer, the first failing subset.  The condition holds exactly
    when the result is ([], None).
    """
    k = len(coeffs)
    reach = (1 << SUBSET_CAP) // (k + 1) ** 2
    # reach <= 2**SUBSET_CAP <= k << SUBSET_CAP: this is max(min(k * 2**k, reach), k)
    pairs, rest = factor_partially(n, max(min(k << min(k, SUBSET_CAP), reach), k))
    primes = [  # a prime p < k needs only (k+1) * (p+1) masks of p bits
        p for p, _ in pairs if p <= reach or p < k and (k + 1) * (p + 1) * p <= 1 << SUBSET_CAP
    ]
    zero_primes = [p for p in primes if _has_zero_sum_subset(coeffs, p)]
    if rest == 1 and len(primes) == len(pairs):
        return zero_primes, None
    return zero_primes, _scan_failing_subset(coeffs, n, _first_dp_witness(coeffs, zero_primes))


def _first_dp_witness(coeffs, primes) -> tuple[int, ...] | None:
    """The first by size, then lexicographically, of each prime's first zero-sum subset."""
    witnesses = (_first_zero_sum_subset(coeffs, p) for p in primes)
    return min(witnesses, key=lambda w: (len(w), w), default=None)


def _scan_failing_subset(coeffs, n: int, before=None) -> tuple[int, ...] | None:
    """First failing subset by walking the subsets by size, then lexicographically.

    Only the subsets ordered before `before` are walked, and `before` is
    returned when none of them fails; before=None walks all 2**k - 2.  More
    than 2**SUBSET_CAP subsets to walk raises ResourceLimitError.
    """
    k = len(coeffs)
    todo = 2 ** k - 2 if before is None else _subset_rank(k, before)
    if todo > 1 << SUBSET_CAP:
        # a count past 64 bits is stated by the power of two below it, so the line stays short
        needed = todo if todo < 1 << 64 else f"more than 2**{todo.bit_length() - 1}"
        raise ResourceLimitError(
            f"subset scan would need {needed} gcd checks; cap is 2**{SUBSET_CAP}"
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
    # comb(k - c, size - i) same-size subsets agree before position i and are larger at it
    after = sum(math.comb(k - c, size - i) for i, c in enumerate(subset))
    return sum(math.comb(k, s) for s in range(1, size + 1)) - 1 - after


def _has_zero_sum_subset(coeffs, p: int) -> bool:
    """Whether some nonempty proper subset of coeffs sums to 0 mod p.

    A nonempty proper subset sums to 0 exactly when some nonempty subset of
    coeffs[:-1] sums to 0 or to the full sum (its complement then holds the
    last index and sums to 0), so one p-bit mask of the residues the
    nonempty subsets of coeffs[:-1] reach, one rotation per coefficient,
    decides it.
    """
    mask = (1 << p) - 1
    sums = 0  # bit r: some nonempty subset of the coefficients so far sums to r
    for a in coeffs[:-1]:
        shifted = (sums | 1) << (a % p)  # each sum so far, and the empty sum, plus a
        sums |= (shifted | shifted >> p) & mask
    return bool(sums & (1 | 1 << (sum(coeffs) % p)))


def _first_zero_sum_subset(coeffs, p: int) -> tuple[int, ...] | None:
    """First (by size, then lexicographically) nonempty proper subset summing to 0 mod p.

    None when there is none.  suf[i][s] is a p-bit mask of the residues that
    size-s subsets of coeffs[i:] reach; adding coefficient a rotates a mask
    by a.  Sizes stop at top = min(k-1, p): among any p coefficients some
    nonempty subset sums to 0 mod p (pigeonhole on prefix sums), so no first
    failing subset is larger, and with p < k the table always finds one.
    The subset is built greedily, taking each index whose inclusion still
    lets the later indices complete a zero sum of the chosen size.
    """
    k = len(coeffs)
    mask = (1 << p) - 1
    top = min(k - 1, p)
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

    Requires the subset-sum gcd condition (enforced: HypothesisError carries
    check_condition's report).  With l = gcd(a1 + ... + ak, n),
    P = (n-1)(n-2)...(n-k+1) and [l | b] equal to 1 when l divides b, else 0:

        count = P + (-1)**(k-1) * (k-1)! * (l * [l | b] - 1)

    where l * [l | b] is Lehmer's count of the congruence with every
    coefficient merged into one variable.
    """
    decision = _decide(inst.coeffs, inst.n)
    if decision != ([], None):
        report = _report(inst, decision)
        subset = ", ".join(map(str, report.failing_subset))  # in index order, as check prints it
        raise HypothesisError(
            f"subset-sum gcd condition fails: coefficient subset {{{subset}}} sums to a "
            f"non-unit mod {inst.n}",
            report,
        )
    return _closed_form(inst)


def formula_count(inst: CongruenceInstance) -> int | None:
    """distinct_count_formula's value, or None where the subset-sum gcd condition fails.

    Only decides the condition and never builds a failing subset; a subset
    scan over budget raises ResourceLimitError, as check_condition does.
    """
    return _closed_form(inst) if _decide(inst.coeffs, inst.n) == ([], None) else None


def _closed_form(inst: CongruenceInstance) -> int:
    """The paper's count, for an instance whose subset-sum gcd condition holds."""
    k, n = inst.k, inst.n
    ell = math.gcd(sum(inst.coeffs), n)
    merged = ell * (inst.b % ell == 0)
    value = falling_factorial(n, k) + (-1) ** (k - 1) * math.factorial(k - 1) * (merged - 1)
    if value < 0:
        raise AssertionError(f"negative count {value} for {inst}")
    return value


def schoenemann_count(p: int, coeffs) -> int:
    """Distinct-coordinate count in the classical prime case.

    Preconditions: p prime, sum of coefficients divisible by p, and no
    nonempty proper subset sum divisible by p.  This is distinct_count_formula
    at b = 0, n = p, where l = p divides b, so the value is independent of the
    coefficients:

        (-1)**(k-1) * (k-1)! * (p-1) + (p-1)(p-2)...(p-k+1)
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    coeffs = tuple(coeffs)
    if sum(coeffs) % p != 0:
        raise ValueError("coefficient sum must be divisible by p")
    return distinct_count_formula(CongruenceInstance(coeffs, 0, p))


def rademacher_brauer_count(n: int, k: int, b: int) -> int:
    """Solutions of x1 + ... + xk = b (mod n) with every gcd(xi, n) = 1.

    A product over the prime powers p**e of n, in integers: the count mod p
    is ((p-1)**k + (-1)**k * (p-1)) / p when p divides b, else
    ((p-1)**k - (-1)**k) / p, and each of the e-1 further digits of p**e
    multiplies it by p**(k-1).  A bracket that p does not divide raises
    AssertionError.  For n = 1 the empty product gives 1, the all-zero tuple
    (gcd(0, 1) = 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    value = 1
    for p, e in factorize(n):
        bracket = (p - 1) ** k + (-1) ** k * (p - 1 if b % p == 0 else -1)
        if bracket % p:
            raise AssertionError(f"non-integral count mod {p}: {bracket}/{p}")
        value *= p ** ((e - 1) * (k - 1)) * (bracket // p)
    return value

