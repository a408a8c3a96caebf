"""Hypothesis-free ground-truth counters for distinct-coordinate solutions.

Three independent routes, all exact:

* brute_force_distinct -- enumerate the distinct tuples directly: the first
                          k-1 coordinates by a depth-first walk carrying the
                          running sum, the last one from a per-residue count
                          of the values the prefix leaves free.
* iep_edge_subsets     -- inclusion-exclusion over all subsets of the C(k,2)
                          possible coordinate equalities: each subset forces
                          its pairs equal, merging coefficients along the
                          connected components of the pattern graph, and the
                          merged congruence is counted by lehmer_count.  The
                          subsets are walked once per k and grouped by
                          component partition, so each call counts one merged
                          congruence per partition.
* iep_partitions       -- the same sum compressed over set partitions: every
                          edge subset inducing the same component partition
                          contributes the same merged count, and the signs
                          collapse to the weight prod (-1)**(|B|-1) (|B|-1)!
                          over blocks B.  Expanding the merged count over the
                          divisors d of gcd(sum of coefficients, n) makes
                          each divisor's partition sum factor block by block,
                          so a subset DP (O(3**k) per divisor) evaluates it
                          without listing the Bell(k) partitions.

None of these require anything of the coefficients, so together they cover
instances the closed form refuses.
"""

import functools
import itertools
import math
from collections.abc import Iterable

from .arith import factor_partially, falling_factorial
from .congruence import CongruenceInstance, lehmer_count
from .errors import ResourceLimitError

# An equality pattern is any iterable of index pairs {u, v}, 1 <= u < v <= k.
EqualityPattern = Iterable[tuple[int, int]]

EDGE_SUBSET_MAX_K = 5
# 0.13-0.19 us a DP step in CPython 3.11 on a 2-core x86 VM: at most about 6 s
PARTITION_STEP_BUDGET = 1 << 25
TUPLE_BUDGET = 10 ** 8


def all_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The C(k, 2) unordered index pairs (u, v), 1 <= u < v <= k, in lex order."""
    return tuple(itertools.combinations(range(1, k + 1), 2))


def pattern_components(k: int, pattern: EqualityPattern) -> tuple[tuple[int, ...], ...]:
    """Connected components of the pattern graph on vertices 1..k.

    Blocks are sorted internally and ordered by smallest element, so the
    partition is canonical.
    """
    # block_of[v] is the sorted block holding v; index 0 is unused
    block_of = [(v,) for v in range(k + 1)]
    for pair in pattern:
        u, v = pair
        if not (1 <= u < v <= k):
            raise ValueError(f"pattern pair {pair!r} is not 1 <= u < v <= {k}")
        if block_of[u] != block_of[v]:
            merged = tuple(sorted(block_of[u] + block_of[v]))
            for x in merged:
                block_of[x] = merged
    # a block first appears at its smallest element
    return tuple(dict.fromkeys(block_of[1:]))


def pattern_count(inst: CongruenceInstance, pattern: EqualityPattern) -> int:
    """Solutions of the congruence with the pattern's pairs forced equal.

    Coordinates in one component of the pattern graph share a variable, so
    the coefficients merge into per-component sums and the reduced congruence
    is counted by lehmer_count.
    """
    return _merged_count(inst, pattern_components(inst.k, pattern))


def _merged_count(inst: CongruenceInstance, blocks) -> int:
    """lehmer_count of the congruence with each block's coefficients merged into one variable."""
    merged = tuple(sum(inst.coeffs[i - 1] for i in block) for block in blocks)
    return lehmer_count(CongruenceInstance(merged, inst.b, inst.n))


def iep_edge_subsets(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """Inclusion-exclusion over every subset of possible coordinate equalities.

    sum over S of (-1)**|S| * pattern_count(inst, S), S ranging over all
    2**C(k,2) subsets of index pairs.  Subsets with the same component
    partition have the same merged count, so the sum is taken as one merged
    lehmer_count per partition, times the signed number of subsets that
    induce it (_edge_subset_signs, walked once per k).  Exact for arbitrary
    coefficients, but the walk is doubly exponential, hence the small cap on
    k; k > n short-circuits to 0 before that cap, without walking.  When a
    dict is passed as stats, the subsets walked for this k are recorded under
    "edge_subsets" and the merged Lehmer counts under "partitions".
    """
    stats = {} if stats is None else stats
    k = inst.k
    if k > inst.n:
        stats["edge_subsets"] = stats["partitions"] = 0
        return 0
    if k > EDGE_SUBSET_MAX_K:
        raise ResourceLimitError(
            f"2**C({k},2) edge subsets is too many; cap is k <= {EDGE_SUBSET_MAX_K}, "
            "iep_partitions counts larger k"
        )
    signs = _edge_subset_signs(k)
    total = sum(signed * _merged_count(inst, blocks) for blocks, signed in signs)
    stats["edge_subsets"] = 2 ** math.comb(k, 2)
    stats["partitions"] = len(signs)
    return total


@functools.cache
def _edge_subset_signs(k: int) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """(partition, sum of (-1)**|S|) over the edge subsets S inducing it.

    Every subset of all_pairs(k) is walked once; partitions are
    pattern_components' canonical form.
    """
    pairs = all_pairs(k)
    signed: dict[tuple[tuple[int, ...], ...], int] = {}
    for size in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            blocks = pattern_components(k, subset)
            signed[blocks] = signed.get(blocks, 0) + (-1) ** size
    return tuple(signed.items())


def iep_partitions(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """The edge-subset inclusion-exclusion compressed over set partitions.

    Every edge subset whose pattern graph has component partition pi
    contributes the same merged Lehmer count l * n**(|pi|-1) * [l | b], with
    l = gcd of the block sums and n, and the signed number of such subsets is
    prod over blocks B of (-1)**(|B|-1) (|B|-1)!.  The partitions are not
    listed: l * [l | b] = sum over d | l of g(d), where
    g(d) = sum over e | d of mu(d/e) * e * [e | b], so

        count = n**-1 * sum over d | n of g(d) * Z_d,
        Z_d = sum over pi of prod over B of (-1)**(|B|-1) (|B|-1)! * n * [d | sum_B a].

    Z_d = 0 unless d divides L = gcd(a1 + ... + ak, n), since the block sums
    add up to the full sum.  Z_d = n(n-1)...(n-k+1) when d divides every
    coefficient, and those d contribute sum over d | G of g(d) = G * [G | b]
    together, G = gcd(a1, ..., ak, n).  Every other d | L with g(d) != 0
    runs a subset DP (_partition_sum) of at most (3**k + 1) // 2 steps.  k > n short-circuits
    to 0.  Refuses (ResourceLimitError) when L does not factor within
    PARTITION_STEP_BUDGET trial divisions or the planned DP steps exceed that
    budget.  When a dict is passed as stats, the DP runs are recorded under
    "divisors" and the submask pairs they visit under "dp_steps".
    """
    stats = {} if stats is None else stats
    k, n, b = inst.k, inst.n, inst.b
    stats["divisors"] = stats["dp_steps"] = 0
    if k > n:
        return 0
    ell = math.gcd(sum(inst.coeffs), n)
    common = math.gcd(*inst.coeffs, n)
    total = n * falling_factorial(n, k) * common * (b % common == 0)
    if ell == common:
        return total // n
    pairs, rest = factor_partially(ell, PARTITION_STEP_BUDGET)
    if rest > 1:
        raise ResourceLimitError(
            f"gcd(sum of coefficients, n) = {ell} does not factor within "
            f"{PARTITION_STEP_BUDGET} trial divisions"
        )
    divisors = [(d, g) for d, g in _moebius_weights(pairs, b) if common % d]
    planned = len(divisors) * (3 ** k + 1) // 2
    if planned > PARTITION_STEP_BUDGET:
        raise ResourceLimitError(
            f"{len(divisors)} divisors of {ell} need {planned} partition DP steps; "
            f"budget is {PARTITION_STEP_BUDGET}"
        )
    for d, g in divisors:
        z, steps = _partition_sum(inst.coeffs, n, d)
        total += g * z
        stats["dp_steps"] += steps
    stats["divisors"] = len(divisors)
    if total % n:
        raise AssertionError(f"partition sum {total} is not a multiple of n for {inst}")
    return total // n


def _moebius_weights(pairs, b: int) -> list[tuple[int, int]]:
    """The divisors d of prod p**e over pairs with g(d) != 0, as (d, g(d)).

    e * [e | b] is multiplicative in e, so g is too, and at a prime power
    g(p**j) = p**j [p**j | b] - p**(j-1) [p**(j-1) | b]: that is
    phi(p**j) when p**j | b, -p**(j-1) when only p**(j-1) | b, and 0 (for j
    and every higher power) when p**(j-1) does not divide b.
    """
    weighted = [(1, 1)]
    for p, e in pairs:
        powers = [(1, 1)]
        for j in range(1, e + 1):
            q = p ** j
            g = q * (b % q == 0) - q // p * (b % (q // p) == 0)
            if not g:
                break
            powers.append((q, g))
        weighted = [(d * q, w * g) for d, w in weighted for q, g in powers]
    return weighted


def _partition_sum(coeffs, n: int, d: int) -> tuple[int, int]:
    """(Z_d, steps): the signed partition sum with every block sum divisible by d.

    z[S] = sum over blocks B with low(S) in B, B subset of S, of
    wt(B) * z[S - B], where wt(B) = (-1)**(|B|-1) (|B|-1)! * n when d divides
    sum_B a and 0 otherwise.  Only states S with d | sum_S a are visited: z
    is 0 on the others, and the rest R = S - B of such a state has
    wt(B) != 0 exactly when d | sum_R a.  A visited S costs 2**(|S|-1) steps,
    one per R, and steps counts them.
    """
    k = len(coeffs)
    full = 1 << k
    residue = [0]
    for a in coeffs:
        residue += [(r + a) % d for r in residue]
    size_weight = [0] * (k + 1)
    for s in range(1, k + 1):
        size_weight[s] = (-1) ** (s - 1) * math.factorial(s - 1) * n
    wt = [0 if r else size_weight[m.bit_count()] for m, r in enumerate(residue)]
    z = [0] * full
    z[0] = 1
    steps = 0
    for S in range(1, full):
        if residue[S]:
            continue
        rest = S & (S - 1)  # S without its lowest index
        steps += 1 << rest.bit_count()
        acc = wt[S]
        R = rest
        while R:
            if z[R]:
                acc += wt[S ^ R] * z[R]
            R = (R - 1) & rest
        z[S] = acc
    return z[full - 1], steps


def brute_force_distinct(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """Count distinct-coordinate solutions by direct enumeration.

    The injective (k-1)-prefixes are walked depth first, in lexicographic
    order, carrying the running target t = b - (prefix sum) mod n and the
    values the prefix leaves free, so each node of the walk costs one
    multiply-add.  The last coordinate must satisfy ak * x = t mod n and
    differ from the prefix.  unused[r], the number of values outside the
    prefix with ak * x = r mod n, is tabled once per call and updated as each
    prefix coordinate is pushed and popped; at the last prefix level each
    free value x, with r = t - a(k-1) * x mod n, completes to unused[r] tuples
    less one when ak * x = r itself.  So each of the n(n-1)...(n-k+1)
    injective tuples is decided, never more than n**k.  With k = 1 there is
    one empty prefix and x is walked directly: n can then be as large as
    TUPLE_BUDGET, and no table of n entries is built.  Refuses
    (ResourceLimitError) when n**k exceeds TUPLE_BUDGET, read when called;
    k > n short-circuits to 0 before that check, without enumerating.
    When a dict is passed as stats, the decided tuples are recorded under
    "tuples_evaluated" and the prefixes, counted as the walk visits them,
    under "prefixes".
    """
    stats = {} if stats is None else stats
    k, n, b = inst.k, inst.n, inst.b
    if k > n:
        stats["tuples_evaluated"] = stats["prefixes"] = 0
        return 0
    if n ** k > TUPLE_BUDGET:
        raise ResourceLimitError(
            f"n**k = {n ** k} exceeds the enumeration budget {TUPLE_BUDGET}"
        )
    *head, last = inst.coeffs
    if not head:
        total = sum(last * x % n == b for x in range(n))
        prefixes = 1
    else:
        *inner, a = head
        depth = len(inner)
        residue = [last * x % n for x in range(n)]
        unused = [0] * n
        for r in residue:
            unused[r] += 1
        total = prefixes = 0

        def walk(level: int, t: int, free: list[int]) -> None:
            nonlocal total, prefixes
            if level == depth:
                prefixes += len(free)
                for x in free:
                    r = (t - a * x) % n
                    total += unused[r] - (residue[x] == r)
                return
            c = inner[level]
            for i, x in enumerate(free):
                unused[residue[x]] -= 1
                walk(level + 1, (t - c * x) % n, free[:i] + free[i + 1:])
                unused[residue[x]] += 1

        walk(0, b, list(range(n)))
    stats["prefixes"] = prefixes
    stats["tuples_evaluated"] = math.perm(n, k)
    return total
