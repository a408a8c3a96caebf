"""Benchmark-side reference values, computed without calling congcount.

Every timed count is checked against one of these.  Each route here is a
different algorithm from the library code it checks, so a fast wrong answer
cannot agree with its own reference by sharing code.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def _mobius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _ramanujan_sum(m: int, b: int) -> int:
    """c_m(b), the sum of e^(2 pi i u b / m) over units u mod m."""
    g = gcd(m, b)
    return sum(_mobius(m // d) * d for d in _divisors(g))


def closed_form(coeffs, b: int, n: int) -> int:
    """The paper's closed form, re-derived from l = gcd(sum of coefficients, n).

    Valid only when every nonempty proper coefficient subset sums to a unit
    mod n; the formula-wide generator guarantees that by construction.
    """
    k = len(coeffs)
    ell = gcd(sum(coeffs), n)
    product = 1
    for j in range(1, k):
        product *= n - j
    if b % ell:
        return (-1) ** k * factorial(k - 1) + product
    return (-1) ** (k - 1) * factorial(k - 1) * (ell - 1) + product


def distinct_counts_by_residue(coeffs, n: int) -> list[int]:
    """Distinct-coordinate solution counts for every b in [0, n), by enumeration."""
    hist = [0] * n
    for xs in permutations(range(n), len(coeffs)):
        hist[sum(a * x for a, x in zip(coeffs, xs)) % n] += 1
    return hist


def distinct_count_by_characters(coeffs, b: int, n: int) -> int:
    """Distinct-coordinate solution count via additive characters.

    Inclusion-exclusion over coordinate-equality partitions, moved to the
    Fourier side: the character at t kills a merged block unless
    (n / gcd(t, n)) divides the block's coefficient sum.  Grouping t by
    m = n / gcd(t, n) gives

        count = (1/n) * sum_{m | n} c_m(b) * Z_m,
        Z_m   = sum over set partitions of prod over blocks B of
                (-1)**(|B|-1) (|B|-1)! * n * [m divides sum_B a],

    with c_m the Ramanujan sum.  Z_m is a subset DP over blocks containing
    the lowest remaining index, O(3**k) per divisor and no Lehmer count.
    """
    k = len(coeffs)
    full = (1 << k) - 1
    sums = [0] * (full + 1)
    sizes = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        i = low.bit_length() - 1
        sums[mask] = sums[mask ^ low] + coeffs[i]
        sizes[mask] = sizes[mask ^ low] + 1
    sign_fact = [0] + [(-1) ** (j - 1) * factorial(j - 1) * n for j in range(1, k + 1)]
    total = 0
    for m in _divisors(n):
        c = _ramanujan_sum(m, b % n)
        if c == 0:
            continue
        weight = [sign_fact[sizes[t]] if sums[t] % m == 0 else 0 for t in range(full + 1)]
        z = [0] * (full + 1)
        z[0] = 1
        for s in range(1, full + 1):
            low = s & -s
            rest = s ^ low
            acc = 0
            t = rest
            while True:
                w = weight[t | low]
                if w:
                    acc += w * z[rest ^ t]
                if t == 0:
                    break
                t = (t - 1) & rest
            z[s] = acc
        total += c * z[full]
    count, remainder = divmod(total, n)
    if remainder:
        raise ArithmeticError(f"character sum {total} not divisible by n = {n}")
    return count


def condition_holds(coeffs, n: int) -> bool:
    """Every nonempty proper coefficient subset sums to a unit mod n."""
    k = len(coeffs)
    return all(
        gcd(sum(subset), n) == 1
        for size in range(1, k)
        for subset in combinations(coeffs, size)
    )


def subsets_before(k: int, failing) -> int:
    """Subsets the size-then-lexicographic scan visits up to and including `failing`.

    `failing` is a sorted tuple of 1-based indices, or None when the scan ran
    to the end (2**k - 2 subsets).
    """
    if failing is None:
        return 2 ** k - 2
    size = len(failing)
    rank = sum(comb(k, j) for j in range(1, size))
    prev = 0
    for pos, idx in enumerate(failing):
        for v in range(prev + 1, idx):
            rank += comb(k - v, size - pos - 1)
        prev = idx
    return rank + 1


def bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@cache
def connected_graph_totals(kmax: int) -> list[int]:
    """Connected labeled graphs on k vertices, k = 0..kmax (1, 1, 1, 4, 38, 728, ...).

    Totals over all edge counts, from 2**C(k,2) minus the graphs whose
    vertex-1 component is smaller than k.
    """
    conn = [1] + [0] * kmax
    for k in range(1, kmax + 1):
        conn[k] = 2 ** comb(k, 2) - sum(
            comb(k - 1, j - 1) * conn[j] * 2 ** comb(k - j, 2) for j in range(1, k)
        )
    return conn


@cache
def graphs_by_components(kmax: int) -> list[list[int]]:
    """G[c][k]: labeled graphs on k vertices with exactly c components, totals over edges."""
    conn = connected_graph_totals(kmax)
    g = [[0] * (kmax + 1) for _ in range(kmax + 1)]
    g[0][0] = 1
    for c in range(1, kmax + 1):
        for k in range(1, kmax + 1):
            g[c][k] = sum(
                comb(k - 1, j - 1) * conn[j] * g[c - 1][k - j] for j in range(1, k + 1)
            )
    return g


def deformed_exp_coefficients(beta: Fraction, order: int) -> list[str]:
    """beta**C(m,2) / m! for m = 0..order, as the CLI prints them."""
    return [str(Fraction(beta) ** comb(m, 2) / factorial(m)) for m in range(order + 1)]


def falling(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1), the number of injective k-tuples from n values."""
    out = 1
    for j in range(k):
        out *= n - j
    return out
