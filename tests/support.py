"""Independent brute-force oracles shared by the test suite, and a call recorder.

Everything here enumerates directly or evaluates a closed form of its own,
without reusing the library's recurrence or inclusion-exclusion code paths,
so a test comparing against these helpers compares two genuinely different
routes.
"""

import inspect
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, perm


def record_calls(monkeypatch, name, *modules):
    """Rebind name in each module to a wrapper that records its calls, then calls the original.

    The original is the first module's binding.  Returns the list of calls, each
    a dict from parameter name to argument, defaults filled in.
    """
    original = getattr(modules[0], name)
    signature = inspect.signature(original)
    calls = []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, recorder)
    return calls


def component_blocks(k, edges):
    """Connected components of the graph on vertices 1..k via depth-first search.

    Blocks are sorted internally and ordered by smallest element.
    """
    adj = {v: [] for v in range(1, k + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    blocks = []
    for start in range(1, k + 1):
        if start in seen:
            continue
        block = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            block.append(v)
            stack.extend(w for w in adj[v] if w not in seen)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def edge_subset_graph_counts(k):
    """Exhaustive graph counts on k labeled vertices over all 2**C(k,2) edge subsets.

    Returns (gprime, g): gprime[e] counts connected graphs with e edges and
    g[(c, e)] counts graphs with c components and e edges.
    """
    pairs = list(combinations(range(1, k + 1), 2))
    gprime = {}
    g = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        c = len(component_blocks(k, edges))
        e = len(edges)
        g[(c, e)] = g.get((c, e), 0) + 1
        if c == 1:
            gprime[e] = gprime.get(e, 0) + 1
    return gprime, g


def alt_sum_connected(gprime, k):
    """sum over e of (-1)**e g'(e, k), summed from a dict keyed (e, k) (not the closed form)."""
    return sum((-1) ** e * gprime.get((e, k), 0) for e in range(comb(k, 2) + 1))


def alt_sum_all(g, k, n):
    """sum over c, e of (-1)**e n**c g(c, e, k), summed from a dict keyed (c, e, k)."""
    return sum(
        (-1) ** e * n ** c * g.get((c, e, k), 0)
        for e in range(comb(k, 2) + 1)
        for c in range(1, k + 1)
    )


def reference_graph_tables(k_max):
    """(gprime, g) dicts of g'(e, k) and g(c, e, k), 1 <= k <= k_max, nonzero entries only.

    The dict recurrence on the component of vertex 1, one entry at a time:
    g'(e, k) is C(C(k,2), e) minus the graphs whose vertex-1 component has
    j < k vertices (its other j-1 vertices chosen, connected on them, anything
    on the rest); g(c, e, k) glues that component to a (c-1)-component graph
    on the rest.  Keys are inserted in (k, e) and (k, c, e) order.
    """
    gp = {}
    for k in range(1, k_max + 1):
        max_e = comb(k, 2)
        for e in range(max_e + 1):
            total = comb(max_e, e)
            for j in range(1, k):
                rest_pairs = comb(k - j, 2)
                for e1 in range(max(0, e - rest_pairs), min(e, comb(j, 2)) + 1):
                    total -= comb(k - 1, j - 1) * gp.get((e1, j), 0) * comb(rest_pairs, e - e1)
            if total:
                gp[(e, k)] = total
    g = {}
    for k in range(1, k_max + 1):
        for e in range(comb(k, 2) + 1):
            if gp.get((e, k), 0):
                g[(1, e, k)] = gp[(e, k)]
        for c in range(2, k + 1):
            for e in range(comb(k, 2) + 1):
                total = 0
                for j in range(1, k - c + 2):
                    for e1 in range(min(e, comb(j, 2)) + 1):
                        total += (
                            comb(k - 1, j - 1)
                            * gp.get((e1, j), 0)
                            * g.get((c - 1, e - e1, k - j), 0)
                        )
                if total:
                    g[(c, e, k)] = total
    return gp, g


def connected_graph_totals(k_max):
    """Connected labeled graphs on k vertices, all edge counts together, k = 0..k_max.

    2**C(k,2) minus the graphs whose vertex-1 component has j < k vertices.
    """
    totals = [1]
    for k in range(1, k_max + 1):
        totals.append(
            2 ** comb(k, 2)
            - sum(comb(k - 1, j - 1) * totals[j] * 2 ** comb(k - j, 2) for j in range(1, k))
        )
    return totals


def brute_distinct_histogram(coeffs, n):
    """Distinct-coordinate solution counts per residue b, by unpruned product enumeration."""
    k = len(coeffs)
    hist = [0] * n
    for xs in product(range(n), repeat=k):
        if len(set(xs)) == k:
            hist[sum(a * x for a, x in zip(coeffs, xs)) % n] += 1
    return hist


def prefix_lookup_count(coeffs, b, n):
    """Distinct-coordinate solution count by permuted prefixes and a residue table.

    Every injective (k-1)-prefix comes from itertools.permutations and has its
    weighted sum recomputed; the last coordinate's admissible values are the
    per-residue count of ak * x at the residue the prefix leaves, less the
    prefix entries with that residue.  Returns (count, stats) with stats
    keyed like brute_force_distinct's: the prefixes as visited, and the
    n - k + 1 last values each prefix decides.  Needs k <= n.
    """
    k = len(coeffs)
    *head, last = coeffs
    residue = [last * x % n for x in range(n)]
    hits = [0] * n
    for r in residue:
        hits[r] += 1
    total = prefixes = 0
    for xs in permutations(range(n), k - 1):
        r = (b - sum(a * x for a, x in zip(head, xs))) % n
        total += hits[r] - [residue[x] for x in xs].count(r)
        prefixes += 1
    return total, {"prefixes": prefixes, "tuples_evaluated": prefixes * (n - k + 1)}


def congruence_histogram(coeffs, n):
    """Counts of unrestricted solutions per residue b.

    Starts from the one empty tuple at residue 0 and, one coefficient a at a
    time, cyclically convolves with the residue counts of a*x over x in Z_n.
    """
    hist = [1] + [0] * (n - 1)
    for a in coeffs:
        step = [0] * n
        for x in range(n):
            step[a * x % n] += 1
        hist = [sum(hist[r] * step[(s - r) % n] for r in range(n)) for s in range(n)]
    return hist


def unit_histogram(n, k):
    """Counts per residue b of x1 + ... + xk over tuples of units mod n."""
    units = [x for x in range(n) if gcd(x, n) == 1]
    hist = [0] * n
    for xs in product(units, repeat=k):
        hist[sum(xs) % n] += 1
    return hist


def reference_condition(coeffs, b, n):
    """The subset-sum gcd condition by walking every nonempty proper subset.

    Subsets go by size, then lexicographically, so the first failing one
    (1-based indices) is the one the library must report.  Returns
    (holds, failing_subset, full_sum_gcd, divides_b).
    """
    k = len(coeffs)
    ell = gcd(sum(coeffs), n)
    for size in range(1, k):
        for subset in combinations(range(1, k + 1), size):
            if gcd(sum(coeffs[i - 1] for i in subset), n) != 1:
                return False, subset, ell, b % ell == 0
    return True, None, ell, b % ell == 0


def reference_zero_sum_subset(coeffs, p):
    """The first nonempty proper subset summing to 0 mod p, by walking every one.

    Subsets go by size, then lexicographically (1-based indices); None when
    no nonempty proper subset sums to 0 mod p.
    """
    k = len(coeffs)
    for size in range(1, k):
        for subset in combinations(range(1, k + 1), size):
            if sum(coeffs[i - 1] for i in subset) % p == 0:
                return subset
    return None


def index_partitions(k):
    """Yield all set partitions of {1..k} as tuples of blocks.

    Blocks appear ordered by smallest element and sorted internally.
    """
    blocks = []

    def place(i):
        if i > k:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        blocks.append([i])
        yield from place(i + 1)
        blocks.pop()

    yield from place(1)


def reference_iep_partitions(coeffs, n):
    """Distinct-coordinate counts for b = 0..n-1 as signed sums over all Bell(k) set partitions.

    Each partition merges its blocks' coefficients into one variable per block
    and weighs the merged congruence's unrestricted count
    l * n**(blocks - 1) * [l | b], l = gcd(block sums, n), by
    prod over blocks of (-1)**(|B|-1) (|B|-1)!.  Only [l | b] depends on b, so
    the weighted counts are summed per l first.
    """
    by_ell = {}
    for blocks in index_partitions(len(coeffs)):
        weight = 1
        ell = n
        for block in blocks:
            weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            ell = gcd(ell, sum(coeffs[i - 1] for i in block))
        by_ell[ell] = by_ell.get(ell, 0) + weight * ell * n ** (len(blocks) - 1)
    return [sum(total for ell, total in by_ell.items() if b % ell == 0) for b in range(n)]


def reference_moebius_expansion(coeffs, b, n):
    """The distinct-coordinate count expanded over every divisor of L = gcd(sum, n).

    count = n**-1 * sum over d | L of g(d) * Z_d, with the Moebius weights
    g(d) = sum over e | d of mu(d/e) * e * [e | b] built from the prime powers
    of L (found by trial division): g(p**j) = p**j [p**j | b] - p**(j-1)
    [p**(j-1) | b].  Z_d = n(n-1)...(n-k+1) when d divides every coefficient;
    otherwise it sums prod over blocks B of (-1)**(|B|-1) (|B|-1)! * n over
    the partitions whose block sums d divides, by a memoised recursion on the
    block holding the highest index.  Returns (count, the number of d | L with
    g(d) != 0 that do not divide every coefficient).  Needs k <= n.
    """
    k = len(coeffs)
    ell = gcd(sum(coeffs), n)
    weighted = [(1, 1)]
    p, rest = 2, ell
    while rest > 1:
        if p * p > rest:
            p = rest
        powers, q = [(1, 1)], 1
        while rest % p == 0:
            rest //= p
            q *= p
            powers.append((q, q * (b % q == 0) - q // p * (b % (q // p) == 0)))
        weighted = [(d * q, w * g) for d, w in weighted for q, g in powers if g]
        p += 1
    total = dps = 0
    for d, g in weighted:
        if all(a % d == 0 for a in coeffs):
            total += g * perm(n, k)
        else:
            total += g * _blocks_divisible_sum(coeffs, n, d)
            dps += 1
    return total // n, dps


def _blocks_divisible_sum(coeffs, n, d):
    """sum over partitions with d | every block sum of prod (-1)**(|B|-1) (|B|-1)! * n.

    Top down: the block holding the highest index of a mask is chosen first,
    and what is left is memoised by its mask.
    """
    block_sum = {0: 0}
    for i, a in enumerate(coeffs):
        block_sum.update({m | 1 << i: s + a for m, s in list(block_sum.items())})

    @lru_cache(maxsize=None)
    def z(mask):
        if not mask:
            return 1
        top = 1 << mask.bit_length() - 1
        others, out, sub = mask ^ top, 0, mask ^ top
        while True:
            block = sub | top
            if block_sum[block] % d == 0:
                size = block.bit_count()
                out += (-1) ** (size - 1) * factorial(size - 1) * n * z(mask ^ block)
            if not sub:
                return out
            sub = (sub - 1) & others

    return z((1 << len(coeffs)) - 1)


def _moebius(t):
    """mu(t) by trial division."""
    mu, p = 1, 2
    while t > 1:
        if p * p > t:
            p = t
        if t % p == 0:
            t //= p
            if t % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def ramanujan_sum(t, s):
    """c_t(s), the sum of the s-th powers of the primitive t-th roots of unity.

    Summed as sum over e | gcd(t, s) of mu(t/e) e.
    """
    g = gcd(t, s)
    return sum(_moebius(t // e) * e for e in range(1, g + 1) if g % e == 0)


def equal_coefficient_count(a, k, b, n):
    """Distinct-coordinate solutions of a*x1 + ... + a*xk = b (mod n), by Ramanujan sums.

    k! times the k-subsets of Z_n whose sum s has a*s = b.  With g = gcd(a, n)
    and m = n/g that needs g | b, and then s = s0 (mod m); by the roots of
    unity filter the k-subsets with s = s0 (mod m) number
    (1/m) sum over t | gcd(m, k) of (-1)**(k + k/t) c_t(s0) C(n/t, k/t)
    (Bibak, Kapron & Srinivasan, Des. Codes Cryptogr., 2018).
    """
    g = gcd(a, n)
    if b % g:
        return 0
    m = n // g
    s0 = b // g * pow(a // g, -1, m) % m if m > 1 else 0
    total = sum(
        (-1) ** (k + k // t) * ramanujan_sum(t, s0) * comb(n // t, k // t)
        for t in range(1, gcd(m, k) + 1)
        if gcd(m, k) % t == 0
    )
    if total % m:
        raise AssertionError(f"{total} is not a multiple of m = {m}")
    return factorial(k) * (total // m)


def two_class_partition_sum(m0, m1, n):
    """Z_2 in closed form: the signed partition sum of m0 even and m1 odd elements, n even.

    Each block of s elements with an even sum weighs (-1)**(s-1) (s-1)! n;
    the sum over set partitions is m0! m1! (-1)**(m1/2) C(n/2, m1/2) C(n - m1, m0)
    when m1 is even and m1 <= n, and 0 otherwise.
    """
    if m1 % 2 or m1 > n:
        return 0
    return factorial(m0) * factorial(m1) * (-1) ** (m1 // 2) * comb(n // 2, m1 // 2) * comb(n - m1, m0)


def trial_division_prime(n):
    """Primality check used to validate factorizations independently."""
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def reference_factor_partially(n, max_trials):
    """arith.factor_partially as one loop over the candidates 2, 3, 5, 7, ...

    Each candidate counts one trial and moves to the next by hand; the same
    pairs and cofactor are what the library must return.
    """
    pairs = []
    d = 2
    trials = 0
    while d * d <= n:
        if trials == max_trials:
            return pairs, n
        trials += 1
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs, 1


# --- reference truncated-series arithmetic ---------------------------------
#
# Grids are indexed [e][m] (y-degree e, z-degree m) and truncated at their
# own shape; a univariate series is a one-row grid.  These follow the
# textbook definitions (Cauchy product, repeated product, the power-sum
# logarithm) rather than the library's squaring and derivative recurrence.


def reference_grid_mul(a, b):
    """Truncated product of two same-shape grids, straight from the Cauchy sum."""
    ey, ez = len(a) - 1, len(a[0]) - 1
    return [
        [
            sum(
                (a[e1][m1] * b[e - e1][m - m1] for e1 in range(e + 1) for m1 in range(m + 1)),
                Fraction(0),
            )
            for m in range(ez + 1)
        ]
        for e in range(ey + 1)
    ]


def reference_grid_pow(a, exponent):
    """a multiplied by itself exponent - 1 times."""
    out = a
    for _ in range(exponent - 1):
        out = reference_grid_mul(out, a)
    return out


def reference_grid_log(a):
    """log a = sum_{j>=1} (-1)**(j+1) q**j / j with q = a - 1.

    a's z-constant column must be exactly 1, so q has no z-constant term and
    q**j vanishes in the grid once j exceeds the z-order.
    """
    ey, ez = len(a) - 1, len(a[0]) - 1
    q = [[a[e][m] - (e == 0 and m == 0) for m in range(ez + 1)] for e in range(ey + 1)]
    out = [[Fraction(0)] * (ez + 1) for _ in range(ey + 1)]
    power = q
    for j in range(1, ez + 1):
        for e in range(ey + 1):
            for m in range(ez + 1):
                out[e][m] += Fraction((-1) ** (j + 1), j) * power[e][m]
        power = reference_grid_mul(power, q)
    return out
