"""Independent brute-force oracles shared by the test suite.

Everything here enumerates directly, without reusing the library's recurrence
or inclusion-exclusion code paths, so a test comparing against these helpers
compares two genuinely different routes.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd


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


def brute_distinct_count(coeffs, b, n):
    """Distinct-coordinate solution count by unpruned product enumeration."""
    k = len(coeffs)
    total = 0
    for xs in product(range(n), repeat=k):
        if len(set(xs)) == k and sum(a * x for a, x in zip(coeffs, xs)) % n == b % n:
            total += 1
    return total


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


def reference_iep_partitions(coeffs, b, n):
    """Distinct-coordinate count as the signed sum over all Bell(k) set partitions.

    Each partition merges its blocks' coefficients into one variable per block
    and weighs the merged congruence's unrestricted count
    l * n**(blocks - 1) * [l | b], l = gcd(block sums, n), by
    prod over blocks of (-1)**(|B|-1) (|B|-1)!.
    """
    total = 0
    for blocks in index_partitions(len(coeffs)):
        weight = 1
        ell = n
        for block in blocks:
            weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            ell = gcd(ell, sum(coeffs[i - 1] for i in block))
        if b % ell == 0:
            total += weight * ell * n ** (len(blocks) - 1)
    return total


def trial_division_prime(n):
    """Primality check used to validate factorizations independently."""
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


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
