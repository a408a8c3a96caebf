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
                          component partition, and the partitions by the two
                          things their merged count sees (the gcd of the
                          block sums with n, and the number of blocks), so
                          each call counts one merged congruence per group.
* iep_partitions       -- the same sum compressed over set partitions: every
                          edge subset inducing the same component partition
                          contributes the same merged count, and the signs
                          collapse to the weight prod (-1)**(|B|-1) (|B|-1)!
                          over blocks B.  A merged count sees its partition
                          only through l = gcd(block sums, n), which lies in
                          the gcd-closure C of the subset sums' gcds with
                          L = gcd(sum of coefficients, n), the sums built
                          from the coefficients' residue classes mod L.
                          Expanding it over C makes each d's partition sum
                          factor block by block, so one DP per d evaluates it
                          without listing the Bell(k) partitions or factoring
                          n: a subset DP (O(3**k)), or a DP over compositions
                          of the residue classes mod d (polynomial in k for a
                          fixed number of classes), whichever plans fewer
                          steps.

None of these require anything of the coefficients, so together they cover
instances the closed form refuses.
"""

import functools
import itertools
import math

from .arith import falling_factorial
from .congruence import CongruenceInstance, lehmer_count
from .errors import ResourceLimitError

EDGE_SUBSET_MAX_K = 5
# iep_partitions plans its DPs in subset-DP steps, 0.05-0.1 us each on small
# numbers (CPython 3.11, 2-core x86 VM).  A class-DP step, one per state and
# one per block (_class_plan), weighs 7 of them: fit on 422 DPs of k = 6..14,
# d = 2..30 instances, the choice then took 8% more time than always running
# the faster DP, and ran the slower one by more than 5% only 5 times, by at
# most 14 us.  A step on numbers of B bits took up to about 1 + B / 1024
# small-number steps.  The slowest DPs found inside the budget took about
# 1.1 s (subset, k = 16, d = 2) and 0.2 s (class).
PARTITION_STEP_BUDGET = 1 << 25
CLASS_STEP_COST = 7
STEP_BITS = 1024
TUPLE_BUDGET = 10 ** 8


def all_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The C(k, 2) unordered index pairs (u, v), 1 <= u < v <= k, in lex order."""
    return tuple(itertools.combinations(range(1, k + 1), 2))


def pattern_components(k: int, pattern) -> tuple[tuple[int, ...], ...]:
    """Connected components of the pattern graph on vertices 1..k.

    The pattern is any iterable of index pairs (u, v), 1 <= u < v <= k.
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


def pattern_count(inst: CongruenceInstance, pattern) -> int:
    """Solutions of the congruence with the pattern's pairs forced equal.

    Coordinates in one component of the pattern graph share a variable, so
    the coefficients merge into per-component sums and the reduced congruence
    is counted by lehmer_count.
    """
    return _merged_count(inst, pattern_components(inst.k, pattern))


def _merged_count(inst: CongruenceInstance, blocks) -> int:
    """lehmer_count of the congruence with each block's coefficients merged into one variable."""
    coeffs = inst.coeffs
    merged = [sum([coeffs[i - 1] for i in block]) for block in blocks]
    return lehmer_count(CongruenceInstance(merged, inst.b, inst.n))


def iep_edge_subsets(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """Inclusion-exclusion over every subset of possible coordinate equalities.

    sum over S of (-1)**|S| * pattern_count(inst, S), S ranging over all
    2**C(k,2) subsets of index pairs.  Subsets with the same component
    partition have the same merged count, so each partition is weighted by
    the signed number of subsets that induce it (_edge_subset_signs, walked
    once per k).  A merged count l * n**(blocks-1) * [l | b] sees its
    partition only through l = gcd(block sums, n) and its number of blocks,
    so the weights are summed per such key, each block sum read by bitmask
    from one table of the 2**k subset sums, and one merged lehmer_count is
    taken per key, on a partition of that key.  No key's total is 0: every
    partition into m blocks is weighted with the sign (-1)**(k-m).  Exact
    for arbitrary coefficients, but the walk is doubly exponential, hence the
    small cap on k; k > n short-circuits to 0 before that cap, without
    walking or building the table.  When a
    dict is passed as stats, the subsets walked for this k are recorded under
    "edge_subsets" and the partitions summed under "partitions".
    """
    stats = {} if stats is None else stats
    k, n = inst.k, inst.n
    if k > n:
        stats["edge_subsets"] = stats["partitions"] = 0
        return 0
    if k > EDGE_SUBSET_MAX_K:
        raise ResourceLimitError(
            f"2**C({k},2) edge subsets is too many; cap is k <= {EDGE_SUBSET_MAX_K}, "
            "iep_partitions counts larger k"
        )
    sums = [0]  # sums[S]: the sum of the coefficients indexed by the bitmask S
    for a in inst.coeffs:
        sums += [s + a for s in sums]
    total = 0
    for partitions in _edge_subset_masks(k):
        signed_by, blocks_by = {}, {}  # per l, for this number of blocks: weights summed, a partition
        for blocks, masks, signed in partitions:
            ell = math.gcd(n, *map(sums.__getitem__, masks))
            if ell in signed_by:
                signed_by[ell] += signed
            else:
                signed_by[ell], blocks_by[ell] = signed, blocks
        total += sum([signed * _merged_count(inst, blocks_by[ell]) for ell, signed in signed_by.items()])
    stats["edge_subsets"] = 2 ** math.comb(k, 2)
    stats["partitions"] = len(_edge_subset_signs(k))
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


@functools.cache
def _edge_subset_masks(k: int) -> tuple[tuple[tuple, ...], ...]:
    """_edge_subset_signs(k) as (blocks, block bitmasks, signed), one tuple per number of blocks.

    Index i is bit i - 1 of a block's bitmask.
    """
    by_size: dict[int, list[tuple]] = {}
    for blocks, signed in _edge_subset_signs(k):
        masks = tuple(sum(1 << (i - 1) for i in block) for block in blocks)
        by_size.setdefault(len(blocks), []).append((blocks, masks, signed))
    return tuple(map(tuple, by_size.values()))


def iep_partitions(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """The edge-subset inclusion-exclusion compressed over set partitions.

    Every edge subset whose pattern graph has component partition pi
    contributes the same merged Lehmer count l * n**(|pi|-1) * [l | b], with
    l = gcd of the block sums and n, and the signed number of such subsets is
    prod over blocks B of (-1)**(|B|-1) (|B|-1)!.  The partitions are not
    listed: every l lies in C, the gcd-closure of the gcd(s, L) over the
    subset sums s, L = gcd(a1 + ... + ak, n) (the empty sum gives L).  With h
    solved in increasing order from sum over d in C, d | m of h(d) = m * [m | b],

        count = n**-1 * sum over d in C of h(d) * Z_d,
        Z_d = sum over pi of prod over B of (-1)**(|B|-1) (|B|-1)! * n * [d | sum_B a],

    so no prime of n is needed.  The subset sums mod L are built from the
    coefficients' residue classes mod L, m'_r of them in class r, so there
    are at most prod (m'_r + 1) of them, a number planned before they are
    built.  C's least element is G = gcd(a1, ..., ak, n), with
    Z_G = n(n-1)...(n-k+1); every other d in C with h(d) != 0 runs one DP
    over the block weights of Z_d, whichever plans the fewer steps: the
    subset DP (_partition_sum), (3**k + 1) // 2 steps over a table built from
    the 2**k subset sums, or the DP over compositions of the residue classes
    mod d (_class_partition_sum), its _class_plan steps weighted by
    CLASS_STEP_COST.  A step on table entries of about
    k * (bits of n + bits of k) bits counts 1 + that // STEP_BITS times.
    k > n, or G not dividing b, short-circuits to 0.  Refuses
    (ResourceLimitError), before any DP runs, when the subset sums mod L, the
    gcds that build C with the divisibility tests that solve h, or the chosen
    DPs exceed PARTITION_STEP_BUDGET.  When no two classes mod L meet mod any
    d above G, every DP costs what one mod L does, and one over the budget
    is refused before the sums are built.  When a dict is passed as stats,
    the DP runs are recorded under "divisors" and their steps under
    "dp_steps".
    """
    stats = {} if stats is None else stats
    k, n, b = inst.k, inst.n, inst.b
    stats["divisors"] = stats["dp_steps"] = 0
    if k > n:
        return 0
    ell = math.gcd(sum(inst.coeffs), n)
    common = math.gcd(*inst.coeffs, n)
    lone = falling_factorial(n, k) * common * (b % common == 0)  # h(G) * Z_G / n
    if ell == common or b % common:
        return lone
    # from here on h(m) != 0 for an m in C minimal above G, so a DP is needed
    mults = {}
    for a in inst.coeffs:
        a %= ell
        mults[a] = mults.get(a, 0) + 1
    spent = math.prod([m + 1 for m in mults.values()])  # bounds the subset sums mod L
    if spent > PARTITION_STEP_BUDGET:
        raise ResourceLimitError(
            f"the subset sums of {len(mults)} residue classes mod {ell} number up to {spent}; "
            f"budget is {PARTITION_STEP_BUDGET}"
        )
    per_dp = (3 ** k + 1) // 2
    size = 1 + k * (n.bit_length() + k.bit_length()) // STEP_BITS
    if per_dp * size > PARTITION_STEP_BUDGET and all(
        math.gcd(r - s, ell) == common for r, s in itertools.combinations(mults, 2)
    ):
        # a class mod d for d | L above G is then a class mod L
        one_dp = min(per_dp, CLASS_STEP_COST * _class_plan(mults.values())) * size
        if one_dp > PARTITION_STEP_BUDGET:
            raise ResourceLimitError(
                f"one partition DP over {len(mults)} residue classes mod {ell} needs "
                f"{one_dp} steps; budget is {PARTITION_STEP_BUDGET}"
            )
    sums = {0}
    for r, m in mults.items():
        if r:
            sums = {(s + j) % ell for j in range(0, (m + 1) * r, r) for s in sums}
    closure = {ell}  # every x below divides L, so x = gcd(x, L) joins too
    for x in {math.gcd(s, ell) for s in sums} - closure:
        spent += len(closure)
        closure |= {math.gcd(x, y) for y in closure}
        if spent + len(closure) ** 2 > PARTITION_STEP_BUDGET:  # and the tests d | m below
            raise ResourceLimitError(
                f"the gcd-closure of the subset sums mod {ell} needs more than "
                f"{PARTITION_STEP_BUDGET} gcds and divisibility tests"
            )
    weights = {}
    for m in sorted(closure):
        weights[m] = m * (b % m == 0) - sum([h for d, h in weights.items() if m % d == 0])
    # a class DP can plan fewer steps only if one class of all k coefficients would
    class_dps = CLASS_STEP_COST * (k + k * (k + 1) // 2) < per_dp
    plans, planned = [], 0
    for d, h in weights.items():
        if h and d != common:
            classes, cost = None, per_dp
            if class_dps:
                by_class = {}
                for r, m in mults.items():
                    r %= d
                    by_class[r] = by_class.get(r, 0) + m
                class_cost = CLASS_STEP_COST * _class_plan(by_class.values())
                if class_cost < per_dp:
                    classes, cost = by_class, class_cost
            plans.append((d, h, classes))
            planned += cost * size
    if planned > PARTITION_STEP_BUDGET:
        raise ResourceLimitError(
            f"{len(plans)} divisors of {ell} need {planned} partition DP steps; "
            f"budget is {PARTITION_STEP_BUDGET}"
        )
    row = [0, n]  # row[s] = (-1)**(s-1) (s-1)! n, a block of s elements
    for s in range(1, k):
        row.append(-s * row[-1])
    total = n * lone
    subset_sums = None
    for d, h, classes in plans:
        if classes is not None:
            z, steps = _class_partition_sum(classes.items(), d, row)
        else:
            if subset_sums is None:  # d divides L, so the sums need no reduction
                subset_sums = [0]
                for a in inst.coeffs:
                    subset_sums += [s + a for s in subset_sums]
            wt = [0 if s % d else row[m.bit_count()] for m, s in enumerate(subset_sums)]
            z, steps = _partition_sum(wt)
        total += h * z
        stats["dp_steps"] += steps
    stats["divisors"] = len(plans)
    if total % n:
        raise AssertionError(f"partition sum {total} is not a multiple of n for {inst}")
    return total // n


def _partition_sum(wt) -> tuple[int, int]:
    """(Z, steps): the signed set-partition sum over the block-weight table wt.

    wt[S] is the weight of the block S, a bitmask of indices, with wt[0] = 0,
    and Z sums prod over blocks B of wt[B] over the set partitions of the
    full set: z[S] = sum over blocks B with low(S) in B, B subset of S, of
    wt[B] * z[S - B].  Only states S with wt[S] != 0 are visited, which is
    sound when the support of wt is closed under disjoint unions, as that of
    every test d | sum_S a is: a partition of S into blocks of the support
    then puts S in it, so z is 0 on every state skipped.  A visited S costs
    2**(|S|-1) steps, one per rest R = S - B, and steps counts them.
    """
    z = [1] + [0] * (len(wt) - 1)
    steps = 0
    for S in itertools.compress(range(len(wt)), wt):  # wt[0] = 0: the empty set is z[0]
        rest = S & (S - 1)  # S without its lowest index
        steps += 1 << rest.bit_count()
        acc = wt[S]
        R = rest
        while R:
            if z[R]:
                acc += wt[S ^ R] * z[R]
            R = (R - 1) & rest
        z[S] = acc
    return z[-1], steps


def _class_plan(mults) -> int:
    """_class_partition_sum's steps over classes of these multiplicities, all states visited.

    A state alpha != 0 costs 1 + alpha_i0 * prod over i > i0 of (alpha_i + 1)
    steps, i0 its lowest nonzero class.  Over the states whose lowest nonzero
    class is i0 the blocks sum to m_i0 (m_i0 + 1) / 2 times the product over
    i > i0 of (m_i + 1)(m_i + 2) / 2.
    """
    states, blocks, tail = 1, 0, 1
    for m in reversed(mults):
        blocks += m * (m + 1) // 2 * tail
        tail *= (m + 1) * (m + 2) // 2
        states *= m + 1
    return states - 1 + blocks


def _class_partition_sum(classes, d: int, row) -> tuple[int, int]:
    """(Z, steps): _partition_sum's recurrence over compositions of residue classes mod d.

    classes lists (r, m) pairs: m of the elements are r mod d.  A block B
    weighs row[|B|] when d divides its sum and 0 otherwise, so it matters
    only through its composition beta (beta_i elements of class i), and z
    only through the state's composition alpha <= m.  States are indexed in
    mixed radix, class 0 fastest.  The designated element of alpha lies in
    its lowest nonzero class i0, and the blocks holding it with composition
    beta number C(alpha_i0 - 1, beta_i0 - 1) times the product over i != i0
    of C(alpha_i, beta_i).  Those binomials are folded into the tables: state
    alpha holds z[alpha] * m!/alpha!, block beta holds
    row[|beta|] * beta_i0 / beta! (an integer when (|beta| - 1)! divides
    row[|beta|]), and the sum over beta is divided by alpha_i0.  Only states
    whose sum d divides are visited, as in _partition_sum.  A visited alpha
    costs one step, and one more per beta: alpha_i0 times the product over
    i > i0 of (alpha_i + 1).  steps counts them.
    """
    fact = [1]
    for s in range(1, len(row)):
        fact.append(fact[-1] * s)
    # per state, class by class: its residue mod d, size and product of digit
    # factorials, and the stride and digit of its lowest nonzero class
    res, size, fprod, low, top = [0], [0], [1], [0], [0]
    stride = 1
    for r, m in classes:
        digits = range(1, m + 1)
        low += [lo or stride for _ in digits for lo in low]
        top += [t or j for j in digits for t in top]
        res = [(x + j * r) % d for j in range(m + 1) for x in res]
        size = [s + j for j in range(m + 1) for s in size]
        fprod = [f * fact[j] for j in range(m + 1) for f in fprod]
        stride *= m + 1
    wt = [0 if x else row[s] * t // f for x, s, t, f in zip(res, size, top, fprod)]
    z = [0] * stride
    z[0] = fprod[-1]
    steps = 0
    box_of, box = 0, [0]  # box: every index digit by digit <= box_of
    for state in itertools.compress(range(1, stride), wt[1:]):
        lo, t = low[state], top[state]
        upper = state - t * lo  # alpha without its lowest nonzero class
        if upper != box_of:
            box, box_of, rest = [0], upper, upper
            while rest:
                span, digit = low[rest], top[rest]
                box = [y + o for o in range(0, (digit + 1) * span, span) for y in box]
                rest -= digit * span
        steps += 1 + t * len(box)
        blocks = range(lo, (t + 1) * lo, lo)
        acc = sum([wt[x] * z[state - x] for o in blocks for y in box if wt[x := o + y]])
        z[state] = acc // t
    return z[-1], steps


def brute_force_distinct(inst: CongruenceInstance, stats: dict | None = None) -> int:
    """Count distinct-coordinate solutions by direct enumeration.

    The injective (k-1)-prefixes are walked depth first, in lexicographic
    order, carrying the running target t = b - (prefix sum) mod n and the
    values the prefix leaves free, so each node of the walk costs one
    multiply-add.  The last coordinate must satisfy ak * x = t mod n and
    differ from the prefix.  unused[r], the number of values outside the
    prefix with ak * x = r mod n, is tabled once per call and updated as each
    prefix coordinate is pushed and popped; at the last prefix level each
    free value y, with r = t - a(k-1) * y mod n, completes to unused[r] tuples
    less one when ak * y = r itself.  That level is folded into its parent's
    loop, so it costs no call and no copy of the free values: for each x
    pushed there, the completions are summed over every free y, less the y
    with (a(k-1) + ak) * y equal to the target x leaves (tabled once per
    parent), and less the term of y = x, taken off once.  So each of the n(n-1)...(n-k+1) injective
    tuples is decided, never more than n**k.  With k = 1 there is
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
        residue = [last * x % n for x in range(n)]
        unused = [0] * n
        for r in residue:
            unused[r] += 1
        total = prefixes = 0

        def walk(level: int, t: int, free: list[int]) -> None:
            nonlocal total, prefixes
            c = inner[level]
            if level < fold:
                for i, x in enumerate(free):
                    unused[residue[x]] -= 1
                    walk(level + 1, (t - c * x) % n, free[:i] + free[i + 1:])
                    unused[residue[x]] += 1
                return
            # the last prefix level, y, folded into the loop over x: y runs over
            # every free value and the y = x term is taken off once per x.
            # unused[s + v] is unused[s - a(k-1) * y mod n] by negative indexing
            prefixes += len(free) * (len(free) - 1)
            shifts = [-(a * y % n) for y in free]  # v, in (-n, 0]
            diag = [0] * n  # diag[s]: the free y with ak * y = s - a(k-1) * y
            for y in free:
                diag[(a + last) * y % n] += 1
            for x in free:
                s = (t - c * x) % n
                rx = residue[x]
                unused[rx] -= 1
                r = (s - a * x) % n
                acc = (rx == r) - unused[r] - diag[s]
                for v in shifts:
                    acc += unused[s + v]
                total += acc
                unused[rx] += 1

        fold = len(inner) - 1
        if inner:
            walk(0, b, list(range(n)))
        else:  # k = 2: one prefix level, with no parent to fold into
            prefixes = n
            for x in range(n):
                r = (b - a * x) % n
                total += unused[r] - (residue[x] == r)
    stats["prefixes"] = prefixes
    stats["tuples_evaluated"] = math.perm(n, k)
    return total
