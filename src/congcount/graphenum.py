"""Exact counts of labeled simple graphs by edges and connected components.

g'(e, k) counts connected simple graphs with e edges on k labeled vertices;
g(c, e, k) counts simple graphs with c connected components.  Both tables are
built by dynamic programming on the component containing vertex 1: a graph is
connected iff that component is not smaller than the whole vertex set, and a
c-component graph is a connected vertex-1 component glued to any
(c-1)-component graph on the remaining vertices.

Each g'(., k) and each g(c, ., k) is built as a row, a list indexed by the
edge count e from 0 to its largest nonzero entry (C(k, 2) for g', C(k-c+1, 2)
for g).  Choosing which edges go among the vertices outside the vertex-1
component is a Pascal row C(m, .), m = C(k-j, 2), so both recurrences are sums
of row convolutions, and a convolution walks only the nonzero stretch of each
row.  The rows are then unpacked into the dicts of GraphCountTable, keyed
(e, k) and (c, e, k) and inserted in (k, e) and (k, c, e) order.

The paper's identities sum_e (-1)**e g'(e, k) = (-1)**(k-1) (k-1)! and
sum_{c,e} (-1)**e n**c g(c, e, k) = n(n-1)...(n-k+1) are coefficients of
log(1+z) and (1+z)**n.  A table is plain data read through its two dicts;
the test suite sums both identities from them.
"""

from dataclasses import dataclass, field
from math import comb

from .errors import ResourceLimitError

KMAX_CAP = 30


@dataclass(frozen=True)
class GraphCountTable:
    """The counts g'(e, k) and, optionally, g(c, e, k) for 1 <= k <= k_max.

    gprime maps (e, k) to g'(e, k) and g maps (c, e, k) to g(c, e, k).  Only
    nonzero entries are stored, inserted in (k, e) and (k, c, e) order, so a
    missing key reads as 0.  g is empty in a table from connected_counts.
    Each builder call returns new dicts, which the caller may change.
    """

    k_max: int
    gprime: dict[tuple[int, int], int]
    g: dict[tuple[int, int, int], int] = field(default_factory=dict)


def _check_kmax(k_max: int):
    if not 1 <= k_max <= KMAX_CAP:
        error = ValueError if k_max < 1 else ResourceLimitError
        raise error(f"k_max = {k_max} outside allowed range 1..{KMAX_CAP}")


def _convolve_into(acc: list[int], left: list[int], right: list[int], scale: int) -> int:
    """acc[e1 + e2] += scale * left[e1] * right[e2] over the nonzero entries of both rows.

    Each row is nonzero from its first nonzero entry to its end, so the shorter
    one is walked entry by entry and the other added as one slice.  Returns the
    number of coefficient products formed.
    """
    lo_l = next(i for i, v in enumerate(left) if v)
    lo_r = next(i for i, v in enumerate(right) if v)
    if len(left) - lo_l > len(right) - lo_r:
        left, right, lo_l, lo_r = right, left, lo_r, lo_l
    seg = right[lo_r:]
    width = len(seg)
    for e1 in range(lo_l, len(left)):
        v = scale * left[e1]
        at = e1 + lo_r
        acc[at:at + width] = [a + v * r for a, r in zip(acc[at:at + width], seg)]
    return (len(left) - lo_l) * width


def _gprime_rows(k_max: int) -> tuple[list[list[int]], int]:
    # rows[k][e] = g'(e, k) = C(C(k,2), e) minus the graphs whose vertex-1
    # component has j < k vertices: choose its other j-1 vertices, a connected
    # graph on them, and anything at all on the remaining k-j vertices.  The
    # last factor is the Pascal row of C(k-j, 2), so each j is one convolution.
    # Returns the rows and the number of coefficient products formed.
    pascal = {}
    for j in range(k_max + 1):
        m = comb(j, 2)
        pascal[m] = [comb(m, e) for e in range(m + 1)]
    rows = [[]]
    products = 0
    for k in range(1, k_max + 1):
        acc = pascal[comb(k, 2)][:]
        for j in range(1, k):
            products += _convolve_into(acc, rows[j], pascal[comb(k - j, 2)], -comb(k - 1, j - 1))
        rows.append(acc)
    return rows, products


def _g_rows(k_max: int, gp: list[list[int]]) -> tuple[list[list[list[int]]], int]:
    # rows[k][c][e] = g(c, e, k), rows[k][0] empty; g(1, e, k) = g'(e, k).  For c >= 2, pick the
    # connected component of vertex 1 (j vertices) and convolve its g' row with
    # the (c-1)-component row on the remaining k-j vertices.  Row (c, k) ends
    # at e = C(k-c+1, 2), one component complete and the rest isolated.
    # Returns the rows and the number of coefficient products formed.
    rows = [[]]
    products = 0
    for k in range(1, k_max + 1):
        by_c = [[], gp[k]]
        for c in range(2, k + 1):
            acc = [0] * (comb(k - c + 1, 2) + 1)
            for j in range(1, k - c + 2):
                products += _convolve_into(acc, gp[j], rows[k - j][c - 1], comb(k - 1, j - 1))
            by_c.append(acc)
        rows.append(by_c)
    return rows, products


def _gprime_dict(gp: list[list[int]]) -> dict[tuple[int, int], int]:
    # rows[0] is empty, so keys run over k = 1..k_max in (k, e) order
    return {(e, k): v for k, row in enumerate(gp) for e, v in enumerate(row) if v}


def connected_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of g'(e, k) for 1 <= k <= k_max (component counts left empty).

    k_max < 1 raises ValueError; k_max above KMAX_CAP, read when called,
    raises ResourceLimitError.

    When a dict is passed as stats, the coefficient products of the row
    convolutions are recorded under "row_products" (all of them, here the g'
    recurrence) and "gprime_row_products" (the g' recurrence's share).
    """
    stats = {} if stats is None else stats
    _check_kmax(k_max)
    gp, products = _gprime_rows(k_max)
    stats["row_products"] = stats["gprime_row_products"] = products
    return GraphCountTable(k_max, _gprime_dict(gp))


def component_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of both g'(e, k) and g(c, e, k) for 1 <= k <= k_max.

    k_max is checked against KMAX_CAP as in connected_counts.

    stats, when given, is filled as in connected_counts; "row_products" then
    also counts the component recurrence.
    """
    stats = {} if stats is None else stats
    _check_kmax(k_max)
    gp, gprime_products = _gprime_rows(k_max)
    g, g_products = _g_rows(k_max, gp)
    stats["row_products"] = gprime_products + g_products
    stats["gprime_row_products"] = gprime_products
    g_dict = {
        (c, e, k): v
        for k, by_c in enumerate(g)
        for c, row in enumerate(by_c)
        for e, v in enumerate(row)
        if v
    }
    return GraphCountTable(k_max, _gprime_dict(gp), g_dict)
