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
of row convolutions.  Each convolution is one big-integer product: a row is
packed as its value at y = 2**(8w), one w-byte little-endian slot per
coefficient, and row k's sum is unpacked once into its coefficients.

The slots never borrow or carry, because every coefficient of every partial
sum lies in [0, 2**C(k,2)]: g'(e, k) and g(c, e, k) count graphs with e edges,
so they lie between 0 and C(C(k,2), e); the g' subtrahend
sum_j C(k-1, j-1) g'(., j) (1+y)**C(k-j,2) is a sum of nonnegative products
whose coefficients count disconnected graphs, so it too is at most
C(C(k,2), e), and so is every term of the g sum.  Row k therefore needs
C(k,2)+1 bits a slot.  The width w steps up in 8-byte steps as k grows, and
the rows and Pascal rows already packed are repacked from their coefficient
lists only when it does.  The unpacked rows become the dicts of
GraphCountTable, keyed (e, k) and (c, e, k) and inserted in (k, e) and
(k, c, e) order.

The paper's identities sum_e (-1)**e g'(e, k) = (-1)**(k-1) (k-1)! and
sum_{c,e} (-1)**e n**c g(c, e, k) = n(n-1)...(n-k+1) are coefficients of
log(1+z) and (1+z)**n.  A table is plain data read through its two dicts;
the test suite sums both identities from them.
"""

from collections import namedtuple
from itertools import accumulate
from math import comb

from .errors import ResourceLimitError

KMAX_CAP = 30


class GraphCountTable(namedtuple("GraphCountTable", "k_max gprime g")):
    """The counts g'(e, k) and, optionally, g(c, e, k) for 1 <= k <= k_max.

    gprime maps (e, k) to g'(e, k) and g maps (c, e, k) to g(c, e, k).  Only
    nonzero entries are stored, inserted in (k, e) and (k, c, e) order, so a
    missing key reads as 0.  g is empty in a table from connected_counts.
    Each builder call returns new dicts, which the caller may change.
    """

    __slots__ = ()


def _check_kmax(k_max: int):
    if not 1 <= k_max <= KMAX_CAP:
        error = ValueError if k_max < 1 else ResourceLimitError
        raise error(f"k_max = {k_max} outside allowed range 1..{KMAX_CAP}")


def _slot_bytes(k: int) -> int:
    # row k's coefficients lie in [0, 2**C(k,2)]: C(k,2)+1 bits, rounded up to whole 8-byte steps
    return (comb(k, 2) + 64) // 64 * 8


def _pack(row: list[int], width: int) -> int:
    """The row evaluated at y = 2**(8*width): one width-byte little-endian slot per coefficient."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in row]), "little")


def _unpack(value: int, width: int, length: int) -> list[int]:
    """The first length coefficients of a value packed as _pack packs them."""
    data = value.to_bytes(width * length, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _gprime_rows(k_max: int) -> tuple[list[list[int]], int]:
    # rows[k][e] = g'(e, k) = C(C(k,2), e) minus the graphs whose vertex-1
    # component has j < k vertices: choose its other j-1 vertices, a connected
    # graph on them, and anything at all on the remaining k-j vertices.  The
    # last factor is the Pascal row of C(k-j, 2), so each j is one product of
    # packed rows.  Returns the rows and the number of packed products.
    # C(m, e+1) = C(m, e) (m-e) / (e+1): at m = 435 this is about 20 times faster than math.comb
    pascal = [
        list(accumulate(range(m), lambda c, e: c * (m - e) // (e + 1), initial=1))
        for m in (comb(i, 2) for i in range(k_max + 1))
    ]
    rows, width, products = [[]], 0, 0
    for k in range(1, k_max + 1):
        if _slot_bytes(k) > width:  # repack what the products read at the wider slots
            width = _slot_bytes(k)
            packed_pascal = [_pack(p, width) for p in pascal[:k]]
            packed = [_pack(r, width) for r in rows]
        packed_pascal.append(_pack(pascal[k], width))
        value = packed_pascal[k] - sum(
            comb(k - 1, j - 1) * packed[j] * packed_pascal[k - j] for j in range(1, k)
        )
        products += k - 1
        rows.append(_unpack(value, width, comb(k, 2) + 1))
        packed.append(value)
    return rows, products


def _g_rows(k_max: int, gp: list[list[int]]) -> tuple[list[list[list[int]]], int]:
    # rows[k][c][e] = g(c, e, k), rows[k][0] empty; g(1, e, k) = g'(e, k).  For c >= 2, pick the
    # connected component of vertex 1 (j vertices) and multiply its g' row by
    # the (c-1)-component row on the remaining k-j vertices.  Row (c, k) ends
    # at e = C(k-c+1, 2), one component complete and the rest isolated.
    # Returns the rows and the number of packed products.
    rows, width, products = [[]], 0, 0
    for k in range(1, k_max + 1):
        if _slot_bytes(k) > width:  # repack what the products read at the wider slots
            width = _slot_bytes(k)
            packed = [[_pack(r, width) for r in by_c] for by_c in rows]
        by_c, packed_c = [[], gp[k]], [0, _pack(gp[k], width)]
        for c in range(2, k + 1):
            value = sum(
                comb(k - 1, j - 1) * packed[j][1] * packed[k - j][c - 1]
                for j in range(1, k - c + 2)
            )
            products += k - c + 1
            by_c.append(_unpack(value, width, comb(k - c + 1, 2) + 1))
            packed_c.append(value)
        rows.append(by_c)
        packed.append(packed_c)
    return rows, products


def _gprime_dict(gp: list[list[int]]) -> dict[tuple[int, int], int]:
    # rows[0] is empty, so keys run over k = 1..k_max in (k, e) order
    return {(e, k): v for k, row in enumerate(gp) for e, v in enumerate(row) if v}


def connected_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of g'(e, k) for 1 <= k <= k_max (component counts left empty).

    k_max < 1 raises ValueError; k_max above KMAX_CAP, read when called,
    raises ResourceLimitError.

    When a dict is passed as stats, the packed big-integer products, one per
    row convolution, are recorded under "row_products" (all of them, here the
    g' recurrence's C(k_max, 2)) and "gprime_row_products" (the g'
    recurrence's share).
    """
    stats = {} if stats is None else stats
    _check_kmax(k_max)
    gp, products = _gprime_rows(k_max)
    stats["row_products"] = stats["gprime_row_products"] = products
    return GraphCountTable(k_max, _gprime_dict(gp), {})


def component_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of both g'(e, k) and g(c, e, k) for 1 <= k <= k_max.

    k_max is checked against KMAX_CAP as in connected_counts.

    stats, when given, is filled as in connected_counts; "row_products" then
    also counts the component recurrence's C(k_max+1, 3) products.
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
