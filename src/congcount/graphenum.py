"""Exact counts of labeled simple graphs by edges and connected components.

g'(e, k) counts connected simple graphs with e edges on k labeled vertices;
g(c, e, k) counts simple graphs with c connected components.  Both tables come
from one recurrence on the component containing vertex 1: a graph on k
vertices is that component, connected on j vertices, glued to any graph on the
other k-j.  Gluing the (c-1)-component graphs gives g(c, ., k) for c >= 2;
gluing every graph, for j < k, gives all disconnected graphs at once.  Either
way g'(., k) is what is left of all C(C(k,2), .) graphs.

One builder, _table, makes both tables.  For each k it builds g'(., k) and,
for the component table, each g(c, ., k) as a row, a list indexed by the edge
count e from 0 to its largest nonzero entry (C(k, 2) for g', C(k-c+1, 2) for
g).  Both modes store the rows of k in one layout: the Pascal row, then g'
and the g rows that exist.  The graphs on k vertices, counted by edges, are
the Pascal row C(m, .), m = C(k, 2), so each glued row is a sum of row
convolutions.  Each convolution is one big-integer product: a row is packed as
its value at y = 2**(8w), one w-byte little-endian slot per coefficient, and
each row of k is unpacked once from its packed value into its coefficients.

The slots never borrow or carry, because every coefficient of every partial
sum lies in [0, 2**C(k,2)]: each term and each partial sum of a glued row
counts graphs with e edges, so it lies between 0 and C(C(k,2), e).  The glued
rows of one k count disjoint sets of disconnected graphs, so their sum is at
most C(C(k,2), e) in every slot and does not carry, and subtracting it from the
Pascal row leaves g'(e, k) >= 0 in every slot, so the difference does not
borrow.  Row k therefore needs C(k,2)+1 bits a slot.  The width w steps up in
8-byte steps as k grows, and the rows already packed, Pascal rows included,
are repacked from their coefficient lists only when it does.  The same builder
turns the unpacked rows into the dicts of GraphCountTable, keyed (e, k) and
(c, e, k) and inserted in (k, e) and (k, c, e) order.

The paper's identities sum_e (-1)**e g'(e, k) = (-1)**(k-1) (k-1)! and
sum_{c,e} (-1)**e n**c g(c, e, k) = n(n-1)...(n-k+1) are coefficients of
log(1+z) and (1+z)**n.  A table is plain data read through its two dicts;
the test suite sums both identities from them.
"""

from collections import namedtuple
from itertools import accumulate
from math import comb
from operator import index

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


def _check_kmax(k_max) -> int:
    """k_max as an int, through operator.index, if it lies in 1..KMAX_CAP."""
    try:
        k_max = index(k_max)
    except TypeError:
        raise TypeError(f"k_max must be an integer, got {k_max!r}") from None
    if not 1 <= k_max <= KMAX_CAP:
        error = ValueError if k_max < 1 else ResourceLimitError
        raise error(f"k_max = {k_max} outside allowed range 1..{KMAX_CAP}")
    return k_max


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


def _table(k_max, components: bool) -> tuple[GraphCountTable, int]:
    # The table, with g only when components is true, and its number of packed products.
    # packed[k] and rows[k] share one layout: the Pascal row of C(k,2), then g(c, ., k)
    # from c = 1.  One glue makes every glued row: the sum of C(k-1, j-1) g'(., j)
    # times row r of the other k-j vertices over j = 1..k-max(r, 1).  With
    # components, r = c-1 gives g(c, ., k) for c >= 2; without, the one span r = 0
    # gives every disconnected graph, which is no row of the table.  g'(., k) is
    # the Pascal row minus the glued rows.
    k_max = _check_kmax(k_max)
    rows, width, products = [[[1]]], 0, 0
    for k in range(1, k_max + 1):
        if _slot_bytes(k) > width:  # repack what the products read at the wider slots
            width = _slot_bytes(k)
            packed = [[_pack(r, width) for r in by_c] for by_c in rows]
        m = comb(k, 2)
        # C(m, e+1) = C(m, e) (m-e) / (e+1): at m = 435 this is about 20 times faster than math.comb
        pascal = list(accumulate(range(m), lambda c, e: c * (m - e) // (e + 1), initial=1))
        everything = _pack(pascal, width)
        glued = [
            sum(comb(k - 1, j - 1) * packed[j][1] * packed[k - j][r]
                for j in range(1, k + 1 - (r or 1)))
            for r in (range(1, k) if components else (0,))
        ]
        products += m if components else k - 1
        values = [everything - sum(glued), *(glued if components else ())]
        packed.append([everything, *values])
        # row c = r+1 ends at e = C(k-r, 2): one component complete, the rest isolated
        rows.append([pascal, *[_unpack(v, width, comb(k - r, 2) + 1) for r, v in enumerate(values)]])
    gprime = {(e, k): v for k in range(1, k_max + 1) for e, v in enumerate(rows[k][1]) if v}
    g = {
        (c, e, k): v
        for k in range(1, k_max + 1) if components
        for c in range(1, k + 1)
        for e, v in enumerate(rows[k][c])
        if v
    }
    return GraphCountTable(k_max, gprime, g), products


def connected_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of g'(e, k) for 1 <= k <= k_max (component counts left empty).

    k_max must be an integer (anything operator.index takes, else TypeError);
    k_max < 1 raises ValueError; k_max above KMAX_CAP, read when called,
    raises ResourceLimitError.

    When a dict is passed as stats, the packed big-integer products, one per
    row convolution, are recorded under "row_products": C(k_max, 2) here.
    """
    stats = {} if stats is None else stats
    table, stats["row_products"] = _table(k_max, False)
    return table


def component_counts(k_max: int, stats: dict | None = None) -> GraphCountTable:
    """Table of both g'(e, k) and g(c, e, k) for 1 <= k <= k_max.

    k_max is checked as in connected_counts.

    stats, when given, is filled as in connected_counts; "row_products" is
    C(k_max+1, 3) here, and g' takes none of them.
    """
    stats = {} if stats is None else stats
    table, stats["row_products"] = _table(k_max, True)
    return table
