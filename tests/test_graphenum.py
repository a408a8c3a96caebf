from collections import Counter
from math import comb, factorial

import pytest

from congcount import graphenum
from congcount.errors import ResourceLimitError
from support import alt_sum_all, alt_sum_connected, reference_graph_tables


@pytest.fixture(scope="module")
def table12():
    return graphenum.component_counts(12)


@pytest.fixture(scope="module")
def reference14():
    return reference_graph_tables(14)


def _up_to(table, k_max):
    # keys end in k and are inserted k by k, so a smaller table is a prefix
    return [(key, v) for key, v in table.items() if key[-1] <= k_max]


def test_connected_rows_equal_reference_dicts_in_order(reference14):
    gp, _ = reference14
    for k_max in range(1, 15):
        table = graphenum.connected_counts(k_max)
        assert list(table.gprime.items()) == _up_to(gp, k_max), k_max
        assert table.g == {}


def test_each_table_owns_its_dicts():
    # a shared default dict would let one caller's change reach every table
    first, second = graphenum.connected_counts(3), graphenum.connected_counts(3)
    assert first == second
    assert first.gprime is not second.gprime and first.g is not second.g


def test_component_rows_equal_reference_dicts_in_order(reference14):
    gp, g = reference14
    for k_max in range(1, 13):
        table = graphenum.component_counts(k_max)
        assert list(table.gprime.items()) == _up_to(gp, k_max), k_max
        assert list(table.g.items()) == _up_to(g, k_max), k_max


def test_row_products_counted(reference14):
    # K = 4, g' rows: k = 2 convolves [1] with [1] (1 product); k = 3 adds 2 + 1;
    # k = 4 adds 4 + 2 + 2 (the Pascal rows of C(3,2), C(2,2), C(1,2) against
    # the nonzero g' entries of j = 1, 2, 3 vertices)
    stats = {}
    graphenum.connected_counts(4, stats=stats)
    assert stats == {"row_products": 12, "gprime_row_products": 12}
    stats = {}
    graphenum.component_counts(4, stats=stats)
    assert stats == {"row_products": 24, "gprime_row_products": 12}
    # in general each convolution multiplies every nonzero entry of one row
    # by every nonzero entry of the other; the Pascal rows have no zeros
    gp, g = reference14
    gp_width = Counter(k for _, k in gp)
    g_width = Counter((c, k) for c, _, k in g)
    for k_max in (1, 6, 11):
        connected, components = {}, {}
        graphenum.connected_counts(k_max, stats=connected)
        graphenum.component_counts(k_max, stats=components)
        gprime_products = sum(
            gp_width[j] * (comb(k - j, 2) + 1) for k in range(1, k_max + 1) for j in range(1, k)
        )
        g_products = sum(
            gp_width[j] * g_width[(c - 1, k - j)]
            for k in range(1, k_max + 1)
            for c in range(2, k + 1)
            for j in range(1, k - c + 2)
        )
        assert connected["row_products"] == connected["gprime_row_products"] == gprime_products
        assert components["gprime_row_products"] == connected["row_products"]
        assert components["row_products"] == gprime_products + g_products


def test_gprime_support_bounds(table12):
    assert table12.gprime.get((0, 1), 0) == 1
    # connected graphs need at least k-1 edges and fit under C(k,2)
    for k in range(1, 13):
        for e in range(k - 1):
            if (e, k) != (0, 1):
                assert table12.gprime.get((e, k), 0) == 0
        assert table12.gprime.get((comb(k, 2) + 1, k), 0) == 0
    assert table12.gprime.get((2, 4), 0) == 0
    assert table12.gprime.get((3, 4), 0) == 16  # labeled trees: 4**2


def test_total_graph_count_is_power_of_two(table12):
    for k in range(1, 13):
        total = sum(
            table12.g.get((c, e, k), 0)
            for c in range(1, k + 1)
            for e in range(comb(k, 2) + 1)
        )
        assert total == 2 ** comb(k, 2)


def test_single_component_slice_equals_connected(table12):
    for k in range(1, 13):
        for e in range(comb(k, 2) + 1):
            assert table12.g.get((1, e, k), 0) == table12.gprime.get((e, k), 0)


def test_spec_style_point_values(table12):
    assert table12.gprime.get((2, 3), 0) == 3
    assert table12.gprime.get((3, 3), 0) == 1
    assert table12.g.get((2, 1, 3), 0) == 3
    assert table12.g.get((3, 0, 3), 0) == 1


def test_alt_sum_connected_examples(table12):
    assert alt_sum_connected(table12.gprime, 3) == 2
    assert alt_sum_connected(table12.gprime, 1) == 1
    assert alt_sum_connected(table12.gprime, 4) == -6


def test_alt_sum_connected_closed_form(table12):
    for k in range(2, 13):
        assert alt_sum_connected(table12.gprime, k) == (-1) ** (k + 1) * factorial(k - 1)


def test_alt_sum_all_examples(table12):
    assert alt_sum_all(table12.g, 2, 5) == 20
    assert alt_sum_all(table12.g, 1, 7) == 7
    assert alt_sum_all(table12.g, 3, 3) == 6


def test_alt_sum_all_closed_form(table12):
    for k in range(1, 11):
        for n in range(1, 13):
            assert alt_sum_all(table12.g, k, n) == factorial(k) * comb(n, k)


def test_kmax_range_enforced(monkeypatch):
    with pytest.raises(ValueError):
        graphenum.connected_counts(0)
    with pytest.raises(ResourceLimitError):
        graphenum.connected_counts(31)
    with pytest.raises(ResourceLimitError):
        graphenum.component_counts(31)
    monkeypatch.setattr(graphenum, "KMAX_CAP", 31)
    graphenum.connected_counts(31)  # KMAX_CAP is read when called
