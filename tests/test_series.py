import hashlib
import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from congcount import series
from congcount.series import SeriesPoly
from support import record_calls, reference_grid_log, reference_grid_mul, reference_grid_pow

F = Fraction


def test_coeff_access_and_trailing_zero_equality():
    p = SeriesPoly([1, 2, 0])
    assert p.coeff(1) == 2
    assert p.coeff(5) == 0
    assert p == SeriesPoly([1, 2])
    assert p != SeriesPoly([1, 2, 3])
    assert hash(p) == hash(SeriesPoly([1, 2, 0, 0]))
    # a non-series is never equal: __eq__ defers, and Python falls back to identity
    assert p.__eq__([1, 2]) is NotImplemented
    assert p != [1, 2]
    assert repr(SeriesPoly([1, F(1, 2), 0])) == "SeriesPoly([1, 1/2, 0])"


def test_negative_orders_rejected():
    p = SeriesPoly([1, 1])
    for op in (
        lambda: series.series_mul(p, p, -1),
        lambda: series.series_pow(p, 2, -1),
        lambda: series.series_log(p, -1),
        lambda: series.deformed_exp_truncated(1, -1),
    ):
        with pytest.raises(ValueError, match="order must be >= 0"):
            op()
    for y_order, z_order in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="orders must be >= 0"):
            series.deformed_exp_bivariate(y_order, z_order)


def test_series_mul_truncates():
    one_plus = SeriesPoly([1, 1])
    one_minus = SeriesPoly([1, -1])
    assert series.series_mul(one_plus, one_minus, 4) == SeriesPoly([1, 0, -1])
    assert series.series_mul(one_plus, one_plus, 1) == SeriesPoly([1, 2])


def test_series_log_mercator():
    got = series.series_log(SeriesPoly([1, 1]), 4)
    assert got == SeriesPoly([0, 1, F(-1, 2), F(1, 3), F(-1, 4)])


def test_series_log_requires_unit_constant():
    with pytest.raises(ValueError):
        series.series_log(SeriesPoly([2, 1]), 3)


def test_series_pow_binomial():
    assert series.series_pow(SeriesPoly([1, 1]), 3, 3) == SeriesPoly([1, 3, 3, 1])
    assert series.series_pow(SeriesPoly([1, 1]), 5, 2) == SeriesPoly([1, 5, 10])


def test_series_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        series.series_pow(SeriesPoly([1, 1]), 0, 3)


def test_log_of_power_is_multiple_of_log():
    base = SeriesPoly([1, 1])
    lhs = series.series_log(series.series_pow(base, 5, 8), 8)
    log1 = series.series_log(base, 8)
    assert lhs == SeriesPoly([5 * c for c in log1.coeffs])


def test_log_inverts_exponential_series():
    exp = series.deformed_exp_truncated(1, 8)
    assert [c for c in exp.coeffs[:4]] == [1, 1, F(1, 2), F(1, 6)]
    assert series.series_log(exp, 8) == SeriesPoly([0, 1])


def test_deformed_exp_examples():
    assert series.deformed_exp_truncated(0, 5) == SeriesPoly([1, 1, 0, 0, 0, 0])
    assert series.deformed_exp_truncated(1, 3) == SeriesPoly([1, 1, F(1, 2), F(1, 6)])
    assert series.deformed_exp_truncated(2, 3) == SeriesPoly([1, 1, F(2, 2), F(8, 6)])


def test_deformed_exp_term_definition():
    beta = F(3, 2)
    poly = series.deformed_exp_truncated(beta, 7)
    for m in range(8):
        assert poly.coeff(m) == beta ** comb(m, 2) / factorial(m)


def test_bivariate_entries_match_definition():
    grid = series.deformed_exp_bivariate(4, 5)
    for e in range(5):
        for m in range(6):
            assert grid[e][m] == F(comb(comb(m, 2), e), factorial(m))


def test_bivariate_with_no_y_reduces_to_univariate():
    grid = series.deformed_exp_bivariate(0, 5)
    exp = series.deformed_exp_truncated(1, 5)
    assert [grid[0][m] for m in range(6)] == list(exp.coeffs)
    squared = series.bivar_pow(grid, 2)
    assert [squared[0][m] for m in range(6)] == list(series.series_pow(exp, 2, 5).coeffs)


def test_bivar_log_requires_unit_constant_column():
    grid = series.deformed_exp_bivariate(2, 3)
    grid[1][0] = F(1)
    with pytest.raises(ValueError):
        series.bivar_log(grid)


def test_bivar_mul_shape_mismatch_rejected():
    a = series.deformed_exp_bivariate(2, 3)
    b = series.deformed_exp_bivariate(3, 3)
    with pytest.raises(ValueError):
        series.bivar_mul(a, b)


EXPONENTS = (1, 2, 3, 8, 9)


def test_bivar_ops_reject_ragged_grids():
    # the first two have z-constant column (1, 0), so only the ragged rows are wrong
    ragged = ([[F(1), F(2)], [F(0)]], [[F(1), F(2)], [F(0), F(4), F(5)]], [], [[]], [[1], []])
    for grid in ragged:
        ops = [lambda: series.bivar_mul(grid, grid), lambda: series.bivar_log(grid)]
        ops += [lambda t=t: series.bivar_pow(grid, t) for t in EXPONENTS]
        for op in ops:
            with pytest.raises(ValueError, match="needs at least one row, all of the same length"):
                op()


def test_bivar_pow_squares_from_the_top_bit(monkeypatch):
    a = [[F(1), F(2), F(-1)], [F(0), F(1, 2), F(3)]]
    calls = record_calls(monkeypatch, "_mul", series)
    for e in range(1, 34):
        calls.clear()
        got = series.bivar_pow(a, e)
        squarings = sum(call["p"] is call["q"] for call in calls)
        assert (squarings, len(calls) - squarings) == (e.bit_length() - 1, bin(e).count("1") - 1), e
        assert got == reference_grid_pow(a, e), e
    got = series.bivar_pow(a, 1)
    assert got == a and got is not a and not any(x is y for x, y in zip(got, a))


def test_bivar_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        series.bivar_pow(series.deformed_exp_bivariate(1, 1), 0)


def _random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_grid(rng, y_order, z_order):
    return [[_random_fraction(rng) for _ in range(z_order + 1)] for _ in range(y_order + 1)]


def _with_unit_column(grid):
    return [[Fraction(e == 0)] + row[1:] for e, row in enumerate(grid)]


def test_every_operation_gives_fractions_on_integer_input():
    """All coefficients are Fractions, whatever the input's number type and the exponent."""
    p = SeriesPoly([1, 2, 3])
    grids = [series.deformed_exp_bivariate(2, 3)]
    # an int grid and a float grid, each against the same operation on its exact twin
    for grid in ([[1, 2, 3], [0, 1, 1]], [[1.0, 0.5, -0.25], [0.0, 1.5, 2.0]]):
        exact = [[F(x) for x in row] for row in grid]
        pairs = [(series.bivar_mul(grid, grid), series.bivar_mul(exact, exact))]
        pairs += [(series.bivar_log(grid), series.bivar_log(exact))]
        pairs += [(series.bivar_pow(grid, t), series.bivar_pow(exact, t)) for t in EXPONENTS]
        assert [got for got, _ in pairs] == [want for _, want in pairs]
        grids += [got for got, _ in pairs]
    polys = [series.series_mul(p, p, 3), series.series_log(p, 3), series.deformed_exp_truncated(2, 3)]
    polys += [series.series_pow(p, t, 3) for t in EXPONENTS]
    entries = [x for g in grids for row in g for x in row] + [x for q in polys for x in q.coeffs]
    assert [x for x in entries if type(x) is not Fraction] == []


@pytest.mark.parametrize("y_order", [0, 1, 3])
def test_bivar_ops_match_reference_on_random_grids(y_order):
    rng = random.Random(100 + y_order)
    for z_order in (0, 1, 4):
        a = _random_grid(rng, y_order, z_order)
        b = _random_grid(rng, y_order, z_order)
        assert series.bivar_mul(a, b) == reference_grid_mul(a, b)
        for t in EXPONENTS:
            assert series.bivar_pow(a, t) == reference_grid_pow(a, t), (z_order, t)
        unit = _with_unit_column(a)
        assert series.bivar_log(unit) == reference_grid_log(unit), z_order


def test_series_ops_match_reference_on_random_series():
    rng = random.Random(7)
    for order in (0, 1, 3, 6):
        for length in sorted({0, 1, order, order + 1, order + 3}):
            p = SeriesPoly([_random_fraction(rng) for _ in range(length)])
            q = SeriesPoly([_random_fraction(rng) for _ in range(order + 3)])
            row_p = [(list(p.coeffs) + [0] * (order + 1))[: order + 1]]
            row_q = [list(q.coeffs[: order + 1])]
            got = series.series_mul(p, q, order)
            assert got == SeriesPoly(reference_grid_mul(row_p, row_q)[0]), (order, length)
            for t in EXPONENTS:
                got = series.series_pow(p, t, order)
                assert got == SeriesPoly(reference_grid_pow(row_p, t)[0]), (order, length, t)
            unit = SeriesPoly([1] + list(p.coeffs[1:]))
            row_unit = [[Fraction(1)] + row_p[0][1:]]
            got = series.series_log(unit, order)
            assert got == SeriesPoly(reference_grid_log(row_unit)[0]), (order, length)


# pairwise coprime: powers of distinct primes, each above 10**13
COPRIME_DENOMINATORS = (2 ** 47, 3 ** 29, 5 ** 19, 7 ** 16, 11 ** 13, 13 ** 12, 17 ** 11)


def _mixed_entry(rng):
    """A negative or positive Fraction over a large coprime denominator, an int or a float."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.choice(COPRIME_DENOMINATORS))
    return rng.randint(-9, 9) if kind == 1 else rng.uniform(-4, 4)


@pytest.mark.parametrize("y_order, z_order", [(0, 5), (1, 2), (2, 3)])
def test_integer_engine_matches_reference_on_large_denominators(y_order, z_order):
    rng = random.Random(1000 + 10 * y_order + z_order)
    a = [[_mixed_entry(rng) for _ in range(z_order + 1)] for _ in range(y_order + 1)]
    b = [[_mixed_entry(rng) for _ in range(z_order + 1)] for _ in range(y_order + 1)]
    exact = [[F(x) for x in row] for row in a]
    assert series.bivar_mul(a, b) == reference_grid_mul(exact, [[F(x) for x in row] for row in b])
    for t in range(1, 34):
        assert series.bivar_pow(a, t) == reference_grid_pow(exact, t), t
    unit = [[e == 0] + row[1:] for e, row in enumerate(a)]
    assert series.bivar_log(unit) == reference_grid_log(_with_unit_column(exact))


def test_graded_scale_of_the_exponential_is_the_factorials():
    """The scale stays at the true denominators of exp's powers: m!, not (z_order!)**m."""
    exp = list(series.deformed_exp_truncated(1, 12).coeffs)
    scale, cofactors, ((d, (col0, *_)),) = series._columns([exp])
    assert scale == [factorial(m) for m in range(13)]
    assert cofactors[4][3] == comb(7, 3) and (d, col0) == (1, [1])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")], ids=str)
def test_non_finite_coefficients_rejected(bad):
    grid = [[F(1), 2, 0.5], [0, bad, 3]]
    ones = [[1, 1, 1], [1, 1, 1]]
    ops = [lambda: series.bivar_mul(grid, ones), lambda: series.bivar_mul(ones, grid)]
    ops += [lambda: series.bivar_log(grid), lambda: series.bivar_log([[bad, 1], [0, 1]])]
    ops += [lambda t=t: series.bivar_pow(grid, t) for t in EXPONENTS]
    ops += [lambda: SeriesPoly([1, bad]), lambda: SeriesPoly([bad])]
    ops += [lambda: series.deformed_exp_truncated(bad, 3)]
    for op in ops:
        with pytest.raises(ValueError, match=re.escape(f"must be finite, got {bad!r}")):
            op()


def test_engine_does_no_fraction_arithmetic(monkeypatch):
    """Entries become Fractions only on the way out; between, every operation is on ints."""
    p = series.deformed_exp_truncated(F(7, 3), 9)
    grid = series.deformed_exp_bivariate(4, 5)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside the series engine")

    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(F, f"__{name}__", refuse)
        monkeypatch.setattr(F, f"__r{name}__", refuse)
    for name in ("__neg__", "__eq__", "__lt__", "__bool__", "__hash__"):
        monkeypatch.setattr(F, name, refuse)
    series.series_mul(p, p, 9)
    series.series_pow(p, 5, 9)
    series.series_log(p, 9)
    series.bivar_mul(grid, grid)
    series.bivar_pow(grid, 7)
    series.bivar_log(grid)


# SHA-256 of str() of the benchmark's largest library calls, as the
# Fraction-by-Fraction engine computed them
LIBRARY_PINS = [
    ("series_log", lambda: series.series_log(series.deformed_exp_truncated(2, 20), 20),
     "8cdeb232d0cbd657aeef1d23c7bcc15e1138b40632815b47df6737fcde1728ca"),
    ("series_pow", lambda: series.series_pow(series.deformed_exp_truncated(2, 20), 5, 20),
     "95142be0bd5ca4c1f86ecc8ea773bfd81abd21775046f854f13dc2a627a50740"),
    ("bivar_log", lambda: series.bivar_log(series.deformed_exp_bivariate(comb(7, 2), 7)),
     "08da1598400ec42134e8aacdf03d1443f163ec576849a43406eed89d91f2fcbd"),
    ("bivar_pow", lambda: series.bivar_pow(series.deformed_exp_bivariate(comb(6, 2), 6), 4),
     "610f19d0daf6dde21f97b2ef764f8b58f4b5fb1cb40b08237d30984475b3bb5f"),
]


@pytest.mark.parametrize("call, digest", [pin[1:] for pin in LIBRARY_PINS],
                         ids=[pin[0] for pin in LIBRARY_PINS])
def test_library_results_are_unchanged(call, digest):
    assert hashlib.sha256(str(call()).encode()).hexdigest() == digest
