"""Truncated power series with exact rational coefficients.

One engine does the arithmetic: bivariate truncations, grids indexed
[e][m] by y-degree e and z-degree m, with multiply, integer powers (by
repeated squaring) and log (by the recurrence from (log a)' a = a').  The
univariate SeriesPoly operations run on that engine as one-row grids.  Every
grid enters through one door, _columns, which checks its shape and makes
each entry an exact Fraction.  The one truncated product of y-polynomials
is _add_product; bivar_mul and bivar_log are its only callers.  Alongside
sit the deformed exponential series sum_m alpha**m * beta**C(m,2) / m! in
one and two variables, whose two-variable identities are checked against
the graph tables.

All coefficients are fractions.Fraction.  A float entry is read as the exact
binary fraction it stores, so no floating-point arithmetic happens.
"""

from fractions import Fraction
from math import comb, factorial


def _strip(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class SeriesPoly:
    """Dense coefficient list; index m holds the coefficient of the m-th power.

    Trailing zeros are insignificant for equality and hashing.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def coeff(self, m: int) -> Fraction:
        """Coefficient of the m-th power (0 beyond the stored truncation)."""
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        return _strip(self.coeffs) == _strip(other.coeffs)

    def __hash__(self):
        return hash(_strip(self.coeffs))

    def __repr__(self):
        return "SeriesPoly([" + ", ".join(str(c) for c in self.coeffs) + "])"


def _one_row(p: SeriesPoly, order: int) -> list[list[Fraction]]:
    """p padded or truncated to order + 1 coefficients, as a one-row grid."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [[p.coeff(m) for m in range(order + 1)]]


def series_mul(p: SeriesPoly, q: SeriesPoly, order: int) -> SeriesPoly:
    """Product truncated after the coefficient of the order-th power."""
    return SeriesPoly(bivar_mul(_one_row(p, order), _one_row(q, order))[0])


def series_pow(p: SeriesPoly, exponent: int, order: int) -> SeriesPoly:
    """p raised to a positive integer power, truncated at the given order."""
    return SeriesPoly(bivar_pow(_one_row(p, order), exponent)[0])


def series_log(p: SeriesPoly, order: int) -> SeriesPoly:
    """Logarithm of a series with constant term 1, truncated at the given order."""
    return SeriesPoly(bivar_log(_one_row(p, order))[0])


def deformed_exp_truncated(beta, order: int) -> SeriesPoly:
    """Deformed exponential in alpha: coefficient of alpha**m is beta**C(m,2) / m!.

    beta = 0 collapses the series to 1 + alpha, and beta = 1 gives exp.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    beta = Fraction(beta)
    return SeriesPoly([beta ** comb(m, 2) / factorial(m) for m in range(order + 1)])


# --- bivariate truncations -------------------------------------------------
#
# A bivariate truncation is a rectangular grid: entry [e][m] is the
# coefficient of y**e z**m.  Entries may be ints, Fractions or floats; the
# results are Fractions.  All operations truncate at the grid's shape.


def deformed_exp_bivariate(y_order: int, z_order: int) -> list[list[Fraction]]:
    """Deformed exponential evaluated at (z, 1 + y) as a bivariate truncation.

    Entry [e][m] is C(C(m,2), e) / m!, since (1+y)**C(m,2) expands binomially.
    """
    if y_order < 0 or z_order < 0:
        raise ValueError("orders must be >= 0")
    return [
        [Fraction(comb(comb(m, 2), e), factorial(m)) for m in range(z_order + 1)]
        for e in range(y_order + 1)
    ]


def _columns(*grids):
    """Each grid's columns, the y-polynomials, every entry made an exact Fraction.

    The one door into the engine: every bivar_* operation reads its grids
    here, so all grids must share one rectangular shape of at least one row
    and one column.
    """
    for a in grids:
        if not a or not a[0] or any(len(row) != len(a[0]) for row in a):
            raise ValueError("a bivariate grid needs at least one row, all of the same length")
    if len({(len(a), len(a[0])) for a in grids}) > 1:
        raise ValueError("bivariate operands must share a shape")
    return [[tuple(x if type(x) is Fraction else Fraction(x) for x in col) for col in zip(*a)]
            for a in grids]


def _add_product(acc, p, q):
    """acc += p * q for y-polynomials p and q, truncated at acc's length."""
    for e1, x in enumerate(p):
        if x:
            for e2 in range(len(acc) - e1):
                if q[e2]:
                    acc[e1 + e2] += x * q[e2]


def bivar_mul(a, b) -> list[list[Fraction]]:
    """Product of two same-shape bivariate truncations, truncated to that shape."""
    cols_a, cols_b = _columns(a, b)
    out = [[Fraction(0)] * len(a) for _ in cols_a]
    for m1, p in enumerate(cols_a):
        for m2 in range(len(cols_a) - m1):
            _add_product(out[m1 + m2], p, cols_b[m2])
    return [[col[e] for col in out] for e in range(len(a))]


def bivar_pow(a, exponent: int) -> list[list[Fraction]]:
    """a raised to a positive integer power, by squaring from the top bit."""
    if exponent < 1:
        raise ValueError(f"exponent must be a positive integer, got {exponent}")
    a = out = [list(row) for row in zip(*_columns(a)[0])]
    for bit in bin(exponent)[3:]:
        out = bivar_mul(out, out)
        if bit == "1":
            out = bivar_mul(out, a)
    return out


def bivar_log(a) -> list[list[Fraction]]:
    """Logarithm of a bivariate truncation whose z-constant column is exactly 1.

    Column m of a is the y-polynomial a_m, and L = log a satisfies
    z L' a = z a', so with a_0 = 1:

        m L_m = m a_m - sum_{0<j<m} j L_j a_{m-j},

    each product a y-polynomial truncated at the grid's y-order.
    """
    (cols,) = _columns(a)
    ey = len(a) - 1
    if cols[0] != (1,) + (0,) * ey:
        raise ValueError("log requires the z-constant coefficient to be exactly 1")
    neg = [None]  # neg[j] = -j * L_j, so the sum above is added, not subtracted
    out = [[Fraction(0)] * (ey + 1)]
    for m in range(1, len(cols)):
        acc = [m * c for c in cols[m]]
        for j in range(1, m):
            _add_product(acc, neg[j], cols[m - j])
        neg.append([-x for x in acc])
        out.append([x / m for x in acc])
    return [[col[e] for col in out] for e in range(ey + 1)]
