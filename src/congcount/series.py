"""Truncated power series with exact rational coefficients.

One engine does the arithmetic: bivariate truncations, grids indexed
[e][m] by y-degree e and z-degree m, with multiply, integer powers (by
repeated squaring) and log (by the recurrence from (log a)' a = a').  The
univariate SeriesPoly operations run on that engine as one-row grids.
Alongside sit the deformed exponential series sum_m alpha**m * beta**C(m,2)
/ m! in one and two variables, and the three-variable Rogers-Ramanujan term
with q-factorial denominators.  The two-variable identities are checked
against the graph tables.

All coefficients are fractions.Fraction; floating point never enters.
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


def rr_series_term(m: int, alpha, beta, q) -> Fraction:
    """The m-th term of the three-variable Rogers-Ramanujan series.

    Returns alpha**m * beta**C(m,2) divided by the q-factorial product
    (1+q)(1+q+q**2)...(1+q+...+q**(m-1)); the product is empty (= 1) for
    m in {0, 1}.  At q = 1 the denominator is m!, recovering the deformed
    exponential term.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    alpha, beta, q = Fraction(alpha), Fraction(beta), Fraction(q)
    denom = Fraction(1)
    for i in range(1, m):
        denom *= sum((q ** j for j in range(i + 1)), Fraction(0))
    if denom == 0:
        raise ValueError(f"q-factorial denominator vanishes at q = {q}, m = {m}")
    return alpha ** m * beta ** comb(m, 2) / denom


# --- bivariate truncations -------------------------------------------------
#
# A bivariate truncation is a rectangular grid of Fractions: entry [e][m] is
# the coefficient of y**e z**m.  All operations truncate at the grid's shape.


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


def _bivar_shape(a):
    if not a or any(len(row) != len(a[0]) for row in a):
        raise ValueError("a bivariate grid needs at least one row, all of the same length")
    return len(a) - 1, len(a[0]) - 1


def bivar_mul(a, b) -> list[list[Fraction]]:
    """Product of two same-shape bivariate truncations, truncated to that shape."""
    if _bivar_shape(a) != _bivar_shape(b):
        raise ValueError("bivariate operands must share a shape")
    ey, ez = _bivar_shape(a)
    out = [[Fraction(0)] * (ez + 1) for _ in range(ey + 1)]
    for e1 in range(ey + 1):
        for m1 in range(ez + 1):
            c = a[e1][m1]
            if not c:
                continue
            for e2 in range(ey + 1 - e1):
                row_b = b[e2]
                row_out = out[e1 + e2]
                for m2 in range(ez + 1 - m1):
                    if row_b[m2]:
                        row_out[m1 + m2] += c * row_b[m2]
    return out


def bivar_pow(a, exponent: int) -> list[list[Fraction]]:
    """a raised to a positive integer power, by repeated squaring."""
    if exponent < 1:
        raise ValueError(f"exponent must be a positive integer, got {exponent}")
    out = None
    while True:
        if exponent & 1:
            out = [row[:] for row in a] if out is None else bivar_mul(out, a)
        exponent >>= 1
        if not exponent:
            return out
        a = bivar_mul(a, a)


def bivar_log(a) -> list[list[Fraction]]:
    """Logarithm of a bivariate truncation whose z-constant column is exactly 1.

    Column m of a is the y-polynomial a_m, and L = log a satisfies
    z L' a = z a', so with a_0 = 1:

        m L_m = m a_m - sum_{0<j<m} j L_j a_{m-j},

    each product a y-polynomial truncated at the grid's y-order.
    """
    ey, ez = _bivar_shape(a)
    cols = [[row[m] for row in a] for m in range(ez + 1)]
    if cols[0] != [1] + [0] * ey:
        raise ValueError("log requires the z-constant coefficient to be exactly 1")
    scaled = [None]  # scaled[j] = j * L_j
    for m in range(1, ez + 1):
        fm = Fraction(m)
        acc = [fm * c for c in cols[m]]
        for j in range(1, m):
            col = cols[m - j]
            for e1, x in enumerate(scaled[j]):
                if not x:
                    continue
                for e2 in range(ey + 1 - e1):
                    if col[e2]:
                        acc[e1 + e2] -= x * col[e2]
        scaled.append(acc)
    return [[Fraction(0)] + [scaled[m][e] / m for m in range(1, ez + 1)] for e in range(ey + 1)]
