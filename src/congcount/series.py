"""Truncated power series with exact rational coefficients.

One engine does the arithmetic: bivariate truncations, grids indexed
[e][m] by y-degree e and z-degree m, with multiply, integer powers (by
repeated squaring) and log (by the recurrence from (log a)' a = a').  The
univariate SeriesPoly operations run on that engine as one-row grids.

The engine computes in Python ints.  Every grid enters through one door,
_columns, which checks its shape, reads each entry as an exact Fraction and
writes each column m (a y-polynomial) as integers over one denominator per
z-degree: d * scale[m], d from column 0 and scale[i] * scale[j] dividing
scale[i+j].  So a product's column m is an integer sum over scale[m] again,
with an integer cofactor per column pair.  Products, powers and logs take
no gcd: each result entry becomes a Fraction once, on the way out.  The one
truncated product of integer y-polynomials is _add_product; the grid
product _mul (which bivar_mul and bivar_pow call) and bivar_log are its only
callers.  Alongside sit the deformed exponential series
sum_m alpha**m * beta**C(m,2) / m! in one and two variables, whose
two-variable identities are checked against the graph tables.

All coefficients are fractions.Fraction.  A float entry is read as the exact
binary fraction it stores, so no floating-point arithmetic happens; an
infinite or NaN float is refused with a ValueError.
"""

from fractions import Fraction
from math import comb, factorial, isfinite, lcm


def _fraction(x) -> Fraction:
    """x as an exact Fraction; a float is read as the exact binary fraction it stores."""
    if isinstance(x, float) and not isfinite(x):
        raise ValueError(f"series coefficients must be finite, got {x!r}")
    return x if type(x) is Fraction else Fraction(x)


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
        self.coeffs = tuple(map(_fraction, coeffs))

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
    beta = _fraction(beta)
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
    """The grids as integer columns over one graded scale: (scale, cofactors, [(d, cols)]).

    The one door into the engine: every bivar_* operation reads its grids
    here, so all grids must share one rectangular shape of at least one row
    and one column.  Column m of a grid a is the y-polynomial a_m.

    scale[0] = 1, and scale[m] is the lcm of the denominators in every grid's
    column m and of scale[j] * scale[m-j] for 0 < j < m, so scale[i] * scale[j]
    divides scale[i+j] and cofactors[i][j] = scale[i+j] / (scale[i] * scale[j])
    is an integer.  d is the lcm of the denominators in the grid's column 0,
    and cols[m] holds the integers d * scale[m] * a_m.
    """
    for a in grids:
        if not a or not a[0] or any(len(row) != len(a[0]) for row in a):
            raise ValueError("a bivariate grid needs at least one row, all of the same length")
    if len({(len(a), len(a[0])) for a in grids}) > 1:
        raise ValueError("bivariate operands must share a shape")
    exact = [[[_fraction(x) for x in col] for col in zip(*a)] for a in grids]
    scale = [1]
    for m in range(1, len(exact[0])):
        scale.append(lcm(*[x.denominator for cols in exact for x in cols[m]],
                         *[scale[j] * scale[m - j] for j in range(1, m // 2 + 1)]))
    cofactors = [[s // (x * y) for y, s in zip(scale, scale[i:])] for i, x in enumerate(scale)]
    heads = [lcm(*[x.denominator for x in cols[0]]) for cols in exact]
    return scale, cofactors, [
        (d, [[x.numerator * (d * s // x.denominator) for x in col] for col, s in zip(cols, scale)])
        for d, cols in zip(heads, exact)
    ]


def _grid(cols, dens):
    """The grid whose column m is the integer y-polynomial cols[m] over dens[m], as Fractions."""
    return [[Fraction(col[e], den) for col, den in zip(cols, dens)] for e in range(len(cols[0]))]


def _add_product(acc, p, q, k):
    """acc += k * p * q for integer y-polynomials p and q, truncated at acc's length."""
    for e1, x in enumerate(p):
        if x:
            x *= k
            for e2 in range(len(acc) - e1):
                if q[e2]:
                    acc[e1 + e2] += x * q[e2]


def _mul(p, q, cofactors):
    """Product of two grids of integer columns over one graded scale, in that form again.

    Column m of the product is the sum over m1 + m2 = m of p[m1] q[m2] times
    cofactors[m1][m2], truncated to the grids' shape.  A square (p is q) takes
    each pair m1 < m2 once, doubled.
    """
    out = [[0] * len(p[0]) for _ in p]
    square = p is q
    for m1, col in enumerate(p):
        for m2 in range(m1 if square else 0, len(p) - m1):
            _add_product(out[m1 + m2], col, q[m2], cofactors[m1][m2] << (square and m2 > m1))
    return out


def bivar_mul(a, b) -> list[list[Fraction]]:
    """Product of two same-shape bivariate truncations, truncated to that shape."""
    scale, cofactors, ((da, cols_a), (db, cols_b)) = _columns(a, b)
    return _grid(_mul(cols_a, cols_b, cofactors), [da * db * s for s in scale])


def bivar_pow(a, exponent: int) -> list[list[Fraction]]:
    """a raised to a positive integer power, by squaring from the top bit."""
    if exponent < 1:
        raise ValueError(f"exponent must be a positive integer, got {exponent}")
    scale, cofactors, ((d, cols),) = _columns(a)
    out = cols
    for bit in bin(exponent)[3:]:
        out = _mul(out, out, cofactors)
        if bit == "1":
            out = _mul(out, cols, cofactors)
    return _grid(out, [d ** exponent * s for s in scale])


def bivar_log(a) -> list[list[Fraction]]:
    """Logarithm of a bivariate truncation whose z-constant column is exactly 1.

    Column m of a is the y-polynomial a_m, and L = log a satisfies
    z L' a = z a', so with a_0 = 1:

        m L_m = m a_m - sum_{0<j<m} j L_j a_{m-j},

    each product a y-polynomial truncated at the grid's y-order.  In the
    integer columns A_m = S_m a_m of _columns, S = scale (d is 1 here),
    P_m = m L_m S_m is integral too:

        P_m = m A_m - sum_{0<j<m} P_j A_{m-j} S_m / (S_j S_{m-j}),

    and L_m = P_m / (m S_m).
    """
    scale, cofactors, ((d, cols),) = _columns(a)
    if cols[0] != [d] + [0] * (len(a) - 1):
        raise ValueError("log requires the z-constant coefficient to be exactly 1")
    out = [[0] * len(a)]  # out[m] = P_m
    for m in range(1, len(cols)):
        acc = [m * x for x in cols[m]]
        for j in range(1, m):
            _add_product(acc, out[j], cols[m - j], -cofactors[j][m - j])
        out.append(acc)
    return _grid(out, [1] + [m * scale[m] for m in range(1, len(cols))])
