"""Exact counting of linear-congruence solutions with pairwise-distinct coordinates.

Given a1*x1 + ... + ak*xk = b (mod n), this package counts the solution
tuples in Z_n**k whose coordinates are all different: in closed form when
every nonempty proper subset of the coefficients sums to a unit mod n, and by
three independent exact oracles (direct enumeration, inclusion-exclusion over
equality patterns, and its set-partition compression) with no condition at
all.  Supporting machinery -- Lehmer's unrestricted count, the
Rademacher-Brauer unit-coordinate count, labeled-graph enumeration tables,
and exact truncated power series -- is exposed as well.  All arithmetic is
exact: unbounded integers and rationals, never floating point.
"""

from types import ModuleType as _ModuleType

from .arith import binomial, euler_phi, factorize, falling_factorial, gcd_many, is_prime
from .congruence import (
    CongruenceInstance,
    ConditionReport,
    check_condition,
    distinct_count_formula,
    formula_count,
    lehmer_count,
    rademacher_brauer_count,
    schoenemann_count,
)
from .errors import HypothesisError, ResourceLimitError
from .graphenum import GraphCountTable, component_counts, connected_counts
from .methods import METHODS, auto_count, distinct_count, try_count
from .oracle import (
    all_pairs,
    brute_force_distinct,
    iep_edge_subsets,
    iep_partitions,
    pattern_components,
    pattern_count,
)
from .series import (
    SeriesPoly,
    bivar_log,
    bivar_mul,
    bivar_pow,
    deformed_exp_bivariate,
    deformed_exp_truncated,
    series_log,
    series_mul,
    series_pow,
)

__version__ = "0.1.0"

# the imports above are the one list of public names
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
