"""The method registry: the names a count can be asked for, and the default route.

distinct_count maps each name in METHODS to its counter, the closed form in
the congruence module or a ground truth in the oracle module; try_count is the
same map with None where the closed form's condition fails, which it decides
without building a failing subset; auto_count picks the route the CLI uses by
default.  Counters are looked up through their modules when called, so a
counter rebound there is the one that runs.
"""

from . import congruence, oracle
from .errors import ResourceLimitError

_COUNTERS = {
    "formula": lambda inst: congruence.distinct_count_formula(inst),
    "iep-edges": lambda inst: oracle.iep_edge_subsets(inst),
    "iep-partitions": lambda inst: oracle.iep_partitions(inst),
    "brute": lambda inst: oracle.brute_force_distinct(inst),
}
METHODS = tuple(_COUNTERS)


def distinct_count(inst: congruence.CongruenceInstance, method: str) -> int:
    """Count by the named method, one of METHODS.

    All methods agree wherever their preconditions overlap; the oracles also
    accept instances the formula refuses.
    """
    if method not in _COUNTERS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _COUNTERS[method](inst)


def try_count(inst: congruence.CongruenceInstance, method: str) -> int | None:
    """distinct_count, or None where the formula's subset-sum gcd condition fails.

    The formula's None comes from congruence.formula_count, which decides the
    condition and builds no failing subset.
    """
    if method == "formula":
        return congruence.formula_count(inst)
    return distinct_count(inst, method)


def auto_count(inst: congruence.CongruenceInstance) -> tuple[int, str]:
    """Count by the first route that answers; returns (count, method name).

    0 by pigeonhole when k > n (Z_n has no k distinct residues), else the
    closed form, else iep-partitions when the formula's condition fails or
    its condition check is over budget.
    """
    if inst.k > inst.n:
        return 0, "pigeonhole"
    try:
        value = try_count(inst, "formula")
    except ResourceLimitError:
        value = None
    if value is None:
        return distinct_count(inst, "iep-partitions"), "iep-partitions"
    return value, "formula"
