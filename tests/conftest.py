from itertools import product

import pytest

from congcount.congruence import METHODS, CongruenceInstance, distinct_count
from congcount.errors import HypothesisError


@pytest.fixture(scope="session")
def exhaustive_grid():
    """Every method's answer on the exhaustive acceptance grid, computed once.

    Each coefficient vector in [0, n)**k, n <= 8, k <= 4, is visited once, and
    each method in METHODS runs once per (coeffs, b, n) through the dispatch.
    Yields (coeffs, n, {method: [count for b in range(n)]}), a refusal
    (HypothesisError) recorded as None.
    """
    grid = []
    for n in range(1, 9):
        for k in range(1, 5):
            for coeffs in product(range(n), repeat=k):
                answers = {method: [] for method in METHODS}
                for b in range(n):
                    inst = CongruenceInstance(coeffs, b, n)
                    for method, counts in answers.items():
                        try:
                            counts.append(distinct_count(inst, method))
                        except HypothesisError:
                            counts.append(None)
                grid.append((coeffs, n, answers))
    return grid
