"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark divides its timings by this loop's time (see README, "Timings
are normalised to the host's speed").  The loop touches no congcount code,
so no change to the package can move it.  This module imports nothing
heavy, because the set-up probe imports it before timing congcount's import.
"""

from math import gcd
from time import perf_counter

# The loop's median time on the 2-vCPU Xeon VM the benchmark was defined on;
# normalised times are given at that speed.
REFERENCE_MS = 0.33


def _loop():
    total = 0
    for i in range(1000):
        t = (i, i + 1, i * 7)
        total += gcd(sum(t), 1009) + (i * i) % 13
    return total


def reference_time():
    """Seconds for one run of the reference loop."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0
