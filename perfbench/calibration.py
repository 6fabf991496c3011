"""Scale measured times to a fixed machine speed.

On a shared two-vCPU virtual machine (Intel Xeon), the speed of
pure-Python code swings by up to 1.7x for seconds to minutes at a time,
whatever runs.  A run of 15-20 s often falls inside one such period,
so raw times of identical runs spread by 15-25% and more
(interquartile range over median), too wide for a 25% regression
bound.  A fixed kernel that does not use knot818 slows by about the
same factor: over 150 s, the ratio of a Burau product's time to the
kernel's time spread by 2% where the raw time spread by 17%.

So the benchmark runs the kernel next to every timed op and scales each
op's time by REFERENCE_S over the kernel's local time.  Every reported
time is therefore the time on a machine where the kernel takes
REFERENCE_S; the raw figures are printed in the provenance line.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the kernel's time on an undisturbed vCPU of the machine above.
REFERENCE_S = 1.25e-3


def kernel() -> int:
    """Fixed pure-Python work: tuples, strings, dict stores, int arithmetic."""
    table = {}
    acc = 0
    for i in range(3000):
        item = (i, i * 7 % 13, str(i))
        table[item[1], i & 63] = item
        acc += len(item[2]) * (i % 5)
    return acc + len(table)


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def op_factors(samples: list[float]) -> list[float]:
    """Scale factor for each op from the kernel runs around it.

    ``samples[j]`` ran just before op j and ``samples[j + 1]`` just
    after it; op j takes the median of samples j-1 .. j+2.
    """
    return [
        REFERENCE_S / statistics.median(samples[max(0, j - 1) : j + 3])
        for j in range(len(samples) - 1)
    ]


def around(fn):
    """(fn(), scale factor) with two kernel runs before and two after."""
    before = [sample(), sample()]
    out = fn()
    return out, REFERENCE_S / statistics.median(before + [sample(), sample()])
