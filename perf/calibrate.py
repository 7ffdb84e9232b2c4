"""A fixed reference kernel that tells how fast the machine was during a run.

The 2-vCPU sandbox this benchmark runs on drifts: for minutes at a time the
same code runs 1.2-1.6x slower (a neighbour on the sibling hardware thread).
Every run times this kernel once between its rounds, outside every timed
region, and reports ``median(sample) / NOMINAL_S`` as
``perf.machine_speed_factor``.  It is information for whoever reads a slow
run: no metric is scaled by it, because the kernel shares the process with
the program under test and would divide out a slowdown the program causes.

The kernel is half interpreter work (dict, arithmetic, loop) and half NumPy
work (mask, gather, bincount, sort), the two kinds of work the program does.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: What one sample takes on the sandbox in a quiet phase; the factor is 1.0 there.
NOMINAL_S = 0.015

_rng = np.random.default_rng(20260928)
_VALUES = _rng.normal(size=200_000)
_KEYS = _rng.integers(0, 1000, 200_000)


def sample() -> float:
    """Seconds one pass of the reference kernel takes right now."""
    begin = perf_counter()
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(45_000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + i
        total += key * 0.5
    sorted(counts.items())
    for _ in range(3):
        mask = _VALUES > 0.1
        _VALUES[mask].sum()
        np.bincount(_KEYS, weights=_VALUES, minlength=1000)
        np.argsort(_VALUES[:40_000])
    return perf_counter() - begin


def speed_factor(timings: list[float]) -> float:
    """> 1 when the machine is slower than nominal: median sample / nominal."""
    return statistics.median(timings) / NOMINAL_S
