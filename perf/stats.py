"""Order statistics used by the runner and the comparer."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as the driver computes them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    mid = median(values)
    if mid == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an unsorted sample, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def summary(values: Sequence[float]) -> dict[str, float]:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
