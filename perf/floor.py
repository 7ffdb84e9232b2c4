"""Same-run NumPy floor for the three heaviest exact classes.

The floor is the least work plain NumPy needs for the same answer on the very
arrays loaded into ``fact``/``dim``.  ``db.operators.*_floor_ratio`` is the
engine's time over this — remaining headroom, not distance from a historical
seed.  Every floor result is checked against the oracle's truth (computed a
different way) so the floor cannot get fast by skipping work.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


def scan_filter(data: dict[str, np.ndarray], threshold: float) -> tuple:
    x = data["x"]
    hits = np.flatnonzero(x > threshold)
    return int(hits.size), float(x[hits].sum())


def group_by(data: dict[str, np.ndarray]) -> tuple:
    k, x = data["k"], data["x"]
    groups = int(k.max()) + 1
    counts = np.bincount(k, minlength=groups)
    sums = np.bincount(k, weights=x, minlength=groups)
    # Stable argsort of uint16 keys is a radix sort; of int64 keys it is not.
    order = np.argsort(k.astype(np.uint16) if groups <= 65536 else k, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    sorted_x = x[order]
    return (np.arange(groups), counts, sums, sums / counts,
            np.minimum.reduceat(sorted_x, starts), np.maximum.reduceat(sorted_x, starts))


def join(data: dict[str, np.ndarray]) -> tuple:
    k, x = data["k"], data["x"]
    keys = np.sort(data["k2"][data["w"] > 0])
    slot = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    hits = np.flatnonzero(keys[slot] == k)
    return int(hits.size), float(x[hits].sum())


FLOORS: dict[str, Callable[..., tuple]] = {"scan_filter": scan_filter, "group_by": group_by, "join": join}


def matches(result: tuple, truth: tuple, tolerance: float) -> bool:
    """Whether a floor result equals the oracle's truth column for column."""
    if len(result) != len(truth):
        return False
    return all(
        np.allclose(np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64),
                    rtol=tolerance, atol=0.0)
        for got, want in zip(result, truth)
    )


def run(kind: str, data: dict[str, np.ndarray], params: tuple) -> Any:
    return FLOORS[kind](data, *params)
