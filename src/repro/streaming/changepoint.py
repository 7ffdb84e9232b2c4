"""Multiscale change-point detection over streamed series.

When a drift detector fires, the maintenance policy needs to know *where*
the data-generating law changed so it can segment the table and refit one
model per regime.  This module implements a SMUCE-flavoured test (Frick,
Munk & Sieling, "Multiscale change-point inference"): binary segmentation
driven by the standardized CUSUM statistic, where each interval of length
``m`` inside a series of length ``n`` must clear

    ``q + sqrt(2 * log(n / m)) + sqrt(2 * log(m))``

— the first penalty term charges the number of intervals at that scale
(shorter intervals must clear a higher bar, SMUCE's multiscale property)
and the second charges the ``m`` candidate split positions the CUSUM scan
maximises over, which together control the family-wise false-alarm rate.

The noise level is estimated robustly from first differences (MAD), so a
step function with large jumps does not inflate its own noise estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fitting.metrics import median

__all__ = [
    "ChangePoint",
    "ChangePointResult",
    "estimate_noise_sigma",
    "find_changepoints",
]


@dataclass(frozen=True)
class ChangePoint:
    """One detected change: ``index`` is the first observation of the new regime."""

    index: int
    statistic: float
    critical_value: float

    @property
    def margin(self) -> float:
        return self.statistic - self.critical_value


@dataclass
class ChangePointResult:
    """All change points found in a series, with the segmentation they induce."""

    n: int
    sigma: float
    changepoints: list[ChangePoint] = field(default_factory=list)

    @property
    def indices(self) -> list[int]:
        return [cp.index for cp in self.changepoints]

    def segments(self) -> list[tuple[int, int]]:
        """Half-open ``[start, stop)`` row ranges between change points."""
        boundaries = [0, *self.indices, self.n]
        return [(boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)]

    def segment_means(self, values: np.ndarray) -> list[float]:
        values = np.asarray(values, dtype=np.float64)
        return [float(np.nanmean(values[start:stop])) for start, stop in self.segments()]

    def describe(self) -> str:
        if not self.changepoints:
            return f"no change points in {self.n} observations (sigma={self.sigma:.4g})"
        points = ", ".join(
            f"@{cp.index} (T={cp.statistic:.2f} > q={cp.critical_value:.2f})"
            for cp in self.changepoints
        )
        return f"{len(self.changepoints)} change point(s) in {self.n} observations: {points}"


def estimate_noise_sigma(values: np.ndarray) -> float:
    """Robust noise scale from the MAD of first differences.

    Differencing removes piecewise-constant (and slowly varying) signal, so
    the estimate reflects observation noise rather than regime jumps; the
    constants rescale the MAD of a difference of two gaussians to sigma.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if len(values) < 3:
        return float("nan")
    diffs = np.diff(values)
    mad = median(np.abs(diffs - median(diffs)))
    sigma = mad / (np.sqrt(2.0) * 0.67448975)
    if sigma <= 0.0:
        # Constant stretches can zero out the MAD; fall back to the plain std.
        sigma = float(np.std(diffs)) / np.sqrt(2.0)
    return max(sigma, 1e-12)


def _max_cusum(values: np.ndarray, sigma: float, min_segment: int) -> tuple[int, float]:
    """The maximally standardized mean-difference statistic over one interval.

    For a split after position ``k`` the statistic is the two-sample z-score
    of the left/right means; the returned index is the first row of the
    right-hand segment (relative to the interval).
    """
    n = len(values)
    cumulative = np.cumsum(values)
    total = cumulative[-1]
    k = np.arange(min_segment, n - min_segment + 1, dtype=np.float64)
    if len(k) == 0:
        return -1, 0.0
    left_mean = cumulative[min_segment - 1 : n - min_segment] / k
    right_mean = (total - cumulative[min_segment - 1 : n - min_segment]) / (n - k)
    scale = sigma * np.sqrt(1.0 / k + 1.0 / (n - k))
    statistics = np.abs(left_mean - right_mean) / scale
    best = int(np.argmax(statistics))
    return min_segment + best, float(statistics[best])


def find_changepoints(
    values: np.ndarray,
    min_segment: int = 16,
    max_changepoints: int = 8,
    significance: float = 2.5,
    sigma: float | None = None,
) -> ChangePointResult:
    """Detect change points in ``values`` by multiscale binary segmentation.

    Parameters
    ----------
    values:
        The series, in arrival order.  Non-finite entries are interpolated
        away by carrying the previous finite value.
    min_segment:
        Minimum number of observations per resulting segment.
    max_changepoints:
        Upper bound on the number of reported change points (the strongest
        by statistic margin are kept).
    significance:
        Base critical value ``q``; each interval of length ``m`` inside a
        series of length ``n`` must clear
        ``q + sqrt(2 * log(n / m)) + sqrt(2 * log(m))``.
    sigma:
        Known noise standard deviation; estimated robustly when omitted.
    """
    series = np.asarray(values, dtype=np.float64).copy()
    n = len(series)
    finite = np.isfinite(series)
    if not finite.all() and finite.any():
        # Carry the last finite observation forward (then backward for a
        # non-finite prefix) so index positions stay aligned with the table.
        fill_value = series[finite][0]
        for i in range(n):
            if finite[i]:
                fill_value = series[i]
            else:
                series[i] = fill_value
    if sigma is None:
        sigma = estimate_noise_sigma(series)
    result = ChangePointResult(n=n, sigma=float(sigma))
    if n < 2 * min_segment or not np.isfinite(sigma):
        return result

    found: list[ChangePoint] = []
    stack = [(0, n)]
    while stack:
        start, stop = stack.pop()
        length = stop - start
        if length < 2 * min_segment:
            continue
        split, statistic = _max_cusum(series[start:stop], sigma, min_segment)
        if split < 0:
            continue
        critical = significance + float(
            np.sqrt(2.0 * np.log(n / length)) + np.sqrt(2.0 * np.log(length))
        )
        if statistic <= critical:
            continue
        index = start + split
        found.append(ChangePoint(index=index, statistic=statistic, critical_value=critical))
        stack.append((start, index))
        stack.append((index, stop))

    if len(found) > max_changepoints:
        found = sorted(found, key=lambda cp: cp.margin, reverse=True)[:max_changepoints]
    result.changepoints = sorted(found, key=lambda cp: cp.index)
    return result
