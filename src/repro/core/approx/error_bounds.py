"""Error-bound propagation for approximate answers.

Every approximate answer must carry "an indication of the error that is to
be expected" (§2).  For per-row answers that indication is the residual
standard error of the model that produced the value; for aggregates the
per-row errors combine according to standard error-propagation rules under
the (paper-consistent) assumption of independent, zero-mean residuals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorEstimate", "aggregate_error", "combine_independent", "extreme_value_error"]


@dataclass(frozen=True)
class ErrorEstimate:
    """A symmetric error estimate attached to an approximate value."""

    value: float
    standard_error: float

    @property
    def lower(self) -> float:
        return self.value - 1.96 * self.standard_error

    @property
    def upper(self) -> float:
        return self.value + 1.96 * self.standard_error

    @property
    def relative_error(self) -> float:
        if self.value == 0:
            return math.inf if self.standard_error > 0 else 0.0
        return abs(self.standard_error / self.value)

    def __str__(self) -> str:
        return f"{self.value:.6g} ± {1.96 * self.standard_error:.3g}"


def combine_independent(errors: "Sequence[float] | np.ndarray") -> float:
    """Standard error of a sum of independent errors (root-sum-square)."""
    return float(np.sqrt(np.sum(np.square(np.asarray(errors, dtype=np.float64)))))


def extreme_value_error(
    per_row_error: "float | np.ndarray", n_rows: "float | np.ndarray"
) -> "float | np.ndarray":
    """Standard error for MIN/MAX of a model over ``n_rows`` noisy raw rows.

    The model predicts the *noise-free* extreme; the observed extreme of
    ``n`` rows with residual sd ``per_row_error`` concentrates around
    ``per_row_error * sqrt(2 ln n)`` beyond it (the Gaussian extreme-value
    rate), so that is the honest band to attach — the plain per-row error
    undercovers for any non-trivial group size.  Scalars or aligned arrays
    (one entry per group).
    """
    return per_row_error * np.sqrt(2.0 * np.log(np.maximum(n_rows, 2.0)))


def aggregate_error(function: str, per_row_error: float, n_rows: int) -> float:
    """Standard error of an aggregate computed over model-generated rows.

    Assuming independent per-row residuals with standard deviation
    ``per_row_error``:

    * ``sum`` — errors add in quadrature: ``per_row_error * sqrt(n)``;
    * ``avg`` — the error of the mean: ``per_row_error / sqrt(n)``;
    * ``min`` / ``max`` — bounded by the per-row error of the extreme row;
    * ``count`` — counting model-generated rows is exact given the
      enumeration, so 0 (legality false-positives are reported separately);
    * ``stddev`` / ``var`` — conservatively the per-row error itself.
    """
    function = function.lower()
    if n_rows <= 0:
        return 0.0
    if function == "sum":
        return per_row_error * math.sqrt(n_rows)
    if function == "avg":
        return per_row_error / math.sqrt(n_rows)
    if function in ("min", "max"):
        return per_row_error
    if function == "count":
        return 0.0
    if function in ("stddev", "var"):
        return per_row_error
    return per_row_error
