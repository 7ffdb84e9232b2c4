"""Error-bound propagation for approximate answers.

Every approximate answer must carry "an indication of the error that is to
be expected" (§2).  For per-row answers that indication is the residual
standard error of the model that produced the value; for aggregates the
per-row errors combine according to standard error-propagation rules under
the (paper-consistent) assumption of independent, zero-mean residuals — the
convention the aggregate kernel states once
(:func:`repro.core.approx.routes.aggcalc.aggregate_values_errors`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorEstimate", "combine_independent", "extreme_value_error"]


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
