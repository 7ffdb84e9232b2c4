"""Prediction helpers: point predictions with uncertainty intervals.

Approximate answers must come "with error bounds" (Figure 2, step 5).  For a
fitted model, the simplest honest bound is the residual standard error; for
linear models we can do better and propagate the parameter covariance into a
per-point prediction interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.fitting.distributions import student_t_quantile
from repro.fitting.model import FitResult

__all__ = ["PredictionInterval", "predict_interval"]


@dataclass(frozen=True)
class PredictionInterval:
    """A point prediction with a symmetric uncertainty interval."""

    value: float
    standard_error: float
    lower: float
    upper: float
    confidence: float

    def contains(self, observed: float) -> bool:
        return self.lower <= observed <= self.upper

    def __str__(self) -> str:
        return f"{self.value:.6g} ± {self.upper - self.value:.3g} ({self.confidence:.0%})"


def predict_interval(
    fit: FitResult,
    inputs: Mapping[str, float] | Mapping[str, np.ndarray],
    confidence: float = 0.95,
) -> list[PredictionInterval]:
    """Predict outputs with prediction intervals for each input point.

    Scalar inputs are treated as single points.  For families with a known
    design matrix and covariance, the interval accounts for both parameter
    uncertainty and residual noise; otherwise the residual standard error
    alone is used (a conservative, model-agnostic bound).  ``confidence`` is
    a probability strictly between 0 and 1; anything else is a ``ValueError``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence!r}")
    arrays = {
        name: np.atleast_1d(np.asarray(value, dtype=np.float64)) for name, value in inputs.items()
    }
    n_points = len(next(iter(arrays.values())))
    t_value = student_t_quantile(0.5 + confidence / 2.0, max(fit.degrees_of_freedom, 1))

    standard_errors = np.full(n_points, fit.residual_standard_error, dtype=np.float64)
    if fit.family.is_linear:
        # One design matrix serves the prediction and the covariance term.
        design = fit.design_matrix(arrays)
        predictions = design @ np.asarray(fit.params, dtype=np.float64)
        if fit.covariance is not None and np.all(np.isfinite(fit.covariance)):
            param_variance = np.einsum("ij,jk,ik->i", design, fit.covariance, design)
            param_variance = np.clip(param_variance, 0.0, None)
            standard_errors = np.sqrt(fit.residual_standard_error**2 + param_variance)
    else:
        predictions = fit.predict(arrays)

    intervals = []
    for value, se in zip(predictions, standard_errors):
        margin = t_value * float(se)
        intervals.append(
            PredictionInterval(
                value=float(value),
                standard_error=float(se),
                lower=float(value) - margin,
                upper=float(value) + margin,
                confidence=confidence,
            )
        )
    return intervals
