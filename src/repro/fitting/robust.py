"""Robust fitting via iteratively re-weighted least squares (IRLS).

Radio-astronomy observations are "subject to a large amount of interference"
(§2); ordinary least squares is sensitive to the resulting outliers.  The
harvester can optionally fit with Huber or Tukey bisquare weights so that a
handful of interference spikes does not ruin an otherwise excellent model —
one of the extension points the paper leaves open.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.errors import FittingError
from repro.fitting.fit import fit_model
from repro.fitting.metrics import adjusted_r_squared, median, r_squared, residual_standard_error
from repro.fitting.model import FitResult, ModelFamily

__all__ = ["huber_weights", "bisquare_weights", "fit_robust"]


def huber_weights(residuals: np.ndarray, k: float = 1.345) -> np.ndarray:
    """Huber weight function: 1 inside the threshold, k/|r| outside."""
    scaled = np.abs(residuals)
    scale = _mad_scale(residuals)
    if scale == 0.0:
        return np.ones_like(scaled)
    scaled = scaled / scale
    weights = np.ones_like(scaled)
    outside = scaled > k
    weights[outside] = k / scaled[outside]
    return weights


def bisquare_weights(residuals: np.ndarray, c: float = 4.685) -> np.ndarray:
    """Tukey bisquare weights: smooth decay to zero beyond the threshold."""
    scale = _mad_scale(residuals)
    if scale == 0.0:
        return np.ones_like(residuals, dtype=np.float64)
    scaled = np.abs(residuals) / scale / c
    weights = np.zeros_like(scaled)
    inside = scaled < 1.0
    weights[inside] = (1.0 - scaled[inside] ** 2) ** 2
    return weights


def _mad_scale(residuals: np.ndarray) -> float:
    """Robust residual scale: median absolute deviation / 0.6745."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if len(residuals) == 0:
        return 0.0
    mad = median(np.abs(residuals - median(residuals)))
    return mad / 0.6745 if mad > 0 else float(np.std(residuals))


_WEIGHT_FUNCTIONS: Mapping[str, Callable[[np.ndarray], np.ndarray]] = MappingProxyType({
    "huber": huber_weights,
    "bisquare": bisquare_weights,
})


def fit_robust(
    family: ModelFamily,
    inputs: Mapping[str, np.ndarray] | np.ndarray,
    y: np.ndarray,
    output_name: str = "y",
    weight_function: str = "huber",
    max_iterations: int = 20,
    tolerance: float = 1e-8,
) -> FitResult:
    """Fit a linear-in-parameters family robustly via IRLS.

    Non-linear families fall back to a two-stage scheme: an initial
    unweighted fit, outlier down-weighting by residual, and one re-fit on the
    surviving observations.
    """
    weight_fn = _WEIGHT_FUNCTIONS.get(weight_function)
    if weight_fn is None:
        raise FittingError(
            f"unknown robust weight function {weight_function!r}; known: {sorted(_WEIGHT_FUNCTIONS)}"
        )

    y = np.asarray(y, dtype=np.float64)

    if not family.is_linear:
        return _fit_robust_nonlinear(family, inputs, y, output_name, weight_fn)

    fit = fit_model(family, inputs, y, output_name=output_name)
    params = fit.params
    for iteration in range(max_iterations):
        residuals = y - fit.predict(inputs)
        weights = weight_fn(residuals)
        new_fit = fit_model(family, inputs, y, output_name=output_name, weights=weights)
        delta = float(np.max(np.abs(new_fit.params - params))) if len(params) else 0.0
        fit = new_fit
        params = fit.params
        if delta <= tolerance:
            break

    predictions = fit.predict(inputs)
    fit.extra["robust"] = weight_function
    fit.extra["irls_iterations"] = iteration + 1
    # Quality metrics are reported against the *unweighted* data so they are
    # comparable with ordinary fits.
    fit.r_squared = r_squared(y, predictions)
    fit.adjusted_r_squared = adjusted_r_squared(y, predictions, family.num_params)
    fit.residual_standard_error = residual_standard_error(y - predictions, family.num_params)
    return fit


def _fit_robust_nonlinear(
    family: ModelFamily,
    inputs: Mapping[str, np.ndarray] | np.ndarray,
    y: np.ndarray,
    output_name: str,
    weight_fn: Callable[[np.ndarray], np.ndarray],
) -> FitResult:
    first = fit_model(family, inputs, y, output_name=output_name)
    residuals = y - first.predict(inputs)
    weights = weight_fn(residuals)
    keep = weights > 0.25  # drop observations the weight function strongly rejects

    if keep.sum() <= family.num_params or keep.all():
        first.extra["robust"] = "none (no usable outlier mask)"
        return first

    if isinstance(inputs, np.ndarray):
        trimmed_inputs: Mapping[str, np.ndarray] | np.ndarray = np.asarray(inputs, dtype=np.float64)[keep]
    else:
        trimmed_inputs = {name: np.asarray(values, dtype=np.float64)[keep] for name, values in inputs.items()}

    refit = fit_model(family, trimmed_inputs, y[keep], output_name=output_name, initial_params=first.params)
    refit.extra["robust"] = "trimmed"
    refit.extra["trimmed_observations"] = int((~keep).sum())
    return refit
