"""Goodness-of-fit metrics.

The paper names two quality judgements explicitly: the residual standard
error stored next to the model parameters (Table 1) and "the R² coefficient
of determination or the results of an F-test against a model with fewer
parameters" (§3).  This module implements those, plus AIC/BIC which the
model-switching policy uses to pick between competing captured models, and
the one :func:`median` every robust statistic of the library takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fitting.distributions import f_survival

__all__ = [
    "median",
    "residual_standard_error",
    "r_squared",
    "adjusted_r_squared",
    "aic",
    "bic",
    "FTestResult",
    "f_test_against_constant",
    "f_test_nested",
]


def median(values) -> float:
    """``float(np.median(values))``, bit for bit, without importing ``numpy.ma``.

    NumPy's own median pulls ``numpy.ma`` in on its first call (~16 ms).  This
    one does what it does over the flattened float64 values: one partition at
    the middle position(s) and at the last one (where a NaN sorts, making the
    result NaN — the same partition, so a tie between ``0.0`` and ``-0.0``
    resolves the same way), then the mean of the middle value or of the two
    middle ones.  An empty input gives NaN.
    """
    data = np.asarray(values, dtype=np.float64).ravel()
    size = len(data)
    if size == 0:
        return math.nan
    half = size // 2
    middle = [half] if size % 2 else [half - 1, half]
    part = np.partition(data, [*middle, -1])
    if np.isnan(part[-1]):
        return math.nan
    # NumPy takes the mean of the middle slice, a sum that starts at 0.0
    # (which is what turns a -0.0 median into 0.0).
    if size % 2:
        return float(0.0 + part[half])
    return float((0.0 + part[half - 1] + part[half]) / 2.0)


def residual_standard_error(residuals: np.ndarray, num_params: int) -> float:
    """Residual standard error: sqrt(SSR / (n - k))."""
    residuals = np.asarray(residuals, dtype=np.float64)
    n = len(residuals)
    dof = n - num_params
    if dof <= 0:
        return 0.0
    return float(np.sqrt(np.sum(residuals**2) / dof))


def r_squared(y: np.ndarray, predictions: np.ndarray) -> float:
    """Coefficient of determination (1 - SSR/SST).

    Returns 1.0 for a perfect fit to constant data and can be negative when
    the model is worse than predicting the mean.
    """
    y = np.asarray(y, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    ssr = float(np.sum((y - predictions) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2)) if len(y) else 0.0
    if sst == 0.0:
        return 1.0 if ssr == 0.0 else 0.0
    return 1.0 - ssr / sst


def adjusted_r_squared(y: np.ndarray, predictions: np.ndarray, num_params: int) -> float:
    """R² adjusted for the number of fitted parameters."""
    n = len(np.asarray(y))
    r2 = r_squared(y, predictions)
    dof = n - num_params
    if dof <= 0 or n <= 1:
        return r2
    return 1.0 - (1.0 - r2) * (n - 1) / dof


def aic(y: np.ndarray, predictions: np.ndarray, num_params: int) -> float:
    """Akaike information criterion under a Gaussian error model."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n == 0:
        return math.inf
    ssr = float(np.sum((y - np.asarray(predictions, dtype=np.float64)) ** 2))
    ssr = max(ssr, 1e-300)
    return n * math.log(ssr / n) + 2 * num_params


def bic(y: np.ndarray, predictions: np.ndarray, num_params: int) -> float:
    """Bayesian information criterion under a Gaussian error model."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n == 0:
        return math.inf
    ssr = float(np.sum((y - np.asarray(predictions, dtype=np.float64)) ** 2))
    ssr = max(ssr, 1e-300)
    return n * math.log(ssr / n) + num_params * math.log(max(n, 1))


@dataclass(frozen=True)
class FTestResult:
    """Outcome of an F-test between a full model and a reduced (nested) model."""

    f_statistic: float
    p_value: float
    df_numerator: int
    df_denominator: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the extra parameters of the full model are justified."""
        return self.p_value < alpha


def f_test_nested(
    y: np.ndarray,
    reduced_predictions: np.ndarray,
    full_predictions: np.ndarray,
    reduced_params: int,
    full_params: int,
) -> FTestResult:
    """F-test of a full model against a nested reduced model."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    ssr_reduced = float(np.sum((y - np.asarray(reduced_predictions, dtype=np.float64)) ** 2))
    ssr_full = float(np.sum((y - np.asarray(full_predictions, dtype=np.float64)) ** 2))
    df_num = full_params - reduced_params
    df_den = n - full_params
    if df_num <= 0 or df_den <= 0:
        return FTestResult(f_statistic=0.0, p_value=1.0, df_numerator=max(df_num, 0), df_denominator=max(df_den, 0))
    if ssr_full <= 0.0:
        return FTestResult(f_statistic=math.inf, p_value=0.0, df_numerator=df_num, df_denominator=df_den)
    f_stat = ((ssr_reduced - ssr_full) / df_num) / (ssr_full / df_den)
    f_stat = max(f_stat, 0.0)
    p_value = f_survival(f_stat, df_num, df_den)
    return FTestResult(f_statistic=float(f_stat), p_value=p_value, df_numerator=df_num, df_denominator=df_den)


def f_test_against_constant(y: np.ndarray, predictions: np.ndarray, num_params: int) -> FTestResult:
    """F-test of a fitted model against the constant (mean-only) model.

    This is the "F-test against a model with fewer parameters" the paper
    proposes as a quality judgement for captured models.
    """
    y = np.asarray(y, dtype=np.float64)
    constant_predictions = np.full(len(y), float(np.mean(y)) if len(y) else 0.0)
    return f_test_nested(y, constant_predictions, predictions, reduced_params=1, full_params=num_params)
