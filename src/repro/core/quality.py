"""Judging the quality of captured models.

§3 of the paper: "Since the entire process runs inside the database, we can
intercept fitting, determine the accessed data, and judge the quality of the
fitted model.  For example, we could use the R² coefficient of determination
or the results of an F-test against a model with fewer parameters."

A :class:`QualityPolicy` encodes when a captured model is good enough to be
used for approximate query answering and storage optimisation.  The
benchmark ``bench_ablation_quality_gate`` sweeps the R² threshold to show
why the gate matters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.fitting.grouped import GroupedFitResult
from repro.fitting.metrics import FTestResult, f_test_against_constant, median
from repro.fitting.model import FitResult

__all__ = ["ModelQuality", "QualityPolicy", "judge_fit", "judge_grouped"]


@dataclass(frozen=True)
class ModelQuality:
    """Quality judgement for one fitted model (or one group's fit)."""

    r_squared: float
    adjusted_r_squared: float
    residual_standard_error: float
    n_observations: int
    f_test: FTestResult | None = None
    relative_rse: float | None = None

    def summary(self) -> str:
        parts = [
            f"R2={self.r_squared:.4f}",
            f"RSE={self.residual_standard_error:.6g}",
            f"n={self.n_observations}",
        ]
        if self.f_test is not None:
            parts.append(f"F p-value={self.f_test.p_value:.3g}")
        return ", ".join(parts)


@dataclass(frozen=True)
class QualityPolicy:
    """Acceptance thresholds for captured models.

    A model is *accepted* when its R² is at least ``min_r_squared``, it was
    fitted on at least ``min_observations`` points and (when an F-test is
    available) the F-test against the constant model is significant at
    ``f_test_alpha``.
    """

    min_r_squared: float = 0.8
    min_observations: int = 5
    f_test_alpha: float = 0.05
    require_f_test: bool = False
    #: For grouped models: minimum fraction of groups that must individually
    #: pass for the grouped model as a whole to be accepted.
    min_group_pass_fraction: float = 0.5
    #: Observed-error feedback (the planner's closed loop): once at least
    #: ``observed_error_min_samples`` sampled answers have a median
    #: |relative error| above ``max_observed_relative_error``, the model is
    #: demoted and queued for a maintenance refit.
    max_observed_relative_error: float = 0.2
    observed_error_min_samples: int = 3

    def flags_observed_errors(self, observed_errors: "list[float] | tuple[float, ...]") -> bool:
        """True when sampled execution errors show the model is lying.

        The median (not the mean) is judged so a single adversarial query —
        one unlucky group, a near-zero denominator — cannot demote an
        otherwise healthy model.
        """
        if len(observed_errors) < self.observed_error_min_samples:
            return False
        finite = [e for e in observed_errors if np.isfinite(e)]
        if len(finite) < self.observed_error_min_samples:
            return False
        return median(finite) > self.max_observed_relative_error

    def accepts(self, quality: ModelQuality) -> bool:
        if quality.n_observations < self.min_observations:
            return False
        if quality.r_squared < self.min_r_squared:
            return False
        if self.require_f_test:
            if quality.f_test is None:
                return False
            if not quality.f_test.significant(self.f_test_alpha):
                return False
        return True

    def with_threshold(self, min_r_squared: float) -> "QualityPolicy":
        """A copy of this policy with a different R² gate (ablation helper)."""
        return replace(self, min_r_squared=min_r_squared)


def judge_fit(
    fit: FitResult,
    y: np.ndarray | None = None,
    inputs: dict[str, np.ndarray] | None = None,
) -> ModelQuality:
    """Build a :class:`ModelQuality` for a single fit.

    When the original observations are provided the judgement includes the
    F-test against the constant model and the RSE relative to the output
    scale; otherwise the metrics already stored on the fit are used.
    """
    f_test = None
    relative_rse = None
    if y is not None and inputs is not None and len(np.asarray(y)) > fit.family.num_params:
        y_arr = np.asarray(y, dtype=np.float64)
        predictions = fit.predict(inputs)
        f_test = f_test_against_constant(y_arr, predictions, fit.family.num_params)
        scale = float(np.mean(np.abs(y_arr))) if len(y_arr) else 0.0
        if scale > 0:
            relative_rse = fit.residual_standard_error / scale
    return ModelQuality(
        r_squared=fit.r_squared,
        adjusted_r_squared=fit.adjusted_r_squared,
        residual_standard_error=fit.residual_standard_error,
        n_observations=fit.n_observations,
        f_test=f_test,
        relative_rse=relative_rse,
    )


def judge_grouped(grouped: GroupedFitResult) -> tuple[ModelQuality, float]:
    """Aggregate quality over a grouped fit.

    Returns ``(overall_quality, pass_fraction_weightable)`` where the overall
    quality uses observation-weighted means of the per-group metrics, and the
    second element is the fraction of groups that fitted successfully (the
    policy separately checks the per-group pass fraction).
    """
    fitted = grouped.succeeded
    if not fitted.any():
        return ModelQuality(
            r_squared=0.0,
            adjusted_r_squared=0.0,
            residual_standard_error=float("inf"),
            n_observations=0,
        ), 0.0

    weights = grouped.n_obs[fitted].astype(np.float64)
    weights = weights / weights.sum()
    r2 = float(np.sum(weights * grouped.r_squared[fitted]))
    adj = float(np.sum(weights * grouped.adjusted_r_squared[fitted]))
    rse = float(np.sum(weights * grouped.rse[fitted]))
    n_total = int(grouped.n_obs[fitted].sum())
    fitted_fraction = int(np.count_nonzero(fitted)) / grouped.num_groups
    return (
        ModelQuality(
            r_squared=r2,
            adjusted_r_squared=adj,
            residual_standard_error=rse,
            n_observations=n_total,
        ),
        fitted_fraction,
    )
