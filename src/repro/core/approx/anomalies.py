"""Data anomaly detection from model residuals.

§4.2, "Data anomalies": "Often, the observations that do not fit the model
are of supreme interest.  These will stand out in the fitting process by for
example showing large residual errors."  For grouped models (the LOFAR
per-source fit) the natural unit of anomaly is the group: sources whose
power-law fit is poor are exactly the pulsars/transients the astronomers are
hunting.  This module ranks groups by fit quality and flags anomalies with a
robust (median absolute deviation) threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.errors import ApproximationError
from repro.fitting.grouped import GroupedFitResult
from repro.fitting.metrics import median

__all__ = ["AnomalyReport", "GroupAnomaly", "detect_anomalies", "rank_groups_by_misfit"]


@dataclass(frozen=True)
class GroupAnomaly:
    """One group flagged as poorly described by the captured model."""

    key: tuple[Any, ...]
    score: float
    residual_standard_error: float
    r_squared: float

    def __str__(self) -> str:
        return f"group {self.key}: score={self.score:.2f}, RSE={self.residual_standard_error:.4g}, R2={self.r_squared:.3f}"


@dataclass
class AnomalyReport:
    """All groups ranked by misfit, plus the flagged anomalies."""

    metric: str
    threshold: float
    ranked: list[GroupAnomaly]
    anomalies: list[GroupAnomaly]

    @property
    def anomalous_keys(self) -> set[tuple[Any, ...]]:
        return {anomaly.key for anomaly in self.anomalies}

    def top(self, k: int) -> list[GroupAnomaly]:
        return self.ranked[:k]


def rank_groups_by_misfit(model: CapturedModel, metric: str = "relative_rse") -> list[GroupAnomaly]:
    """Rank every fitted group by how poorly the model describes it.

    ``metric`` is one of:

    * ``"rse"`` — raw residual standard error (the paper's example measure);
    * ``"relative_rse"`` — RSE divided by the group's mean |output|, which
      makes bright and faint sources comparable (default);
    * ``"r_squared"`` — 1 - R², i.e. unexplained variance fraction.
    """
    if not model.is_grouped:
        raise ApproximationError("anomaly ranking requires a grouped model (one fit per group)")
    if metric not in ("rse", "relative_rse", "r_squared"):
        raise ApproximationError(f"unknown anomaly metric {metric!r}")

    fit: GroupedFitResult = model.fit  # type: ignore[assignment]
    rows = np.flatnonzero(fit.succeeded)
    rse, r2 = fit.rse[rows], fit.r_squared[rows]
    if metric == "rse":
        scores = rse
    elif metric == "relative_rse":
        scale = _group_output_scale(fit.sse[rows], fit.n_obs[rows], r2, rse)
        scores = np.where(scale > 0, rse / scale, rse)
    else:
        scores = 1.0 - r2
    anomalies = [
        GroupAnomaly(key=fit.keys[row], score=float(score), residual_standard_error=float(e), r_squared=float(r))
        for row, score, e, r in zip(rows.tolist(), scores, rse, r2)
    ]
    return sorted(anomalies, key=lambda a: a.score, reverse=True)


def _group_output_scale(ssr: np.ndarray, n_obs: np.ndarray, r2: np.ndarray, rse: np.ndarray) -> np.ndarray:
    """Approximate each group's output magnitude from its fit alone.

    RSE + R² imply the output variance; combined with the fitted mean level
    this gives a scale without re-reading the raw data.  When that is not
    recoverable the RSE itself is used (score 1.0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        total_variance = ssr / np.maximum(1e-12, 1.0 - r2) / np.maximum(n_obs, 1)
        return np.where((r2 < 1.0) & (ssr > 0), np.sqrt(total_variance), np.maximum(rse, 1e-12))


def detect_anomalies(
    model: CapturedModel,
    metric: str = "relative_rse",
    mad_multiplier: float = 4.0,
    min_anomalies: int = 0,
) -> AnomalyReport:
    """Flag groups whose misfit score is an outlier among all groups.

    The threshold is median + ``mad_multiplier`` * MAD of the scores — a
    robust rule that adapts to the overall noise level, so it works both on
    the clean synthetic data and on noisier configurations.
    """
    ranked = rank_groups_by_misfit(model, metric=metric)
    if not ranked:
        return AnomalyReport(metric=metric, threshold=float("inf"), ranked=[], anomalies=[])

    scores = np.array([anomaly.score for anomaly in ranked])
    center = median(scores)
    mad = median(np.abs(scores - center))
    threshold = center + mad_multiplier * (mad if mad > 0 else float(np.std(scores)) or 1e-12)

    anomalies = [anomaly for anomaly in ranked if anomaly.score > threshold]
    if len(anomalies) < min_anomalies:
        anomalies = ranked[:min_anomalies]
    return AnomalyReport(metric=metric, threshold=threshold, ranked=ranked, anomalies=anomalies)
