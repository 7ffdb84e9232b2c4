"""Observed-error feedback: the planner audits the answers it served.

Predicted errors come from fit-time quality; they go stale the moment the
data drifts away from the captured parameters.  The feedback loop closes
the gap: a sampled fraction of model-served answers is re-executed
exactly, the observed relative error is recorded against every serving
model (:meth:`ModelStore.record_observed_error`), and models whose
evidence violates the quality policy are demoted — marked stale, flagged
for the maintenance loop to refit.  The planner thus *learns* which
models lie, instead of trusting capture-time quality forever.

A grouped answer is scored per serving model from the vectors it carries:
one key gather lines its groups up with the exact rows, one ``bincount``
averages each model's per-group errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.approx.engine import ApproximateAnswer
from repro.core.model_store import ModelStore
from repro.core.planner.contract import AccuracyContract
from repro.core.quality import QualityPolicy
from repro.db.database import Database
from repro.db.table import Table
from repro.fitting.grouped import key_rows

__all__ = ["FeedbackResult", "ObservedErrorFeedback", "relative_errors"]


@dataclass
class FeedbackResult:
    """What one verification pass observed and did."""

    observed_relative_error: float | None
    recorded_model_ids: list[int] = field(default_factory=list)
    demoted_model_ids: list[int] = field(default_factory=list)

    def describe(self) -> str:
        if self.observed_relative_error is None:
            return "no numeric columns to verify"
        text = f"observed relative error {self.observed_relative_error:.2%}"
        if self.demoted_model_ids:
            text += f"; demoted model(s) {self.demoted_model_ids}"
        return text


class ObservedErrorFeedback:
    """Samples executed model-served plans and records observed errors."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        quality_policy: QualityPolicy | None = None,
        sample_fraction: float = 0.05,
        seed: int | None = None,
        faults: Any = None,
    ) -> None:
        self.database = database
        self.store = store
        self.quality_policy = quality_policy or QualityPolicy()
        self.sample_fraction = sample_fraction
        #: Fault injector (``planner.verify``; None = unarmed): exception
        #: storms and latency spikes inside the verification pass.  The
        #: planner's verifier breaker absorbs these — a failing audit must
        #: never take down the answer it was auditing.
        self.faults = faults
        self._rng = random.Random(seed)

    def should_verify(self, contract: AccuracyContract) -> bool:
        """Whether this execution should be audited against exact."""
        fraction = (
            contract.verify_fraction
            if contract.verify_fraction is not None
            else self.sample_fraction
        )
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        return self._rng.random() < fraction

    def verify(self, sql: str, answer: ApproximateAnswer) -> FeedbackResult:
        """Re-run ``sql`` exactly and score the model-served answer.

        A grouped answer (one carrying ``groups``) is aligned **by group
        key** — one key gather over its key vectors — and the error of each
        group is attributed to the model that served it (one lying model in
        a multi-model answer must not accumulate evidence against healthy
        co-serving models); everything else is compared positionally, the
        same metric the differential harness gates on.  Models whose
        accumulated evidence violates the quality policy are demoted.
        """
        if self.faults is not None:
            self.faults.hit("planner.verify")
        exact = self.database.sql(sql)
        if answer.groups is not None:
            per_model = self._grouped_errors(answer, exact.table)
        else:
            per_model = self._positional_errors(answer, exact.table)
        if per_model is None:
            return FeedbackResult(observed_relative_error=None)
        observed = max(per_model.values(), default=None)
        result = FeedbackResult(observed_relative_error=observed)
        for model_id, model_error in per_model.items():
            window = self.store.record_observed_error(model_id, model_error)
            result.recorded_model_ids.append(model_id)
            model = self.store.get(model_id)
            if model.status in ("retired", "superseded"):
                continue
            if model.metadata.get("planner_demoted"):
                continue  # already queued for a maintenance refit
            if self.quality_policy.flags_observed_errors(window):
                self.store.demote(
                    model_id,
                    reason=(
                        f"median observed relative error of {len(window)} sampled "
                        f"answer(s) exceeds "
                        f"{self.quality_policy.max_observed_relative_error:g}"
                    ),
                )
                result.demoted_model_ids.append(model_id)
        return result

    def _positional_errors(self, answer: ApproximateAnswer, exact) -> "dict[int, float] | None":
        """Whole-answer error charged to every serving model (non-grouped).

        A point answer is one evaluation of the law, which estimates the
        mean of the rows its pins select: it is scored against that mean of
        the exact rows.  Otherwise only comparable shapes are scored: a
        multi-row answer whose row count differs from exact (e.g. a virtual
        table enumerating domain points instead of raw rows) yields no
        evidence rather than noise.
        """
        approx_table = answer.table
        if answer.route == "point" and approx_table.num_rows == 1 and exact.num_rows > 1:
            exact = _mean_row(exact)
        if approx_table.num_rows != exact.num_rows:
            return None
        if approx_table.num_rows > 1:
            # Canonical row order on both sides: without an ORDER BY the two
            # engines are free to emit rows in different orders, and a pure
            # ordering difference must not read as model error.
            try:
                approx_table = approx_table.sort_by(
                    [(name, True) for name in approx_table.schema.names]
                )
                exact = exact.sort_by([(name, True) for name in exact.schema.names])
            except Exception:
                return None
        errors = relative_errors(approx_table, exact)
        if not errors:
            return None
        observed = max(errors.values())
        return {model_id: observed for model_id in answer.used_model_ids}

    def _grouped_errors(self, answer: ApproximateAnswer, exact: Table) -> "dict[int, float] | None":
        """Per-model mean relative error over the groups each model served.

        The answer's groups (:class:`~repro.core.approx.protocol.GroupedServing`)
        are matched to the exact rows by key, each group column by its result
        column's name, so result ordering, exact fill-in rows and the SELECT
        list's column order cannot misalign the comparison.  A GROUP BY
        column outside the SELECT list leaves no key to match: no evidence.
        Models come in the order of their first served group.
        """
        groups = answer.groups
        names = groups.key_names
        if any(name is None or name not in exact.schema.names for name in names):
            return None
        served = int(np.count_nonzero(groups.model_id >= 0))
        rows = key_rows([exact.column(name) for name in names], groups.keys)[:served]
        matched = np.flatnonzero(rows >= 0)
        rows = rows[matched]
        sums, counts = np.zeros(len(matched)), np.zeros(len(matched))
        for name, vector in groups.values.items():
            if name not in exact.schema.names:
                continue
            approx_values = vector[matched].astype(np.float64)
            exact_values = exact.column(name).float_numpy()[rows]
            ok = np.flatnonzero(np.isfinite(approx_values) & np.isfinite(exact_values))
            truth = np.abs(exact_values[ok])
            sums[ok] += np.abs(approx_values[ok] - exact_values[ok]) / np.where(truth > 1e-12, truth, 1.0)
            counts[ok] += 1
        sampled = counts > 0
        if not sampled.any():
            return None
        ids, first, codes = np.unique(
            groups.model_id[matched[sampled]], return_index=True, return_inverse=True
        )
        means = np.bincount(codes, sums[sampled]) / np.bincount(codes, counts[sampled])
        return {int(ids[i]): float(means[i]) for i in np.argsort(first)}


def _mean_row(exact: Table) -> Table:
    """One row: the mean of each numeric column's non-NULL values (NaN for none)."""
    means = {}
    for name in exact.schema.names:
        column = exact.column(name)
        if column.dtype.is_numeric:
            values = column.float_numpy()
            values = values[~np.isnan(values)]
            means[name] = [float(values.mean()) if len(values) else float("nan")]
    return Table.from_dict("exact_mean", means)


def relative_errors(approx: Table, exact: Table) -> dict[str, float]:
    """Mean relative error per numeric column, aligning result rows by position."""
    errors: dict[str, float] = {}
    if approx.num_rows == 0 or exact.num_rows == 0:
        return errors
    for approx_name, exact_name in zip(approx.schema.names, exact.schema.names):
        approx_column = approx.column(approx_name)
        exact_column = exact.column(exact_name)
        if not (approx_column.dtype.is_numeric and exact_column.dtype.is_numeric):
            continue
        n = min(len(approx_column), len(exact_column))
        approx_values = approx_column.float_numpy()[:n]
        exact_values = exact_column.float_numpy()[:n]
        mask = np.isfinite(approx_values) & np.isfinite(exact_values)
        if not mask.any():
            continue
        denominator = np.where(np.abs(exact_values[mask]) > 1e-12, np.abs(exact_values[mask]), 1.0)
        errors[approx_name] = float(np.mean(np.abs(approx_values[mask] - exact_values[mask]) / denominator))
    return errors
