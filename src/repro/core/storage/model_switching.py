"""Model lifecycle management: data changes, re-fits and model switching.

§4.1, "Data or model changes": appended observations "can change fit of the
model dramatically.  This could also make a model with a previously poor fit
relevant again.  A possible solution could be to check these measures for
all previous models and switch when appropriate."

:class:`ModelLifecycleManager` implements that policy:

* when a table grows (or changes) its captured models are marked *stale*;
* :meth:`revalidate` re-computes the quality of every candidate model
  (accepted or previously rejected) against the current data — without
  re-fitting — and re-activates / retires models accordingly;
* :meth:`refit_if_needed` re-fits the active model when its re-validated
  quality has degraded past a configurable tolerance;
* the best model is chosen by information criterion (AIC by default), which
  is how "switch when appropriate" is made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.captured_model import CapturedModel
from repro.core.harvester import ModelHarvester
from repro.core.model_store import ModelStore
from repro.core.quality import judge_fit
from repro.db.database import Database
from repro.errors import ModelNotFoundError
from repro.fitting.metrics import aic, bic, r_squared

__all__ = ["RevalidationResult", "ModelLifecycleManager"]


@dataclass
class RevalidationResult:
    """Outcome of re-checking one captured model against current data."""

    model_id: int
    previous_r_squared: float
    current_r_squared: float
    information_criterion: float
    still_acceptable: bool
    #: Rows in the model's covered subset at re-validation time.
    covered_rows: int = 0

    @property
    def degraded(self) -> bool:
        return self.current_r_squared < self.previous_r_squared - 1e-9


@dataclass
class ModelLifecycleManager:
    """Watches captured models as the underlying tables change."""

    database: Database
    store: ModelStore
    harvester: ModelHarvester
    #: Re-fit when the re-validated R² drops by more than this much.
    refit_degradation: float = 0.05
    #: Information criterion used to pick among competing models ("aic" or "bic").
    criterion: str = "aic"
    history: list[RevalidationResult] = field(default_factory=list)

    # -- change notification -------------------------------------------------------

    def on_data_changed(
        self, table_name: str, appended_from: int | None = None
    ) -> list[CapturedModel]:
        """Mark models of ``table_name`` stale after an insert/update.

        ``appended_from`` (the start row of an append) exempts
        partition-scoped models wholly below the append boundary — those
        shards did not change.

        Statistics that are still clean here were already updated by the
        mutator itself (the ingest flush folds exact per-batch statistics
        into the cached table statistics); re-marking them dirty would
        discard that merge and force a whole-table rescan for nothing.
        """
        if not self.database.catalog.stats_clean(table_name):
            self.database.catalog.mark_dirty(table_name)
        return self.store.mark_table_stale(table_name, appended_from=appended_from)

    # -- re-validation -----------------------------------------------------------------

    def revalidate(
        self, table_name: str, output_column: str | None = None
    ) -> list[RevalidationResult]:
        """Re-score every captured model of a table against the current data.

        Models that still meet the harvest policy become active again;
        models that no longer do are left stale.  Previously *rejected*
        models that now fit well are re-activated — the paper's "a model with
        a previously poor fit relevant again".  Retired and superseded
        models are out of the rotation for good and are never re-scored.

        ``output_column`` restricts re-validation to one target (the
        streaming maintenance loop re-validates only the column whose drift
        monitor fired, not every model of the table).
        """
        results: list[RevalidationResult] = []
        models = self.store.models_for_table(table_name, include_unusable=True)
        for model in models:
            if model.status in ("retired", "superseded"):
                continue
            if output_column is not None and model.output_column != output_column:
                continue
            result = self._revalidate_model(model)
            results.append(result)
            if result.still_acceptable:
                # A capture-time rejection stands until *new* data arrives:
                # this pooled re-score is weaker than the harvest policy
                # (no per-group pass fraction, no F-test), so without fresh
                # evidence it must not overturn the harvester's verdict —
                # e.g. a refit rejected seconds ago on this very data.
                if not model.accepted and result.covered_rows <= model.fitted_row_count:
                    continue
                model.accepted = True
                self.store.reactivate(model.model_id)
                model.fitted_row_count = result.covered_rows
            else:
                model.mark_stale()
        self.history.extend(results)
        return results

    def _revalidate_model(self, model: CapturedModel) -> RevalidationResult:
        table = self.covered_data(model)
        y = table.column(model.output_column).to_numpy().astype(np.float64)
        inputs = {
            name: table.column(name).to_numpy().astype(np.float64) for name in model.input_columns
        }

        if model.is_grouped:
            predictions = model.predict_rows(
                inputs, [table.column(name) for name in model.group_columns]
            )
        else:
            predictions = model.predict_rows(inputs)

        finite = np.isfinite(y) & np.isfinite(predictions)
        current_r2 = r_squared(y[finite], predictions[finite]) if finite.any() else 0.0
        num_params = self._effective_num_params(model)
        criterion_fn = aic if self.criterion == "aic" else bic
        criterion_value = criterion_fn(y[finite], predictions[finite], num_params) if finite.any() else float("inf")

        acceptable = current_r2 >= self.harvester.policy.min_r_squared
        return RevalidationResult(
            model_id=model.model_id,
            previous_r_squared=model.quality.r_squared,
            current_r_squared=float(current_r2),
            information_criterion=float(criterion_value),
            still_acceptable=acceptable,
            covered_rows=table.num_rows,
        )

    def covered_data(self, model: CapturedModel, extra_columns: list[str] | None = None):
        """The model's table restricted to the subset its coverage describes.

        Partial models (a WHERE-restricted fit, e.g. one regime segment of a
        streamed table) must be judged on their own subset — scoring them
        against the whole table would condemn every segment model as soon as
        a second regime exists.  ``extra_columns`` requests additional
        columns in the projection (the maintenance loop needs the arrival-
        order column alongside the modelled ones).
        """
        table = self.database.table(model.table_name)
        row_range = model.coverage.row_range
        if row_range is not None:
            # Partition-scoped coverage: exactly the shard's rows, clamped
            # to the current table length (a shrink mid-repartition).
            start = min(int(row_range[0]), table.num_rows)
            stop = min(int(row_range[1]), table.num_rows)
            return table.slice(start, stop)
        predicate = model.coverage.predicate_sql
        if predicate is None:
            return table
        needed = list(
            dict.fromkeys(
                [
                    *model.group_columns,
                    *model.input_columns,
                    model.output_column,
                    *(extra_columns or []),
                ]
            )
        )
        projected = ", ".join(needed)
        return self.database.query(
            f"SELECT {projected} FROM {model.table_name} WHERE {predicate}"
        )

    @staticmethod
    def _effective_num_params(model: CapturedModel) -> int:
        if model.is_grouped:
            fitted_groups = len([r for r in model.fit.records if r.result is not None])  # type: ignore[union-attr]
            return max(fitted_groups, 1) * model.fit.family.num_params  # type: ignore[union-attr]
        return model.fit.family.num_params

    # -- switching / re-fitting --------------------------------------------------------------

    def best_model_by_criterion(self, table_name: str, output_column: str) -> CapturedModel:
        """Among all candidate models of a target, pick the one with the best
        (lowest) information criterion against the *current* data."""
        candidates = self.store.candidates(table_name, output_column)
        if not candidates:
            raise ModelNotFoundError(
                f"no usable captured model predicts {output_column!r} of {table_name!r}"
            )
        scored = [(self._revalidate_model(model).information_criterion, model) for model in candidates]
        scored.sort(key=lambda pair: pair[0])
        return scored[0][1]

    def refit_if_needed(self, table_name: str, output_column: str) -> CapturedModel:
        """Re-fit the current best model when its quality has degraded.

        Returns the model that should be used afterwards (the re-fitted one,
        or the existing one when it is still good).
        """
        model = self._current_model(table_name, output_column)
        result = self._revalidate_model(model)
        if not result.degraded or (model.quality.r_squared - result.current_r_squared) < self.refit_degradation:
            # Still fine: refresh its bookkeeping and keep it.
            model.fitted_row_count = self.database.table(table_name).num_rows
            self.store.reactivate(model.model_id)
            return model

        return self._refit(model, table_name)

    def _current_model(self, table_name: str, output_column: str) -> CapturedModel:
        """The model to re-validate: the best usable one, or the best stale one.

        Appends mark models stale, so ``refit_if_needed`` right after an
        insert must still find the previously-active model to judge it.
        """
        try:
            return self.store.best_model(table_name, output_column)
        except ModelNotFoundError:
            candidates = [
                model
                for model in self.store.models_for_table(table_name, include_unusable=True)
                if model.output_column == output_column
                and model.status not in ("retired", "superseded")
                and model.accepted
            ]
            if not candidates:
                raise
            return max(candidates, key=lambda m: (m.quality.adjusted_r_squared, m.model_id))

    def _refit(self, model: CapturedModel, table_name: str) -> CapturedModel:
        group_by = list(model.group_columns) or None
        report = self.harvester.fit_and_capture(
            table_name,
            model.formula,
            group_by=group_by,
            predicate_sql=model.coverage.predicate_sql,
        )
        model.retire()
        return report.model
