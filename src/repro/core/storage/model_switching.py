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
* :meth:`refit_if_needed` re-fits the serving model when its re-validated R²
  has dropped by more than :data:`REFIT_DEGRADATION`;
* :meth:`succeed` is the one succession rule every refit goes through: an
  accepted refit supersedes its predecessor, a rejected one leaves the
  predecessor serving;
* the best model is chosen by AIC against the current data, which is how
  "switch when appropriate" is made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.captured_model import CapturedModel, covered_rows, residuals
from repro.core.harvester import HarvestReport, ModelHarvester
from repro.core.model_store import ModelStore
from repro.db.database import Database
from repro.errors import ModelNotFoundError
from repro.fitting.metrics import aic, r_squared

__all__ = ["REFIT_DEGRADATION", "RevalidationResult", "ModelLifecycleManager"]

#: :meth:`ModelLifecycleManager.refit_if_needed` refits once the re-validated
#: R² has dropped by more than this much.
REFIT_DEGRADATION = 0.05


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


@dataclass
class ModelLifecycleManager:
    """Watches captured models as the underlying tables change."""

    database: Database
    store: ModelStore
    harvester: ModelHarvester

    # -- change notification -------------------------------------------------------

    def on_data_changed(
        self, table_name: str, appended_from: int | None = None
    ) -> list[CapturedModel]:
        """Mark models of ``table_name`` stale after an insert/update.

        ``appended_from`` (the start row of an append) exempts
        partition-scoped models wholly below the append boundary — those
        shards did not change.
        """
        return self.store.mark_table_stale(table_name, appended_from=appended_from)

    # -- re-validation -----------------------------------------------------------------

    def revalidate(
        self, table_name: str, output_column: str | None = None
    ) -> list[RevalidationResult]:
        """Re-score every captured model of a table against the current data.

        Models that still meet the R² gate they were captured under become
        active again; models that no longer do are left stale.  Previously
        *rejected* models that now fit well are re-activated — the paper's
        "a model with a previously poor fit relevant again".  Retired and
        superseded models are out of the rotation for good and are never
        re-scored.

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
            result = self._score(model)
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
        return results

    def _score(self, model: CapturedModel) -> RevalidationResult:
        """R² and AIC of ``model`` over the rows its coverage describes.

        Partial models (a WHERE-restricted fit, e.g. one regime segment of a
        streamed table) are judged on their own subset — scoring them
        against the whole table would condemn every segment model as soon as
        a second regime exists.
        """
        table = covered_rows(self.database.table(model.table_name), model.coverage)
        resid = residuals(model, table)
        finite = np.isfinite(resid)
        y = table.column(model.output_column).float_numpy()[finite]
        predictions = y - resid[finite]
        found = finite.any()
        current_r2 = r_squared(y, predictions) if found else 0.0
        criterion = aic(y, predictions, self._effective_num_params(model)) if found else float("inf")
        return RevalidationResult(
            model_id=model.model_id,
            previous_r_squared=model.quality.r_squared,
            current_r_squared=float(current_r2),
            information_criterion=float(criterion),
            still_acceptable=current_r2 >= self.harvester.gate(model).min_r_squared,
            covered_rows=table.num_rows,
        )

    @staticmethod
    def _effective_num_params(model: CapturedModel) -> int:
        if model.is_grouped:
            fitted_groups = int(np.count_nonzero(model.fit.succeeded))  # type: ignore[union-attr]
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
        return min(candidates, key=lambda model: self._score(model).information_criterion)

    def refit_if_needed(self, table_name: str, output_column: str) -> CapturedModel:
        """Re-fit the serving model when its quality has degraded.

        Appends mark models stale, so the serving model is the best
        servable one — stale included — whole-table models first.  Returns
        the model that should be used afterwards: the accepted refit, or the
        existing model when it is still good or its refit was rejected.
        """
        candidates = self.store.candidates(
            table_name, output_column, require_whole_table=False, include_stale=True
        )
        if not candidates:
            raise ModelNotFoundError(
                f"no usable captured model predicts {output_column!r} of {table_name!r}"
            )
        model = max(
            candidates,
            key=lambda m: (
                m.coverage.covers_whole_table,
                m.status == "active",
                m.quality.adjusted_r_squared,
                m.model_id,
            ),
        )
        result = self._score(model)
        if model.quality.r_squared - result.current_r_squared < REFIT_DEGRADATION:
            # Still fine: refresh its bookkeeping and keep it.
            model.fitted_row_count = result.covered_rows
            self.store.reactivate(model.model_id)
            return model
        return self.succeed(model, self.harvester.refit(model))

    def succeed(self, model: CapturedModel, report: HarvestReport) -> CapturedModel:
        """The succession rule: the model serving after ``report``'s refit.

        An accepted refit supersedes ``model`` (lineage and a journal event
        included).  A rejected one must not bench it — a stale servable
        model still beats answering nothing — so ``model`` keeps serving
        and the rejected capture stays in the store for provenance.
        """
        if not report.accepted:
            return model
        self.store.supersede(model.model_id, report.model.model_id)
        return report.model
