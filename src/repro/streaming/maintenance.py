"""Online model maintenance: keep captured models fresh under ingestion.

The batch system marks a table's models stale on every append and leaves
them benched until someone calls ``revalidate``.  The maintenance policy
closes that loop autonomously:

1. every flushed ingest batch is scored against the monitored model and the
   residuals feed a drift detector (:mod:`repro.streaming.drift`);
2. a :meth:`ModelMaintenancePolicy.maintain` tick re-validates models whose
   detectors are quiet (re-activating them through the existing lifecycle
   machinery) and handles the drifted ones;
3. a drifted model triggers the multiscale change-point test
   (:mod:`repro.streaming.changepoint`) over its residual series; when a
   change point is localized and the watcher knows the table's arrival-order
   column, the policy harvests one *partial* model per regime segment plus a
   fresh whole-table model, then **supersedes** the old model in the store —
   so the approximate engine, semantic compression and zero-IO scans keep
   answering from fresh models instead of falling back to exact execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.core.harvester import HarvestReport, ModelHarvester
from repro.core.model_store import ModelStore
from repro.core.storage.model_switching import ModelLifecycleManager
from repro.db.column import Column
from repro.db.database import Database
from repro.db.sql.parser import parse_expression
from repro.db.table import Table
from repro.errors import DriftMonitorError, ModelNotFoundError, ReproError, StreamingError
from repro.obs.events import EventJournal
from repro.resilience import CircuitBreaker, ResilienceRuntime
from repro.streaming.changepoint import ChangePointResult, find_changepoints
from repro.streaming.drift import DriftVerdict, ResidualDriftDetector
from repro.streaming.ingest import IngestBatch

__all__ = ["WatchTarget", "MaintenanceAction", "MaintenanceReport", "ModelMaintenancePolicy"]


@dataclass
class WatchTarget:
    """One monitored (table, output column) pair and its detector state."""

    table_name: str
    output_column: str
    order_column: str | None
    detector: ResidualDriftDetector
    model_id: int
    batches_seen: int = 0
    #: After a refit attempt produced no acceptable model, further attempts
    #: are deferred until the table has grown past this row count.
    refit_deferred_at_rows: int | None = None

    @property
    def last_verdict(self) -> DriftVerdict | None:
        return self.detector.last_verdict

    def describe(self) -> str:
        verdict = self.last_verdict.describe() if self.last_verdict else "no batches observed"
        return f"watch {self.table_name}.{self.output_column} via model#{self.model_id}: {verdict}"


@dataclass(frozen=True)
class MaintenanceAction:
    """One decision the maintenance tick took for a watched target."""

    table_name: str
    output_column: str
    #: "revalidated" | "refit" | "segmented" | "none" | "error"
    kind: str
    old_model_ids: tuple[int, ...] = ()
    #: Accepted successor models only (rejected refits appear in details).
    new_model_ids: tuple[int, ...] = ()
    #: Row positions within the monitored model's covered rows, in arrival order.
    changepoint_indices: tuple[int, ...] = ()
    details: str = ""

    def describe(self) -> str:
        return f"{self.table_name}.{self.output_column}: {self.kind} ({self.details})"


@dataclass
class MaintenanceReport:
    """Everything one ``maintain()`` tick did."""

    actions: list[MaintenanceAction] = field(default_factory=list)

    @property
    def did_anything(self) -> bool:
        return any(action.kind != "none" for action in self.actions)

    def actions_of_kind(self, kind: str) -> list[MaintenanceAction]:
        return [action for action in self.actions if action.kind == kind]

    def summary(self) -> str:
        if not self.actions:
            return "(no watched targets)"
        return "\n".join(action.describe() for action in self.actions)


class ModelMaintenancePolicy:
    """Watches captured models under streaming ingestion and keeps them serving."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        harvester: ModelHarvester,
        lifecycle: ModelLifecycleManager,
        *,
        journal: EventJournal,
        resilience: ResilienceRuntime,
        refit_guard: Callable[[str], str | None],
        drift_multiplier: float = 2.5,
        drift_window: int = 512,
        drift_min_observations: int = 16,
        drift_patience: int = 2,
        min_segment: int = 16,
        significance: float = 2.5,
        max_changepoints: int = 4,
    ) -> None:
        self.database = database
        self.store = store
        self.harvester = harvester
        self.lifecycle = lifecycle
        self.drift_multiplier = drift_multiplier
        self.drift_window = drift_window
        self.drift_min_observations = drift_min_observations
        self.drift_patience = drift_patience
        self.min_segment = min_segment
        self.significance = significance
        self.max_changepoints = max_changepoints
        #: ``(table_name) -> str | None`` naming why the table's models must
        #: not be refitted right now: a refit over a table whose cold rows
        #: moved to the model-only archive tier would fit only the
        #: (predicate-biased) live remainder yet be served as covering the
        #: full logical table.
        self.refit_guard = refit_guard
        #: Drift transitions, change-point localizations and every
        #: maintenance action are recorded here as queryable events.
        self.journal = journal
        #: Each watch target gets a per-target circuit breaker
        #: (``refit:{table}.{column}``): a refit storm (repeated refit
        #: failures on one target) trips the breaker and further refits of
        #: that target are skipped until the cooldown passes, instead of
        #: burning a failing fit per tick while other targets wait.  Its
        #: ``faults`` arm ``streaming.maintenance.refit``.
        self.resilience = resilience
        self._targets: dict[tuple[str, str], WatchTarget] = {}

    def _breaker(self, model: CapturedModel | WatchTarget) -> CircuitBreaker:
        return self.resilience.breaker(f"refit:{model.table_name}.{model.output_column}")

    # -- registration ------------------------------------------------------------

    def watch(
        self,
        table_name: str,
        output_column: str,
        order_column: str | None = None,
    ) -> WatchTarget:
        """Start monitoring the best captured model of a target column.

        ``order_column`` names the column that orders observations by
        arrival (a timestamp or sequence number); it is what lets the policy
        translate a detected change-point row into a segmentation predicate.
        Without it, drift still triggers whole-table refits, but per-segment
        models cannot be harvested.
        """
        try:
            model = self.store.best_model(table_name, output_column, include_stale=True)
        except ModelNotFoundError as exc:
            raise DriftMonitorError(
                f"cannot watch {table_name}.{output_column}: {exc}"
            ) from exc
        table = self.database.table(table_name)
        if order_column is not None:
            if order_column not in table.schema:
                raise DriftMonitorError(
                    f"order column {order_column!r} not in table {table_name!r}; "
                    f"available: {table.schema.names}"
                )
            dtype = table.schema.column(order_column).dtype
            if not dtype.is_numeric:
                raise DriftMonitorError(
                    f"order column {order_column!r} of {table_name!r} is {dtype.value}; "
                    "segmentation needs a numeric arrival-order column"
                )
        detector = ResidualDriftDetector(
            reference_rse=self._reference_rse(model),
            multiplier=self.drift_multiplier,
            window=self.drift_window,
            min_observations=self.drift_min_observations,
            patience=self.drift_patience,
        )
        target = WatchTarget(
            table_name=table_name,
            output_column=output_column,
            order_column=order_column,
            detector=detector,
            model_id=model.model_id,
        )
        self._targets[(table_name, output_column)] = target
        return target

    def unwatch(self, table_name: str, output_column: str) -> None:
        self._targets.pop((table_name, output_column), None)

    # -- durable state ------------------------------------------------------------

    def export_state(self) -> list[dict[str, Any]]:
        """The restartable core of every watch target (for the warehouse).

        Detector *observations* are deliberately not exported: residual
        windows are cheap to rebuild from post-restart batches, and a stale
        window from a previous process could alias a regime change.  What
        must survive is the wiring (target, order column, monitored model)
        and the refit-deferral bookkeeping.
        """
        return [
            {
                "table_name": target.table_name,
                "output_column": target.output_column,
                "order_column": target.order_column,
                "model_id": target.model_id,
                "refit_deferred_at_rows": target.refit_deferred_at_rows,
                "batches_seen": target.batches_seen,
            }
            for target in self._targets.values()
        ]

    def restore_state(self, entries: list[dict[str, Any]]) -> int:
        """Re-register exported watch targets; returns how many took."""
        restored = 0
        for entry in entries:
            try:
                target = self.watch(
                    entry["table_name"],
                    entry["output_column"],
                    order_column=entry.get("order_column"),
                )
            except ReproError:
                continue  # the monitored table/model did not survive
            model_id = entry.get("model_id")
            if model_id is not None:
                try:
                    model = self.store.get(int(model_id))
                except ModelNotFoundError:
                    model = None
                if model is not None and model.is_servable:
                    self._adopt(target, model)
            deferred = entry.get("refit_deferred_at_rows")
            target.refit_deferred_at_rows = None if deferred is None else int(deferred)
            target.batches_seen = int(entry.get("batches_seen", 0))
            restored += 1
        return restored

    def targets(self) -> list[WatchTarget]:
        return list(self._targets.values())

    def target_for(self, table_name: str, output_column: str) -> WatchTarget:
        try:
            return self._targets[(table_name, output_column)]
        except KeyError:
            raise DriftMonitorError(
                f"{table_name}.{output_column} is not watched; call watch() first"
            ) from None

    # -- streaming hook ------------------------------------------------------------

    def on_batch(self, batch: IngestBatch) -> None:
        """Score every watched model of the batch's table on the new rows.

        Only rows inside the monitored model's coverage are scored — late
        rows belonging to a historical segment must not feed the current
        segment model's drift detector.
        """
        for target in self._targets.values():
            if target.table_name != batch.table_name:
                continue
            model = self.store.get(target.model_id)
            rows = self._covered_batch_rows(batch, model)
            if not rows:
                continue
            arrays, group_keys = self._batch_columns(batch.table_name, rows, model)
            residuals = _model_residuals(model, arrays, group_keys)
            was_drifted = (
                target.last_verdict is not None and target.last_verdict.drifted
            )
            target.detector.observe(residuals)
            target.batches_seen += 1
            verdict = target.last_verdict
            if verdict is not None and verdict.drifted and not was_drifted:
                self.journal.record(
                    "drift-detected",
                    table=target.table_name,
                    column=target.output_column,
                    model_id=target.model_id,
                    detail=verdict.describe(),
                )

    # -- the maintenance tick ---------------------------------------------------------

    def maintain(self) -> MaintenanceReport:
        """One maintenance pass over all watched targets.

        A failing target (e.g. a refit raising on degenerate data) is
        reported as an ``error`` action rather than aborting the tick, so
        the other watched tables still get their maintenance.
        """
        report = MaintenanceReport()
        for target in self._targets.values():
            try:
                report.actions.append(self._maintain_target(target))
            except ReproError as exc:
                self._breaker(target).record_failure(f"{type(exc).__name__}: {exc}")
                report.actions.append(
                    MaintenanceAction(
                        table_name=target.table_name,
                        output_column=target.output_column,
                        kind="error",
                        old_model_ids=(target.model_id,),
                        details=f"{type(exc).__name__}: {exc}",
                    )
                )
        for action in report.actions:
            if action.kind == "none":
                continue
            self.journal.record(
                "maintenance",
                table=action.table_name,
                column=action.output_column,
                action=action.kind,
                old_model_ids=list(action.old_model_ids),
                new_model_ids=list(action.new_model_ids),
                detail=action.details,
            )
            if action.changepoint_indices:
                self.journal.record(
                    "changepoint",
                    table=action.table_name,
                    column=action.output_column,
                    indices=list(action.changepoint_indices),
                )
        return report

    def _maintain_target(self, target: WatchTarget) -> MaintenanceAction:
        model = self.store.get(target.model_id)
        verdict = target.last_verdict
        drifted = verdict is not None and verdict.drifted

        breaker = self._breaker(target)
        if not breaker.allow():
            # Refit storm: this target's recent refits all failed.  Skip the
            # tick (the stale-but-servable old model keeps answering) until
            # the breaker's cooldown admits a half-open trial.
            return MaintenanceAction(
                table_name=target.table_name,
                output_column=target.output_column,
                kind="none",
                old_model_ids=(model.model_id,),
                details=f"maintenance skipped: circuit breaker {breaker.name!r} is open",
            )

        blocked = self.refit_guard(target.table_name)
        if blocked is not None:
            # No refit, no revalidation: both would score against the
            # partial live rows.  The existing (possibly stale) model keeps
            # serving — stale is servable, and it describes the full
            # logical table where a fresh fit would not.
            return MaintenanceAction(
                table_name=target.table_name,
                output_column=target.output_column,
                kind="none",
                old_model_ids=(model.model_id,),
                details=f"maintenance deferred: {blocked}",
            )

        demotion_reason = model.metadata.pop("planner_demoted", None)
        if demotion_reason is not None:
            # The unified planner sampled this model's answers against exact
            # execution and caught it lying (observed error beyond the
            # quality policy's tolerance).  A quiet drift detector — or a
            # deferred refit — must not talk us out of it: observed errors
            # are ground truth where the detector only sees residual
            # proxies, so refit immediately.
            target.refit_deferred_at_rows = None
            return self._refit_coverage(
                target, model, reason=f"planner demotion: {demotion_reason}"
            )

        if (
            target.refit_deferred_at_rows is not None
            and self.database.table(target.table_name).num_rows <= target.refit_deferred_at_rows
        ):
            # A previous refit attempt on this very data produced nothing
            # acceptable; fitting again would only add another rejected
            # model to the store.  Wait for new rows.
            return MaintenanceAction(
                table_name=target.table_name,
                output_column=target.output_column,
                kind="none",
                details=f"refit deferred until the table grows past "
                f"{target.refit_deferred_at_rows} rows (last attempt found no acceptable fit)",
            )
        target.refit_deferred_at_rows = None

        if not drifted:
            if model.status != "stale":
                return MaintenanceAction(
                    table_name=target.table_name,
                    output_column=target.output_column,
                    kind="none",
                    details="model active and no drift signal",
                )
            # Quiet detector but stale bookkeeping (appends happened):
            # re-validate through the lifecycle machinery.
            results = self.lifecycle.revalidate(target.table_name, target.output_column)
            if model.status == "active":
                return MaintenanceAction(
                    table_name=target.table_name,
                    output_column=target.output_column,
                    kind="revalidated",
                    old_model_ids=(model.model_id,),
                    new_model_ids=(model.model_id,),
                    details=f"re-validated {len(results)} model(s); monitored model reactivated",
                )
            # Revalidation says the fit degraded even without a drift alarm
            # (e.g. slow drift below the detector threshold): refit.
            return self._refit_coverage(target, model, reason="revalidation found degraded fit")

        action = self._handle_drift(target, model)
        # Ingestion marked every model of the table stale; models whose own
        # coverage is untouched by the drift (e.g. historical regime
        # segments) are re-scored and returned to service.
        self.lifecycle.revalidate(target.table_name, target.output_column)
        return action

    # -- drift handling -----------------------------------------------------------------

    def _handle_drift(self, target: WatchTarget, model: CapturedModel) -> MaintenanceAction:
        if target.order_column is None:
            # Without an arrival order there is nothing to segment on; skip
            # the change-point scan entirely.
            return self._refit_coverage(
                target, model, reason="drift confirmed but no order column to segment on"
            )
        arrays, group_keys, order_values = self._ordered_columns(model, target.order_column)
        residuals = _model_residuals(model, arrays, group_keys)
        cp_result = find_changepoints(
            residuals,
            min_segment=self.min_segment,
            max_changepoints=self.max_changepoints,
            significance=self.significance,
        )
        if not cp_result.changepoints:
            return self._refit_coverage(
                target, model, reason=f"drift confirmed; {cp_result.describe()}"
            )
        return self._segment_and_refit(target, model, cp_result, order_values)

    def _refit_coverage(
        self, target: WatchTarget, model: CapturedModel, reason: str
    ) -> MaintenanceAction:
        # Preserve the old model's coverage: a drifted segment model is
        # refitted over its own segment, a whole-table model over the table.
        report = self._harvest(model, predicate_sql=model.coverage.predicate_sql)
        if report.accepted:
            # A rejected refit must not bench the old model: a stale servable
            # model still beats answering nothing.
            self.store.supersede(model.model_id, report.model.model_id)
            self._adopt(target, report.model)
        else:
            # Keep monitoring the still-serving old model; clearing the
            # detector and deferring further attempts until new data arrives
            # prevents a rejected-refit per tick from piling up in the store.
            target.detector.reset()
            target.refit_deferred_at_rows = self.database.table(target.table_name).num_rows
        return MaintenanceAction(
            table_name=target.table_name,
            output_column=target.output_column,
            kind="refit",
            old_model_ids=(model.model_id,),
            new_model_ids=(report.model.model_id,) if report.accepted else (),
            details=f"{reason}; refit coverage as model#{report.model.model_id} "
            f"(accepted={report.accepted})",
        )

    def _segment_and_refit(
        self,
        target: WatchTarget,
        model: CapturedModel,
        cp_result: ChangePointResult,
        order_values: np.ndarray,
    ) -> MaintenanceAction:
        boundaries = _segment_boundaries(cp_result.indices, order_values)
        # The change points were located inside the monitored model's
        # coverage, so the new segments partition *that* subset — a drifted
        # tail-segment model is split into sub-segments of its own range, not
        # into segments that re-cover (and duplicate) historical regimes.
        base_predicate = model.coverage.predicate_sql
        predicates = _segment_predicates(target.order_column, boundaries)
        if base_predicate is not None:
            # Parenthesised: a base predicate containing OR must not be
            # re-bracketed by AND precedence.
            predicates = [f"({base_predicate}) AND ({p})" for p in predicates]
        segment_reports: list[HarvestReport] = []
        for predicate in predicates:
            try:
                segment_reports.append(self._harvest(model, predicate_sql=predicate))
            except ReproError:
                # A segment too small or degenerate to fit is skipped; the
                # whole-table refit below still covers its rows.
                continue
        # Keep full-range answering fresh regardless of what drifted.  The
        # whole-table fit must not abort the segmentation it follows: a
        # raising fit would otherwise leave half-finished state (segments
        # stored, no supersede, no deferral) that is re-done every tick.
        try:
            whole_report = self._harvest(model, predicate_sql=None)
            whole_note = f"whole-table model#{whole_report.model.model_id} (accepted={whole_report.accepted})"
        except ReproError as exc:
            whole_report = None
            whole_note = f"whole-table refit failed ({type(exc).__name__}: {exc})"
        whole_accepted = whole_report is not None and whole_report.accepted

        # The old model's serving role passes to whoever now covers it: the
        # last accepted sub-segment for a partial model, the accepted
        # whole-table refit otherwise.  A rejected successor must not bench
        # the old model — stale servable still beats answering nothing.
        last_segment = next(
            (report.model for report in reversed(segment_reports) if report.accepted), None
        )
        if base_predicate is not None:
            successor = last_segment or (whole_report.model if whole_accepted else None)
        else:
            successor = whole_report.model if whole_accepted else None
        if successor is not None:
            self.store.supersede(model.model_id, successor.model_id)

        # Monitor the freshest regime: new rows arrive at the end of the
        # order, which the last accepted segment model covers best.
        monitored = last_segment
        if monitored is None and whole_accepted:
            monitored = whole_report.model
        if monitored is not None:
            self._adopt(target, monitored)
        else:
            target.detector.reset()
        if not whole_accepted:
            # The store has no fresh acceptable whole-table successor; don't
            # re-attempt on the same data every tick.
            target.refit_deferred_at_rows = self.database.table(target.table_name).num_rows

        # Only adopted (accepted) successors belong in new_model_ids; models
        # the store will never serve are disclosed in the details text.
        new_ids = tuple(r.model.model_id for r in segment_reports if r.accepted)
        if whole_accepted:
            new_ids = new_ids + (whole_report.model.model_id,)
        return MaintenanceAction(
            table_name=target.table_name,
            output_column=target.output_column,
            kind="segmented",
            old_model_ids=(model.model_id,),
            new_model_ids=new_ids,
            changepoint_indices=tuple(cp_result.indices),
            details=(
                f"{cp_result.describe()}; harvested {len(segment_reports)} segment model(s) "
                f"at boundaries {boundaries} plus {whole_note}"
            ),
        )

    # -- helpers ---------------------------------------------------------------------------

    def _harvest(self, model: CapturedModel, predicate_sql: str | None) -> HarvestReport:
        faults = self.resilience.faults
        if faults is not None:
            try:
                faults.hit("streaming.maintenance.refit")
            except OSError as exc:
                raise StreamingError(
                    f"maintenance refit of {model.table_name}.{model.output_column} "
                    f"failed: {exc.strerror or exc}"
                ) from exc
        # Refit with the same estimator settings the original capture used —
        # a robust or Gauss-Newton model must not silently become a plain
        # least-squares one across a maintenance refit.  Partition-scoped
        # models refit over their shard's *current* row range (the partition
        # map may have absorbed appended rows since the capture).
        row_range = model.coverage.row_range
        partition_id = model.metadata.get("partition_id")
        if row_range is not None and partition_id is not None:
            payload = self.database.catalog.table_meta(model.table_name, "partitions")
            for entry in (payload or {}).get("partitions", ()):
                if int(entry["id"]) == int(partition_id):
                    start = int(entry["start"])
                    row_range = (start, start + int(entry["rows"]))
                    break
        report = self.harvester.fit_and_capture(
            model.table_name,
            model.formula,
            group_by=list(model.group_columns) or None,
            predicate_sql=predicate_sql,
            robust=bool(model.metadata.get("robust", False)),
            method=str(model.metadata.get("method", "lm")),
            row_range=row_range,
            partition_id=None if partition_id is None else int(partition_id),
        )
        # A completed fit — accepted or quality-rejected — is not a fault; it
        # closes (or keeps closed) the target's breaker.
        self._breaker(model).record_success()
        return report

    def _adopt(self, target: WatchTarget, model: CapturedModel) -> None:
        target.model_id = model.model_id
        try:
            target.detector.rebase(self._reference_rse(model))
        except DriftMonitorError:
            # Degenerate refit (zero/NaN error): keep the previous reference.
            target.detector.reset()

    @staticmethod
    def _reference_rse(model: CapturedModel) -> float:
        rse = model.quality.residual_standard_error
        if not np.isfinite(rse) or rse <= 0.0:
            raise DriftMonitorError(
                f"model#{model.model_id} has no positive finite residual standard error "
                f"({rse!r}); cannot build a drift reference"
            )
        return float(rse)

    @staticmethod
    def _needed_columns(model: CapturedModel) -> list[str]:
        return list(dict.fromkeys([*model.input_columns, model.output_column]))

    def _covered_table(self, model: CapturedModel, order_column: str | None) -> Table:
        """The model's table restricted to its coverage predicate (if any)."""
        extra = [order_column] if order_column is not None else None
        return self.lifecycle.covered_data(model, extra_columns=extra)

    def _covered_batch_rows(
        self, batch: IngestBatch, model: CapturedModel
    ) -> tuple[tuple[Any, ...], ...]:
        """The batch rows that fall inside the model's coverage predicate."""
        row_range = model.coverage.row_range
        if row_range is not None:
            # Partition-scoped coverage: only the batch rows that landed
            # inside the shard's row interval are the model's to score.
            lo = max(int(row_range[0]), batch.start_row) - batch.start_row
            hi = min(int(row_range[1]), batch.end_row) - batch.start_row
            return batch.rows[lo:hi] if hi > lo else ()
        predicate = model.coverage.predicate_sql
        if predicate is None:
            return batch.rows
        schema = self.database.table(batch.table_name).schema
        staged = Table.from_rows("ingest_batch", schema, batch.rows)
        mask = _parsed_predicate(predicate).evaluate(staged).to_pylist()
        return tuple(row for row, keep in zip(batch.rows, mask) if keep)

    def _batch_columns(
        self, table_name: str, rows: tuple[tuple[Any, ...], ...], model: CapturedModel
    ) -> tuple[dict[str, np.ndarray], list[list[Any]] | None]:
        """Column arrays (and group key lists) for just the given batch rows."""
        schema_names = self.database.table(table_name).schema.names
        positions = {name: i for i, name in enumerate(schema_names)}
        arrays = {
            name: np.array(
                [_as_float(row[positions[name]]) for row in rows], dtype=np.float64
            )
            for name in self._needed_columns(model)
        }
        group_keys = None
        if model.is_grouped:
            group_keys = [
                [row[positions[name]] for row in rows] for name in model.group_columns
            ]
        return arrays, group_keys

    def _ordered_columns(
        self, model: CapturedModel, order_column: str | None
    ) -> tuple[dict[str, np.ndarray], list[Column] | None, np.ndarray | None]:
        """Column arrays of the model's *covered* rows, in arrival order.

        Restricting to the coverage subset matters for partial (segment)
        models: scoring them on rows they never fitted would re-detect every
        historical change point on each new drift.
        """
        table = self._covered_table(model, order_column)
        arrays = {
            name: table.column(name).to_numpy().astype(np.float64)
            for name in self._needed_columns(model)
        }
        group_keys = None
        if model.is_grouped:
            group_keys = [table.column(name) for name in model.group_columns]
        order_values = None
        if order_column is not None:
            order_values = table.column(order_column).to_numpy().astype(np.float64)
            # Rows with a NULL/NaN arrival order cannot be placed on the
            # timeline (and a NaN boundary would render an unparseable
            # predicate); they are excluded from drift analysis.
            finite = np.isfinite(order_values)
            order = np.argsort(order_values[finite], kind="stable")
            arrays = {name: values[finite][order] for name, values in arrays.items()}
            order_values = order_values[finite][order]
            if group_keys is not None:
                kept = np.flatnonzero(finite)[order]
                group_keys = [keys.take(kept) for keys in group_keys]
        return arrays, group_keys, order_values


# ---------------------------------------------------------------------------
# Residual and segmentation helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _parsed_predicate(text: str):
    """Parsed coverage predicates, memoized — on_batch evaluates the same
    predicate for every flushed batch of a watched table."""
    return parse_expression(text)


def _as_float(value: Any) -> float:
    return float(value) if value is not None else float("nan")


def _model_residuals(
    model: CapturedModel,
    arrays: dict[str, np.ndarray],
    group_keys: "list[list[Any]] | list[Column] | None",
) -> np.ndarray:
    """Per-row residuals of ``model`` over the given column arrays.

    Rows of groups the model has no parameters for (new entities appearing
    mid-stream) come back NaN — the detectors and the change-point test both
    ignore non-finite entries.
    """
    y = arrays[model.output_column]
    inputs = {name: arrays[name] for name in model.input_columns}
    return y - model.predict_rows(inputs, group_keys)


def _segment_boundaries(indices: list[int], order_values: np.ndarray) -> list[float]:
    """Order-column values at the change rows, deduplicated and increasing."""
    boundaries: list[float] = []
    for index in indices:
        value = float(order_values[index])
        if not boundaries or value > boundaries[-1]:
            boundaries.append(value)
    return boundaries


def _segment_predicates(order_column: str | None, boundaries: list[float]) -> list[str]:
    """WHERE clauses carving the order-column domain at the boundaries."""
    if order_column is None or not boundaries:
        return []
    predicates = [f"{order_column} < {boundaries[0]!r}"]
    for low, high in zip(boundaries, boundaries[1:]):
        predicates.append(f"{order_column} >= {low!r} AND {order_column} < {high!r}")
    predicates.append(f"{order_column} >= {boundaries[-1]!r}")
    return predicates
