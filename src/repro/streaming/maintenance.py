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

Every refit here is the harvester's one refit (:meth:`ModelHarvester.refit`:
the capture again — formula, grouping, estimator, gate and scope — narrowed
to a segment or widened to the table), and every replacement goes through
the lifecycle's one succession rule (:meth:`ModelLifecycleManager.succeed`).
Rows are the coverage's (:func:`~repro.core.captured_model.covered_rows`)
and scores are :func:`~repro.core.captured_model.residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.captured_model import CapturedModel, covered_rows, residuals
from repro.core.harvester import HarvestReport, ModelHarvester
from repro.core.model_store import ModelStore
from repro.core.storage.model_switching import ModelLifecycleManager
from repro.db.archived import refit_reason
from repro.db.database import Database
from repro.db.table import Table
from repro.errors import DriftMonitorError, ModelNotFoundError, ReproError, StreamingError
from repro.obs.events import EventJournal
from repro.resilience import CircuitBreaker, ResilienceRuntime
from repro.streaming.changepoint import ChangePointResult, find_changepoints
from repro.streaming.drift import DriftVerdict, ResidualDriftDetector
from repro.streaming.ingest import IngestBatch

__all__ = ["WatchTarget", "MaintenanceAction", "MaintenanceReport", "ModelMaintenancePolicy"]

#: Residuals a watch's drift detector scores over (its other settings are
#: the detector's defaults).
DRIFT_WINDOW = 512


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
        min_segment: int = 16,
        significance: float = 2.5,
        max_changepoints: int = 4,
    ) -> None:
        self.database = database
        self.store = store
        self.harvester = harvester
        self.lifecycle = lifecycle
        self.min_segment = min_segment
        self.significance = significance
        self.max_changepoints = max_changepoints
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
        detector = ResidualDriftDetector(reference_rse=self._reference_rse(model), window=DRIFT_WINDOW)
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
        staged: Table | None = None
        for target in self._targets.values():
            if target.table_name != batch.table_name:
                continue
            if staged is None:
                schema = self.database.table(batch.table_name).schema
                staged = Table.from_rows("ingest_batch", schema, batch.rows)
            model = self.store.get(target.model_id)
            rows = covered_rows(staged, model.coverage, start_row=batch.start_row)
            if not rows.num_rows:
                continue
            was_drifted = (
                target.last_verdict is not None and target.last_verdict.drifted
            )
            target.detector.observe(residuals(model, rows))
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

        blocked = refit_reason(self.database.catalog, target.table_name)
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
        # The model's *covered* rows in arrival order: scoring a partial
        # (segment) model on rows it never fitted would re-detect every
        # historical change point on each new drift.  Rows with a NULL
        # arrival order cannot be placed on the timeline (and a NaN boundary
        # would render an unparseable predicate); they are left out.
        table = covered_rows(self.database.table(model.table_name), model.coverage)
        order_values = table.column(target.order_column).float_numpy()
        placed = np.flatnonzero(np.isfinite(order_values))
        order = placed[np.argsort(order_values[placed], kind="stable")]
        cp_result = find_changepoints(
            residuals(model, table.take(order)),
            min_segment=self.min_segment,
            max_changepoints=self.max_changepoints,
            significance=self.significance,
        )
        if not cp_result.changepoints:
            return self._refit_coverage(
                target, model, reason=f"drift confirmed; {cp_result.describe()}"
            )
        return self._segment_and_refit(target, model, cp_result, order_values[order])

    def _refit_coverage(
        self, target: WatchTarget, model: CapturedModel, reason: str
    ) -> MaintenanceAction:
        # The old model's own scope: a drifted segment model is refitted
        # over its own segment, a whole-table model over the table.
        report = self._harvest(model)
        if report.accepted:
            self._adopt(target, self.lifecycle.succeed(model, report))
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
        segment_reports: list[HarvestReport] = []
        for segment in _segment_predicates(target.order_column, boundaries):
            try:
                segment_reports.append(self._harvest(model, segment))
            except ReproError:
                # A segment too small or degenerate to fit is skipped; the
                # whole-table refit below still covers its rows.
                continue
        # Keep full-range answering fresh regardless of what drifted.  The
        # whole-table fit must not abort the segmentation it follows: a
        # raising fit would otherwise leave half-finished state (segments
        # stored, no supersede, no deferral) that is re-done every tick.
        try:
            whole_report = self._harvest(model, keep_predicate=False)
            whole_note = f"whole-table model#{whole_report.model.model_id} (accepted={whole_report.accepted})"
        except ReproError as exc:
            whole_report = None
            whole_note = f"whole-table refit failed ({type(exc).__name__}: {exc})"
        whole_accepted = whole_report is not None and whole_report.accepted

        # The old model's serving role passes to whoever now covers it: the
        # last accepted sub-segment for a partial model, the whole-table
        # refit otherwise — through the one succession rule.
        last_segment = next((report for report in reversed(segment_reports) if report.accepted), None)
        successor = whole_report
        if model.coverage.predicate_sql is not None and last_segment is not None:
            successor = last_segment
        if successor is not None:
            self.lifecycle.succeed(model, successor)

        # Monitor the freshest regime: new rows arrive at the end of the
        # order, which the last accepted segment model covers best.
        monitored = last_segment or (whole_report if whole_accepted else None)
        if monitored is not None:
            self._adopt(target, monitored.model)
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

    def _harvest(
        self, model: CapturedModel, segment: str | None = None, *, keep_predicate: bool = True
    ) -> HarvestReport:
        """The harvester's one refit, behind the target's fault point and breaker."""
        faults = self.resilience.faults
        if faults is not None:
            try:
                faults.hit("streaming.maintenance.refit")
            except OSError as exc:
                raise StreamingError(
                    f"maintenance refit of {model.table_name}.{model.output_column} "
                    f"failed: {exc.strerror or exc}"
                ) from exc
        report = self.harvester.refit(model, segment, keep_predicate=keep_predicate)
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


# ---------------------------------------------------------------------------
# Segmentation helpers
# ---------------------------------------------------------------------------


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
