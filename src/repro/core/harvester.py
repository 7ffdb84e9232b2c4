"""The model harvester: in-database fitting with interception.

This is Figure 2 of the paper in code.  When a strawman frame (or the user
directly) asks the engine to fit a model formula against a stored table, the
harvester

1. runs the fitting *inside* the database (using :mod:`repro.fitting`),
2. judges the quality of the fit (:mod:`repro.core.quality`),
3. stores the model source (formula), the trained parameters and the quality
   in the model store, and
4. returns the goodness of fit to the user — who never needs to know the
   model was captured.

The harvester also listens to the UDF registry's fit log, so fits executed
through the in-database UDF path are captured identically.  A refit is the
capture again: :meth:`ModelHarvester.refit` re-runs it with the settings the
capture recorded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from repro.core.captured_model import CapturedModel, ModelCoverage, covered_rows, narrow
from repro.core.model_store import ModelStore
from repro.core.quality import ModelQuality, QualityPolicy, judge_fit, judge_grouped
from repro.db.database import Database
from repro.db.table import Table
from repro.db.udf import FitInvocation
from repro.errors import ConvergenceError, HarvestError, ReproError
from repro.fitting.fit import fit_model
from repro.fitting.formulas import ParsedFormula, parse_formula
from repro.fitting.grouped import GroupedFitter
from repro.fitting.model import FitResult
from repro.fitting.robust import fit_robust
from repro.obs.events import EventJournal
from repro.obs.flight import is_telemetry_table
from repro.weakcall import weak_callback

__all__ = ["HarvestReport", "ModelHarvester"]


@dataclass
class HarvestReport:
    """What the user gets back from a (captured) fit: the goodness of fit.

    This mirrors step (3) of Figure 2 — "the database dutifully fits the
    model and returns the goodness of fit" — plus a handle on the captured
    model for tests and power users.
    """

    model: CapturedModel
    quality: ModelQuality
    accepted: bool

    @property
    def r_squared(self) -> float:
        return self.quality.r_squared

    @property
    def residual_standard_error(self) -> float:
        return self.quality.residual_standard_error

    def parameter_table(self) -> Table:
        return self.model.parameter_table()

    def summary(self) -> str:
        verdict = "accepted" if self.accepted else "rejected"
        return f"{self.model.describe()} -> {verdict}"


class ModelHarvester:
    """Fits user models inside the database and captures the results."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        policy: QualityPolicy | None = None,
        *,
        journal: EventJournal,
        fit_guard: Callable[[str], str | None],
        faults: Any = None,
    ) -> None:
        self.database = database
        self.store = store
        self.policy = policy or QualityPolicy()
        #: Every capture is recorded here.
        self.journal = journal
        #: ``(table_name) -> str | None`` naming why a capture over the table
        #: is unsound right now: with cold rows in the model-only archive
        #: tier, a fit would see only the predicate-biased live remainder yet
        #: be served as describing the full logical table.  Gated here — the
        #: chokepoint every capture path (fit(), strawman, UDF interception,
        #: grouped on-demand harvest, maintenance refits) runs through.
        self.fit_guard = fit_guard
        #: Fault injector (``fitting.fit``; None = unarmed): exception storms,
        #: latency spikes, and the cooperative ``nan`` kind that replaces
        #: fitted coefficients with NaNs (a silently diverged solver).
        self.faults = faults
        # Capture fits that go through the in-database UDF path as well.
        self.database.udfs.add_fit_listener(weak_callback(self._on_udf_fit))

    # -- the main entry point ----------------------------------------------------

    def fit_and_capture(
        self,
        table_name: str,
        formula: str,
        group_by: str | list[str] | None = None,
        predicate_sql: str | None = None,
        robust: bool = False,
        method: str = "lm",
        min_observations: int | None = None,
        row_range: tuple[int, int] | None = None,
        partition_id: int | None = None,
        policy: "QualityPolicy | None" = None,
    ) -> HarvestReport:
        """Fit ``formula`` against a stored table and capture the model.

        Parameters
        ----------
        table_name:
            Base table to fit against.
        formula:
            Model formula, e.g. ``"intensity ~ powerlaw(frequency)"``.
        group_by:
            Optional column (or columns) to fit one model per group — the
            LOFAR per-source case.
        predicate_sql:
            Optional SQL WHERE clause restricting the fitted subset (the
            "partial models" case); recorded in the coverage metadata.
        robust:
            Use IRLS / trimmed robust fitting instead of plain least squares.
        method:
            ``"lm"`` (Levenberg-Marquardt) or ``"gn"`` (Gauss-Newton) for
            non-linear families.
        row_range:
            Optional half-open row interval restricting the fit to a table
            partition; recorded in the coverage so serving, drift detection
            and refits stay scoped to that shard.  Mutually exclusive with
            ``predicate_sql``.
        partition_id:
            Partition the ``row_range`` belongs to, recorded in the model
            metadata so a re-partition can find and refresh shard models.
        policy:
            Per-capture override of the acceptance gate.  The flight
            recorder uses this for its telemetry baselines: a flat latency
            series is the healthy case, yet its R² ≈ 0 would fail the
            default gate tuned for user data.
        """
        blocked = self.fit_guard(table_name)
        if blocked is not None:
            raise HarvestError(f"cannot capture a model of {table_name!r}: {blocked}")
        if row_range is not None and predicate_sql is not None:
            raise HarvestError(
                "row_range and predicate_sql cannot be combined: a partition model "
                "covers its row interval unconditionally"
            )
        parsed = parse_formula(formula)
        group_columns = self._normalise_group_by(group_by)
        coverage = ModelCoverage(
            table_name=table_name,
            input_columns=parsed.inputs,
            output_column=parsed.output,
            group_columns=tuple(group_columns),
            predicate_sql=predicate_sql,
            row_range=row_range,
        )
        table = self._fitting_input(coverage, parsed.text)

        gate = policy if policy is not None else self.policy
        if group_columns:
            fit_result, quality, fraction = self._fit_grouped(table, parsed, group_columns, method, min_observations)
            accepted = gate.accepts(quality) and fraction >= gate.min_group_pass_fraction
        else:
            fit_result, quality = self._fit_single(table, parsed, robust, method)
            fraction = 1.0
            accepted = gate.accepts(quality)

        # Everything a refit needs to capture the model again as it was
        # captured (read back by :meth:`capture_settings` only).
        metadata: dict[str, Any] = {"robust": robust, "method": method}
        if min_observations is not None:
            metadata["min_observations"] = int(min_observations)
        if policy is not None:
            metadata["policy"] = asdict(policy)
        if partition_id is not None:
            metadata["partition_id"] = int(partition_id)
        model = CapturedModel(
            coverage=coverage,
            formula=formula,
            fit=fit_result,
            quality=quality,
            accepted=accepted,
            group_fit_fraction=fraction,
            fitted_row_count=table.num_rows,
            metadata=metadata,
        )
        self.store.add(model)
        self.journal.record(
            "model-capture",
            model_id=model.model_id,
            table=table_name,
            column=parsed.output,
            formula=formula,
            accepted=accepted,
            grouped=bool(group_columns),
        )
        return HarvestReport(model=model, quality=quality, accepted=accepted)

    def fit_partitioned(
        self,
        table_name: str,
        formula: str,
        group_by: str | list[str] | None = None,
        robust: bool = False,
        method: str = "lm",
        min_observations: int | None = None,
    ) -> list[HarvestReport]:
        """Fit one model per partition of ``table_name`` (partition map in
        the catalog metadata) and capture each with partition-scoped coverage.

        Drift detection, demotion and refit then run per shard: a batch
        appended past a partition's row range never stales that partition's
        model, and maintenance refits only the shards that moved.  Grouped
        per-partition models are merged per group by the grouped route, the
        same way archive-segment models are.
        """
        ranges = self._partition_ranges(table_name)
        if not ranges:
            raise HarvestError(
                f"table {table_name!r} has no partition map; call partition_table() first"
            )
        return [
            self.fit_and_capture(
                table_name,
                formula,
                group_by=group_by,
                robust=robust,
                method=method,
                min_observations=min_observations,
                row_range=row_range,
                partition_id=partition_id,
            )
            for partition_id, row_range in ranges.items()
        ]

    # -- capturing again ----------------------------------------------------------

    def capture_settings(self, model: CapturedModel) -> dict[str, Any]:
        """How ``model`` was captured, as :meth:`fit_and_capture` keywords.

        Formula, grouping, estimator, the per-capture gate (``policy`` is
        None for the harvester's own) and scope — a partition model's scope
        is its partition's *current* row range: the partition map may have
        absorbed appended rows since the capture.  A model restored from a
        warehouse written before a setting was recorded gets the default.
        """
        metadata = model.metadata
        policy = metadata.get("policy")
        partition_id = metadata.get("partition_id")
        row_range = model.coverage.row_range
        if row_range is not None and partition_id is not None:
            row_range = self._partition_ranges(model.table_name).get(int(partition_id), row_range)
        return {
            "formula": model.formula,
            "group_by": list(model.group_columns) or None,
            "predicate_sql": model.coverage.predicate_sql,
            "robust": bool(metadata.get("robust", False)),
            "method": str(metadata.get("method", "lm")),
            "min_observations": metadata.get("min_observations"),
            "row_range": row_range,
            "partition_id": None if partition_id is None else int(partition_id),
            "policy": None if policy is None else QualityPolicy(**policy),
        }

    def gate(self, model: CapturedModel) -> QualityPolicy:
        """The acceptance gate ``model`` was captured under."""
        return self.capture_settings(model)["policy"] or self.policy

    def refit(
        self, model: CapturedModel, segment: str | None = None, *, keep_predicate: bool = True
    ) -> HarvestReport:
        """Capture ``model`` again, over the current rows of its scope.

        ``segment`` narrows the scope to one regime of it;
        ``keep_predicate=False`` widens a partial model's scope to its whole
        table.  Whether the new capture replaces ``model`` is the lifecycle's
        one succession rule (``ModelLifecycleManager.succeed``).
        """
        settings = self.capture_settings(model)
        if not keep_predicate:
            settings["predicate_sql"] = None
        if segment is not None:
            settings["predicate_sql"] = narrow(settings["predicate_sql"], segment)
        return self.fit_and_capture(model.table_name, **settings)

    def ensure_grouped(
        self,
        table_name: str,
        output_column: str,
        group_columns: tuple[str, ...] | list[str],
        formula: str | None = None,
    ) -> CapturedModel | None:
        """Make sure a grouped model exists for ``output_column`` per the keys.

        The approximate engine calls this when a ``GROUP BY`` query arrives
        for a column whose captured models are all ungrouped: the same
        formula (and estimator settings) the best existing capture used is
        refitted per group, so group-by columns get grouped models harvested
        on demand.  Returns the servable grouped model, or None when there is
        nothing to derive a formula from or the grouped refit is rejected.
        """
        group_columns = tuple(group_columns)
        existing = self.store.grouped_candidates(table_name, output_column, group_columns)
        if existing:
            return existing[-1]

        # Negative cache: if a grouped refit over this very data was already
        # rejected, don't re-scan and refit on every query — wait for growth.
        prior = [
            m
            for m in self.store.models_for_table(table_name, include_unusable=True)
            if m.output_column == output_column
            and m.is_grouped
            and set(m.group_columns) == set(group_columns)
        ]
        current_rows = self.database.table(table_name).num_rows
        if any(not m.accepted and m.fitted_row_count >= current_rows for m in prior):
            return None

        settings: dict[str, Any] = {"formula": formula}
        if formula is None:
            # Any capture of the target column works as a formula template —
            # including *rejected* ones: a global fit the quality gate turned
            # down (per-group structure it cannot express) is exactly the
            # formula worth refitting per group (the LOFAR per-source case).
            templates = [
                m
                for m in self.store.models_for_table(table_name, include_unusable=True)
                if m.output_column == output_column and not m.is_grouped
            ]
            if not templates:
                return None
            template = max(
                templates, key=lambda m: (m.quality.adjusted_r_squared, m.model_id)
            )
            # The template's estimator and gate, over the whole table.
            settings = self.capture_settings(template)
            settings.update(predicate_sql=None, row_range=None, partition_id=None)
        settings["group_by"] = list(group_columns)
        try:
            report = self.fit_and_capture(table_name, **settings)
        except ReproError:
            return None
        return report.model if report.accepted else None

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _normalise_group_by(group_by: str | list[str] | None) -> list[str]:
        if group_by is None:
            return []
        if isinstance(group_by, str):
            return [group_by]
        return list(group_by)

    def _partition_ranges(self, table_name: str) -> dict[int, tuple[int, int]]:
        """Partition id -> current half-open row range, from the catalog's map."""
        payload = self.database.catalog.table_meta(table_name, "partitions") or {}
        return {
            int(entry["id"]): (int(entry["start"]), int(entry["start"]) + int(entry["rows"]))
            for entry in payload.get("partitions", ())
        }

    def _fitting_input(self, coverage: ModelCoverage, formula: str) -> Table:
        """Materialise exactly the columns (and rows) the fit needs."""
        table_name = coverage.table_name
        table = self.database.table(table_name)
        columns = [*coverage.group_columns, *coverage.input_columns, coverage.output_column]
        needed = list(dict.fromkeys(columns))
        missing = [name for name in needed if name not in table.schema]
        if missing:
            raise HarvestError(
                f"formula {formula!r} references columns {missing} not present in table {table_name!r}"
            )
        row_range = coverage.row_range
        if row_range is not None and not (0 <= row_range[0] <= row_range[1] <= table.num_rows):
            raise HarvestError(
                f"row range {row_range!r} is outside table {table_name!r} ({table.num_rows} rows)"
            )
        return covered_rows(table, coverage).select(needed)

    def _fit_single(
        self, table: Table, parsed: ParsedFormula, robust: bool, method: str
    ) -> tuple[FitResult, ModelQuality]:
        family = parsed.build_family()
        inputs = {name: table.column(name).float_numpy() for name in parsed.inputs}
        y = table.column(parsed.output).float_numpy()
        action = self.faults.hit("fitting.fit") if self.faults is not None else None
        if robust:
            fit = fit_robust(family, inputs, y, output_name=parsed.output)
        else:
            fit = fit_model(family, inputs, y, output_name=parsed.output, method=method)
        if action is not None and action.kind == "nan":
            fit.params = np.full_like(np.asarray(fit.params, dtype=np.float64), np.nan)
            fit.converged = False
        if not np.all(np.isfinite(fit.params)):
            # A solver that "succeeds" with NaN/inf coefficients has
            # diverged; capturing it would poison every downstream answer
            # with NaNs that no error bound discloses.
            raise ConvergenceError(
                f"fit of {parsed.text!r} produced non-finite coefficients "
                f"{np.asarray(fit.params).tolist()!r}; refusing to capture"
            )
        quality = judge_fit(fit, y=y, inputs=inputs)
        return fit, quality

    def _fit_grouped(
        self,
        table: Table,
        parsed: ParsedFormula,
        group_columns: list[str],
        method: str,
        min_observations: int | None,
    ):
        family = parsed.build_family()
        fitter = GroupedFitter(
            family,
            input_columns=parsed.inputs,
            output_column=parsed.output,
            group_columns=group_columns,
            method=method,
            min_observations=min_observations,
        )
        grouped = fitter.fit(table)
        quality, fraction = judge_grouped(grouped.records)
        return grouped, quality, fraction

    # -- UDF interception path ------------------------------------------------------------

    def _on_udf_fit(self, invocation: FitInvocation) -> None:
        """Capture a fit that was executed through the in-database UDF layer."""
        if is_telemetry_table(invocation.table_name):
            # The flight recorder owns its baselines; an ad-hoc UDF fit over
            # a `_telemetry_*` table must not auto-register watcher models.
            return
        inputs = ", ".join(invocation.input_columns)
        formula = f"{invocation.output_column} ~ {invocation.model_name}({inputs})"
        try:
            self.fit_and_capture(
                invocation.table_name,
                formula,
                group_by=invocation.group_by or None,
            )
        except ReproError:
            # A malformed UDF fit must not break the user's query; the model
            # is simply not captured.
            pass

    # -- provenance -----------------------------------------------------------------------------

    def capture_invocation(self, invocation: FitInvocation) -> HarvestReport:
        """Explicitly capture a previously logged UDF fit invocation."""
        inputs = ", ".join(invocation.input_columns)
        formula = f"{invocation.output_column} ~ {invocation.model_name}({inputs})"
        return self.fit_and_capture(invocation.table_name, formula, group_by=invocation.group_by or None)
