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
through the in-database UDF path are captured identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.captured_model import CapturedModel, ModelCoverage
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
        table = self._fitting_input(table_name, parsed, group_columns, predicate_sql, row_range)

        gate = policy if policy is not None else self.policy
        if group_columns:
            fit_result, quality, fraction = self._fit_grouped(table, parsed, group_columns, method, min_observations)
            accepted = gate.accepts(quality) and fraction >= gate.min_group_pass_fraction
        else:
            fit_result, quality = self._fit_single(table, parsed, robust, method)
            fraction = 1.0
            accepted = gate.accepts(quality)

        coverage = ModelCoverage(
            table_name=table_name,
            input_columns=parsed.inputs,
            output_column=parsed.output,
            group_columns=tuple(group_columns),
            predicate_sql=predicate_sql,
            row_range=row_range,
        )
        metadata: dict[str, Any] = {"robust": robust, "method": method}
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
        payload = self.database.catalog.table_meta(table_name, "partitions")
        if not payload or not payload.get("partitions"):
            raise HarvestError(
                f"table {table_name!r} has no partition map; call partition_table() first"
            )
        reports: list[HarvestReport] = []
        for entry in payload["partitions"]:
            start = int(entry["start"])
            stop = start + int(entry["rows"])
            reports.append(
                self.fit_and_capture(
                    table_name,
                    formula,
                    group_by=group_by,
                    robust=robust,
                    method=method,
                    min_observations=min_observations,
                    row_range=(start, stop),
                    partition_id=int(entry["id"]),
                )
            )
        return reports

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

        robust, method = False, "lm"
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
            formula = template.formula
            robust = bool(template.metadata.get("robust", False))
            method = str(template.metadata.get("method", "lm"))
        try:
            report = self.fit_and_capture(
                table_name,
                formula,
                group_by=list(group_columns),
                robust=robust,
                method=method,
            )
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

    def _fitting_input(
        self,
        table_name: str,
        parsed: ParsedFormula,
        group_columns: list[str],
        predicate_sql: str | None,
        row_range: tuple[int, int] | None = None,
    ) -> Table:
        """Materialise exactly the columns (and rows) the fit needs."""
        table = self.database.table(table_name)
        needed = list(dict.fromkeys([*group_columns, *parsed.inputs, parsed.output]))
        missing = [name for name in needed if name not in table.schema]
        if missing:
            raise HarvestError(
                f"formula {parsed.text!r} references columns {missing} not present in table {table_name!r}"
            )
        if predicate_sql:
            projected = ", ".join(needed)
            result = self.database.query(f"SELECT {projected} FROM {table_name} WHERE {predicate_sql}")
            return result
        if row_range is not None:
            start, stop = row_range
            if not (0 <= start <= stop <= table.num_rows):
                raise HarvestError(
                    f"row range {row_range!r} is outside table {table_name!r} "
                    f"({table.num_rows} rows)"
                )
            return table.slice(start, stop).select(needed)
        return table.select(needed)

    def _fit_single(
        self, table: Table, parsed: ParsedFormula, robust: bool, method: str
    ) -> tuple[FitResult, ModelQuality]:
        family = parsed.build_family()
        inputs = {name: table.column(name).to_numpy().astype(np.float64) for name in parsed.inputs}
        y = table.column(parsed.output).to_numpy().astype(np.float64)
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
