"""The unified accuracy-aware query planner: one decision per statement.

Every SQL statement becomes one :class:`UnifiedPlan` whose candidate nodes
are either model-serving routes (the PR-2 routing machinery, probed
statically through :meth:`ApproximateQueryEngine.sketch_route`) or the
exact vectorized pipeline (PR-3), each with a predicted cost (from the
constants of :mod:`repro.core.planner.cost`, the prior the online
calibrator starts from) and a predicted relative error (from the
captured models' quality judgements).  The accuracy contract decides which
node executes.  The planner only *decides*: running the chosen node,
auditing a sample against exact and accounting for it are the stages of
:mod:`repro.core.pipeline`.

Plans are cached in an LRU keyed on (sql, contract, catalog version,
model-store version, cost model): any DDL/data change, model lifecycle
event or recalibration invalidates affected decisions, so a cached decision
can never outlive the state it was costed against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from repro.core.approx.engine import ApproximateAnswer, ApproximateQueryEngine, RouteSketch
from repro.core.approx.error_bounds import ErrorEstimate
from repro.core.model_store import ModelStore
from repro.core.planner.contract import AccuracyContract, AUTO
from repro.core.planner.cost import CostModel
from repro.core.planner.feedback import FeedbackResult, ObservedErrorFeedback
from repro.core.planner.nodes import PlanNode, UnifiedPlan
from repro.core.snapshot import Snapshot
from repro.db.database import Database
from repro.db.lru import LockedLRU
from repro.db.sql.ast import SelectStatement, Statement
from repro.db.sql.executor import QueryResult
from repro.db.stats import TableStats
from repro.errors import ApproximationError
from repro.db.table import Table
from repro.obs.flight import is_telemetry_table

__all__ = ["PlannedAnswer", "UnifiedPlanner"]

#: Aggregate-specific scaling of the model's base relative error: counts
#: come from (near-live) cardinalities, extremes pay the Gaussian
#: extreme-value premium, value aggregates track the model's own scale.
_AGGREGATE_ERROR_FACTOR = MappingProxyType(
    {
        "count": 0.25,
        "avg": 1.0,
        "sum": 1.0,
        "min": 2.0,
        "max": 2.0,
        "stddev": 1.0,
        "var": 1.0,
    }
)


class _BlockedWording(NamedTuple):
    """How a plan words "the raw rows cannot honestly be scanned"."""

    pinned_exact: str
    unusable: str
    over_budget: str
    served: str
    hybrid: str


_ARCHIVED = _BlockedWording(
    pinned_exact="the raw rows are archived",
    unusable="archived raw rows",
    over_budget="the raw rows are archived",
    served=(
        "raw segments archived to the model-only tier; serving purely from "
        "warehouse models (zero raw IO)"
    ),
    # A hybrid plan's exact fill-in scans raw rows the archive no longer
    # holds — it is as dishonest as plain exact execution.
    hybrid="hybrid route needs an exact fill-in over archived raw rows",
)
_DEGRADED = _BlockedWording(
    pinned_exact="a component this statement needs is degraded",
    unusable="degraded component",
    over_budget="a needed component is degraded",
    served=(
        "a component this statement needs is degraded; serving from the "
        "surviving models (disclosed)"
    ),
    # The hybrid fill-in would scan the surviving partial rows of a failed
    # component and silently under-count.
    hybrid="hybrid route needs an exact fill-in over a degraded component",
)


@dataclass
class PlannedAnswer:
    """The result of executing one unified plan."""

    sql: str
    contract: AccuracyContract
    plan: UnifiedPlan
    table: Table
    #: The route that actually served the answer (the engine may have
    #: fallen back past the planner's prediction).
    route_taken: str
    is_exact: bool
    approx: ApproximateAnswer | None = None
    query_result: QueryResult | None = None
    elapsed_seconds: float = 0.0
    #: Set when this execution was sampled for verification.
    feedback: FeedbackResult | None = None
    column_errors: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return self.table.to_rows()

    def scalar(self) -> Any:
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ApproximationError(
                f"scalar() requires a 1x1 result, got "
                f"{self.table.num_rows}x{self.table.num_columns}"
            )
        return self.table.row(0)[0]

    def error_estimate(self, column: str) -> ErrorEstimate | None:
        """The error band attached to one result column (None when exact)."""
        if self.approx is not None:
            return self.approx.error_estimate(column)
        return None

    @property
    def io(self) -> dict[str, float]:
        """Simulated page IO charged to serving this answer."""
        served = self.approx if self.approx is not None else self.query_result
        return served.io if served is not None else {}

    @property
    def observed_relative_error(self) -> float | None:
        return self.feedback.observed_relative_error if self.feedback else None

    @property
    def degraded_reason(self) -> str | None:
        """Why this answer was served from surviving models only (disclosure)."""
        return self.plan.degraded_reason


class UnifiedPlanner:
    """Cost-routes every statement between model serving and exact execution."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        engine: ApproximateQueryEngine,
        feedback: ObservedErrorFeedback,
        *,
        archive_guard: Callable[[SelectStatement], str | None],
        degraded_guard: Callable[[SelectStatement], str | None],
        cost_model: CostModel | None = None,
        plan_cache_size: int = 128,
    ) -> None:
        self.database = database
        self.store = store
        self.engine = engine
        self.cost_model = cost_model or CostModel()
        self.feedback = feedback
        #: ``(SelectStatement) -> str | None`` naming why a statement cannot
        #: honestly run over the raw rows (the archive tier's model-only
        #: guard).  When it fires, only pure model routes may execute;
        #: anything else raises with the reason.
        self.archive_guard = archive_guard
        #: ``(SelectStatement) -> str | None`` naming why a component this
        #: statement depends on is failed or quarantined ("``component`` —
        #: ``quarantine reason``").  Exact execution over the surviving
        #: partial rows would be silently wrong; pure model routes still
        #: answer (with the reason disclosed on the plan) and everything else
        #: raises :class:`~repro.errors.DegradedServiceError`.
        self.degraded_guard = degraded_guard
        #: Plans are keyed on everything they were costed against, the cost
        #: model included: installing another one invalidates them all.
        self._plan_cache = LockedLRU(plan_cache_size)
        #: Last snapshot handed out, reused while both registries are
        #: unchanged so repeated tiny queries do not re-copy table/model
        #: maps.  A benign overwrite race just builds one extra snapshot.
        self._snapshot_memo: Snapshot | None = None

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin (or reuse) a consistent snapshot of the catalog and the models.

        The memoized snapshot is reused only while both *live* versions are
        unchanged and its model pin was never dirtied by own-write
        mirroring — a mirrored pin can carry the live version number while
        missing another thread's concurrent registration.
        """
        memo = self._snapshot_memo
        if (
            memo is not None
            and not memo.models._mirrored
            and memo.catalog.version == self.database.catalog.live_version
            and memo.models._version == self.store.live_version
        ):
            return memo
        snap = Snapshot.capture(self.database.catalog, self.store)
        self._snapshot_memo = snap
        return snap

    # -- planning -------------------------------------------------------------

    def plan(
        self,
        sql: str,
        contract: AccuracyContract | None = None,
        for_execution: bool = False,
        statement: Statement | None = None,
    ) -> UnifiedPlan:
        """Build (or fetch) the unified plan for ``sql`` under ``contract``.

        ``for_execution=False`` (EXPLAIN) is side-effect free; True permits
        what real execution would do anyway (the on-demand grouped harvest).
        ``statement`` hands over the AST the query pipeline already parsed.
        """
        contract = contract or AUTO
        key = (
            sql,
            contract,
            for_execution,
            self.database.catalog.version,
            self.store.version,
            self.cost_model,
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        started = perf_counter()
        # Planning runs outside the cache lock (it may scan tables for the
        # on-demand harvest); two threads racing the same key just build
        # the plan twice and the last insert wins.
        if statement is None:
            statement = self.database.parse_sql(sql)
        plan = self._build_plan(sql, statement, contract, for_execution)
        plan.planning_seconds = perf_counter() - started
        self._plan_cache.put(key, plan)
        return plan

    def set_cost_model(self, cost_model: CostModel) -> None:
        """Install a recalibrated cost model and invalidate cached plans.

        The adaptive calibrator's entry point.  The cost model is part of
        the plan-cache key, so no decision costed with the old rates can be
        served once the new one is installed; the clear only frees them.
        """
        self.cost_model = cost_model
        self._plan_cache.clear()

    def clear_plan_cache(self) -> None:
        """Drop every cached route decision (counters are kept)."""
        self._plan_cache.clear()

    def explain(self, sql: str, contract: AccuracyContract | None = None) -> str:
        """Render the chosen route, predicted cost and predicted error per node."""
        return self.plan(sql, contract, for_execution=False).explain()

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters and current occupancy of the route-decision cache."""
        return self._plan_cache.info()

    def _build_plan(
        self, sql: str, statement: Statement, contract: AccuracyContract, for_execution: bool
    ) -> UnifiedPlan:
        catalog_version = self.database.catalog.version
        store_version = self.store.version
        telemetry = _references_telemetry(statement)

        if not isinstance(statement, SelectStatement):
            is_create = type(statement).__name__.startswith("CreateTable")
            node = PlanNode(
                kind="ddl" if is_create else "dml",
                route="create" if is_create else "insert",
                detail="DDL/DML always executes against the stored data",
            )
            return UnifiedPlan(
                sql=sql,
                contract=contract,
                statement_type=node.route,
                candidates=[node],
                chosen=node,
                reason="not a SELECT; model routes do not apply",
                catalog_version=catalog_version,
                store_version=store_version,
                telemetry=telemetry,
            )

        stats_by_table = self._statement_stats(statement)
        exact_node = self._exact_node(sql, statement, stats_by_table)
        candidates = [exact_node]

        archived_reason = self.archive_guard(statement)
        degraded_reason = self.degraded_guard(statement)
        # From here on "the raw rows cannot honestly be scanned" is one
        # concept; which guard fired (archive first) only picks the wording.
        blocked = archived_reason if archived_reason is not None else degraded_reason
        wording = _ARCHIVED if archived_reason is not None else _DEGRADED

        sketch: RouteSketch | None = None
        if contract.mode != "exact" or blocked is not None:
            # Even under a pinned-exact contract a blocked statement needs
            # the model candidate sketched, so EXPLAIN shows the only honest
            # route next to the unavailable exact one.
            sketch = self.engine.sketch_route(
                sql, statement=statement, for_execution=for_execution
            )
        model_node = None
        if sketch is not None:
            model_node = self._model_node(sketch, statement, stats_by_table)
            candidates.insert(0, model_node)

        if blocked is None:
            chosen, reason = self._choose(contract, model_node, exact_node)
        else:
            exact_node.unavailable_reason = blocked
            if model_node is not None and sketch.uncovered_rows > 0:
                model_node.unavailable_reason = wording.hybrid
            chosen, reason = self._choose_blocked(contract, model_node, exact_node, wording)
        return UnifiedPlan(
            sql=sql,
            contract=contract,
            statement_type="select",
            candidates=candidates,
            chosen=chosen,
            reason=reason,
            catalog_version=catalog_version,
            store_version=store_version,
            sketch=sketch,
            archived_reason=archived_reason,
            degraded_reason=degraded_reason,
            cost_source=self.cost_model.source,
            telemetry=telemetry,
        )

    def _statement_stats(self, statement: SelectStatement) -> dict[str, TableStats]:
        stats: dict[str, TableStats] = {}
        for name in statement.table_names():
            if name not in stats and self.database.has_table(name):
                stats[name] = self.database.stats(name)
        return stats

    def _exact_node(
        self,
        sql: str,
        statement: SelectStatement,
        stats_by_table: dict[str, TableStats],
    ) -> PlanNode:
        seconds = self.cost_model.exact_seconds(statement, stats_by_table)
        try:
            _, plan_text = self.database.executor.plan_statement(sql, statement)
            detail = plan_text.replace("\n", " → ")
        except Exception:  # pragma: no cover - malformed SQL surfaces at execution
            detail = "vectorized exact pipeline"
        return PlanNode(
            kind="exact",
            route="exact",
            detail=detail,
            predicted_seconds=seconds,
        )

    def _model_node(
        self,
        sketch: RouteSketch,
        statement: SelectStatement,
        stats_by_table: dict[str, TableStats],
    ) -> PlanNode:
        table_stats = (
            stats_by_table.get(statement.table.name) if statement.table is not None else None
        )
        predicted_error = self._predict_relative_error(sketch, table_stats)
        fill_scan_rows = (
            float(table_stats.row_count)
            if (table_stats is not None and sketch.uncovered_rows > 0)
            else None
        )
        seconds = self.cost_model.model_route_seconds(
            sketch.est_points, sketch.uncovered_rows, fill_scan_rows=fill_scan_rows
        )
        node = PlanNode(
            kind="model-route",
            route=sketch.route,
            detail=sketch.detail,
            predicted_seconds=seconds,
            predicted_relative_error=predicted_error,
            model_ids=list(sketch.model_ids),
        )
        if sketch.route == "grouped-hybrid":
            # The hybrid subplan made explicit: model-served groups and the
            # exact fill-in are separate children with their own costs.
            node.children = [
                PlanNode(
                    kind="model-route",
                    route="grouped-model",
                    detail=f"{sketch.n_model_groups} group(s) from model(s)",
                    predicted_seconds=self.cost_model.model_route_seconds(sketch.est_points),
                    predicted_relative_error=predicted_error,
                    model_ids=list(sketch.model_ids),
                ),
                PlanNode(
                    kind="exact",
                    route="exact-fill-in",
                    detail=(
                        f"{sketch.n_exact_groups} uncovered group(s), "
                        f"≈{sketch.uncovered_rows:.0f} row(s) computed exactly"
                    ),
                    predicted_seconds=self.cost_model.exact_fill_seconds(
                        sketch.uncovered_rows, fill_scan_rows=fill_scan_rows
                    ),
                ),
            ]
        return node

    def _predict_relative_error(
        self, sketch: RouteSketch, table_stats: TableStats | None
    ) -> float:
        """Predicted |relative error| of the sketched route.

        Base: the serving model's residual error relative to the output
        scale (recorded at capture, else derived from catalog stats), then
        scaled by the worst aggregate in the SELECT list — counts come from
        near-live cardinalities, extremes pay the extreme-value premium.
        """
        base = sketch.relative_rse
        if base is None:
            scale = None
            if table_stats is not None and sketch.output_column:
                column_stats = table_stats.columns.get(sketch.output_column)
                if column_stats is not None and column_stats.mean is not None:
                    scale = abs(float(column_stats.mean))
            if scale and scale > 0 and sketch.residual_standard_error >= 0:
                base = sketch.residual_standard_error / scale
            elif sketch.residual_standard_error == 0.0:
                base = 0.0
            else:
                base = math.inf
        if sketch.aggregate_functions:
            factor = max(
                _AGGREGATE_ERROR_FACTOR.get(function, 1.0)
                for function in sketch.aggregate_functions
            )
        else:
            factor = 1.0
        return base * factor

    def _choose_blocked(
        self,
        contract: AccuracyContract,
        model_node: PlanNode | None,
        exact_node: PlanNode,
        wording: _BlockedWording,
    ) -> tuple[PlanNode, str]:
        """Route choice when the raw rows cannot honestly be scanned.

        Raw rows moved to the model-only archive tier, or a needed component
        is failed/quarantined: exact execution is off the table — it would
        silently compute over a partial table.  A pure model route is
        admitted when the contract tolerates its predicted error (the
        degradation is disclosed on the plan); otherwise the plan is
        deliberately unexecutable and carries the honest reason — execution
        raises :class:`~repro.errors.ApproximationError` (archived) or the
        typed :class:`~repro.errors.DegradedServiceError`.
        """
        if contract.mode == "exact":
            return exact_node, (
                f"contract pins exact execution, but {wording.pinned_exact} "
                "— execution will raise"
            )
        if model_node is None or not model_node.is_available:
            detail = (
                model_node.unavailable_reason
                if model_node is not None
                else "no model route applies"
            )
            return exact_node, f"{detail}; {wording.unusable} — execution will raise"
        budget = contract.error_budget
        if contract.mode == "auto" and model_node.predicted_relative_error > budget:
            return exact_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} exceeds "
                f"budget {budget:.2%} and {wording.over_budget} — execution will raise"
            )
        return model_node, wording.served

    def _choose(
        self,
        contract: AccuracyContract,
        model_node: PlanNode | None,
        exact_node: PlanNode,
    ) -> tuple[PlanNode, str]:
        if contract.mode == "exact":
            return exact_node, "contract pins exact execution"
        if contract.mode == "approx":
            if model_node is not None:
                return model_node, "contract pins model serving"
            if contract.allow_exact_fallback:
                return exact_node, "no model route applies; exact fallback"
            return exact_node, "no model route applies (execution will raise)"
        # auto: admit the model route by error budget, then route by
        # deadline and predicted cost.
        if model_node is None:
            return exact_node, "no model route applies"
        budget = contract.error_budget
        if model_node.predicted_relative_error > budget:
            return exact_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} exceeds "
                f"budget {budget:.2%}"
            )
        deadline = contract.deadline_seconds
        if exact_node.predicted_seconds > deadline >= model_node.predicted_seconds:
            return model_node, (
                f"exact predicted {exact_node.predicted_seconds * 1000:.2f}ms blows the "
                f"{contract.deadline_ms:g}ms deadline; model route fits"
            )
        if contract.max_relative_error is not None:
            # An explicit error budget is a declared willingness to accept
            # approximate answers: once the predicted error fits the budget
            # the model route wins regardless of the (usually marginal on
            # small tables) cost difference.
            return model_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} within "
                f"budget {budget:.2%}"
            )
        if model_node.predicted_seconds <= exact_node.predicted_seconds:
            return model_node, (
                f"no error budget given; model route "
                f"{exact_node.predicted_seconds / max(model_node.predicted_seconds, 1e-12):.1f}x "
                f"cheaper than exact"
            )
        return exact_node, "exact execution predicted cheaper than the model route"


def _references_telemetry(statement: Any) -> bool:
    """Whether the statement reads or writes a reserved ``_telemetry_*`` table."""
    if isinstance(statement, SelectStatement):
        names = statement.table_names()
    else:
        names = [getattr(statement, "name", None)]
    return any(is_telemetry_table(name) for name in names)
