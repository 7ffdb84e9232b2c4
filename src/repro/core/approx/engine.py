"""The approximate query engine: answering SQL from captured models.

This is where the harvested models pay off (Figure 2, steps 4-5).  Given a
SQL query, the engine decides whether some usable captured model can stand
in for the stored data, regenerates the tuples the query needs from the
model ("zero-IO"), runs the rest of the query over the regenerated table,
and attaches error estimates.  Queries the models cannot cover fall back to
exact execution — with the reason recorded, because the fallback conditions
(no model, non-enumerable inputs, unsupported SQL shape) are themselves
findings the paper discusses in §4.2.

Answer routes
-------------
``point``
    Every model input and group key is pinned by equality predicates: a
    single model evaluation (the paper's first example query).
``grouped-model`` / ``grouped-hybrid``
    ``GROUP BY`` aggregates answered by evaluating the captured per-group
    models group-by-group, with per-group error estimates.  The per-group
    router serves healthy groups from models and — in the hybrid variant —
    computes only the uncovered groups exactly and merges the two.
``range-aggregate``
    Aggregates restricted by range predicates (``BETWEEN``, ``<``, ``>``,
    ``IN``): the model is evaluated/integrated over the restricted input
    domain instead of falling back.
``analytic-aggregate``
    A global aggregate over the modelled column of an ungrouped linear-ish
    model: closed-form answer from the parameters (§4.2).
``virtual-table``
    The general route: enumerate the parameter space, generate the virtual
    table, run the query plan over it (the paper's second example query).
``exact-fallback``
    No usable model covers the query; execute against the raw data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.core.approx.aggregates import analytic_aggregate, supports_analytic
from repro.core.approx.enumeration import (
    DEFAULT_MAX_ROWS,
    build_enumeration_plan,
    generate_virtual_table,
)
from repro.core.approx.error_bounds import ErrorEstimate, aggregate_error
from repro.core.approx.legal import LegalCombinationFilter
from repro.db.constraints import (
    bare_name as _bare_name,
    extract_constraints,
)
from repro.core.approx.routes.grouped import (
    GroupedRoutePlan,
    analyse_grouped_statement,
    answer_grouped,
    plan_grouped_route,
)
from repro.core.approx.routes.range_agg import analyse_range_statement, answer_range
from repro.core.approx.routes.router import RoutingPolicy
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.catalog import Catalog
from repro.db.database import Database
from repro.db.expressions import BinaryOp, ColumnRef, Expression, FunctionCall
from repro.db.operators.aggregate import SUPPORTED_AGGREGATES
from repro.db.sql.ast import SelectStatement, Star, Statement
from repro.db.sql.planner import plan_select
from repro.db.table import Table
from repro.errors import (
    ApproximationError,
    EnumerationError,
    ExecutionError,
    ModelNotFoundError,
    SQLError,
)
from repro.obs.trace import Tracer

__all__ = ["ApproximateAnswer", "ApproximateQueryEngine", "RouteSketch"]


@dataclass
class RouteSketch:
    """A static prediction of the model route that would serve a statement.

    Produced by :meth:`ApproximateQueryEngine.sketch_route` *without
    executing anything*: the unified planner turns a sketch into a plan node
    with predicted cost and error, then decides model vs. exact.  The fields
    carry exactly what the cost/error models need.
    """

    route: str
    model_ids: list[int]
    detail: str
    #: Residual standard error of the serving model (worst across models).
    residual_standard_error: float = 0.0
    #: RSE relative to the output scale, when the capture recorded it.
    relative_rse: float | None = None
    #: Model evaluations / virtual rows the route would generate.
    est_points: int = 0
    #: Grouped routes: how many groups each side serves.
    n_model_groups: int = 0
    n_exact_groups: int = 0
    #: Estimated raw rows the exact side of a hybrid plan must scan.
    uncovered_rows: float = 0.0
    #: Aggregate functions the statement computes (error prediction input).
    aggregate_functions: tuple[str, ...] = ()
    #: The modelled output column (error prediction falls back to its scale).
    output_column: str = ""
    #: The grouped route plan, kept so execution can reuse it.
    grouped_plan: GroupedRoutePlan | None = None


@dataclass
class ApproximateAnswer:
    """The result of asking the engine to answer a query approximately."""

    sql: str
    table: Table
    route: str
    is_exact: bool
    used_model_ids: list[int] = field(default_factory=list)
    reason: str = ""
    #: result-column name -> standard error estimate attached to that column
    column_errors: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    io: dict[str, float] = field(default_factory=dict)
    virtual_rows_generated: int = 0
    #: group key -> result column -> standard error (grouped routes only)
    group_errors: Mapping[tuple, dict[str, float]] = field(default_factory=dict)
    #: group key -> result column -> value (grouped routes only)
    group_values: Mapping[tuple, dict[str, Any]] = field(default_factory=dict)
    #: group key -> serving provenance ("model#<id>" / "exact"; grouped routes)
    group_routes: dict[tuple, str] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return self.table.to_rows()

    def scalar(self) -> Any:
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ApproximationError(
                f"scalar() requires a 1x1 result, got {self.table.num_rows}x{self.table.num_columns}"
            )
        return self.table.row(0)[0]

    def error_estimate(self, column: str) -> ErrorEstimate | None:
        if column not in self.column_errors:
            return None
        values = [v for v in self.table.column(column).to_pylist() if v is not None]
        value = float(values[0]) if len(values) == 1 else float("nan")
        return ErrorEstimate(value=value, standard_error=self.column_errors[column])

    def group_error_estimate(self, group_key: tuple | Any, column: str) -> ErrorEstimate | None:
        """The per-group error band a grouped route attached to one aggregate."""
        key = group_key if isinstance(group_key, tuple) else (group_key,)
        errors = self.group_errors.get(key)
        if errors is None or column not in errors:
            return None
        value = self.group_values.get(key, {}).get(column)
        return ErrorEstimate(
            value=float(value) if value is not None else float("nan"),
            standard_error=errors[column],
        )


class ApproximateQueryEngine:
    """Routes SQL queries to captured models when possible."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        max_virtual_rows: int = DEFAULT_MAX_ROWS,
        use_legal_filter: bool = False,
        routing_policy: RoutingPolicy | None = None,
        *,
        tracer: Tracer,
        grouped_model_provider: Callable[..., CapturedModel | None],
    ) -> None:
        self.database = database
        self.store = store
        self.max_virtual_rows = max_virtual_rows
        self.use_legal_filter = use_legal_filter
        #: Per-group model-vs-exact routing thresholds for the grouped route.
        self.routing_policy = routing_policy or RoutingPolicy()
        #: Per-route spans go here.
        self.tracer = tracer
        #: ``(table, output_column, group_columns) -> CapturedModel | None``:
        #: harvests a grouped model on demand when a GROUP BY query finds only
        #: ungrouped captures (same formula, per group), or declines.
        self.grouped_model_provider = grouped_model_provider
        #: (table_name, key columns) -> legality filter, built lazily on demand
        self._legal_filters: dict[tuple[str, tuple[str, ...]], LegalCombinationFilter] = {}

    # -- public API -------------------------------------------------------------

    def answer(
        self,
        sql: str,
        allow_fallback: bool = True,
        statement: Statement | None = None,
        grouped_route_plan: GroupedRoutePlan | None = None,
    ) -> ApproximateAnswer:
        """Answer ``sql`` from captured models, falling back to exact execution.

        ``statement`` lets the query pipeline hand over the AST it already
        parsed; without it, the SQL text is parsed through the executor's
        shared LRU cache — never re-lexed per call.
        ``grouped_route_plan`` likewise hands over the per-group routing the
        planner's sketch already computed, so grouped queries are not
        route-planned twice per execution (the caller guarantees it was
        built against the current catalog/store state).
        """
        started = perf_counter()
        # Per-execution IO scope: interleaved queries on other threads never
        # leak pages into this answer's attribution.
        with self.database.io_model.scope() as io_scope:
            try:
                answer = self._serve(self._probe(sql, statement, grouped_route_plan))
                self._note_staleness(answer)
            except (ApproximationError, EnumerationError, ModelNotFoundError) as exc:
                if not allow_fallback:
                    raise
                answer = self._exact(sql, reason=str(exc))
        answer.elapsed_seconds = perf_counter() - started
        answer.io = io_scope.snapshot()
        return answer

    def sketch_route(
        self, sql: str, statement: Statement | None = None, for_execution: bool = False
    ) -> RouteSketch | None:
        """Predict — without executing — which model route would serve ``sql``.

        Walks the same route table as :meth:`answer`, stopping at the first
        shape gate that admits the statement, so the prediction and the
        execution cannot drift apart.  Returns None when no model route
        applies (the statement can only run exactly).  ``for_execution=True``
        permits side effects the real answer path would incur anyway (the
        on-demand grouped harvest); a pure EXPLAIN must leave the store
        untouched and passes False.
        """
        try:
            probe = self._probe(sql, statement, allow_harvest=for_execution)
            for route, match in self._admitting_routes(probe):
                return route.sketch(self, probe, match)
        except (ApproximationError, EnumerationError, ModelNotFoundError):
            pass
        return None

    # -- the route walk -----------------------------------------------------------

    def _probe(
        self,
        sql: str,
        statement: Statement | None,
        grouped_plan: GroupedRoutePlan | None = None,
        allow_harvest: bool = True,
    ) -> "_Probe":
        """Check what every model route requires of a statement (raising the
        typed reason when it cannot be served) and open its routing state."""
        if statement is None:
            statement = self.database.parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ApproximationError("only SELECT statements can be answered approximately")
        if statement.table is None or statement.joins:
            raise ApproximationError("approximate answering supports single-table queries only")
        table_name = statement.table.name
        if not self.database.has_table(table_name):
            raise ApproximationError(f"unknown table {table_name!r}")
        return _Probe(
            sql, statement, table_name, _referenced_columns(statement), grouped_plan, allow_harvest
        )

    def _admitting_routes(self, probe: "_Probe"):
        """Yield ``(route, gate match)`` for each route whose shape gate admits
        the statement, in routing order — the one walk behind both the static
        sketch (which stops at the first) and the answer (which moves on when
        a route declines at evaluation time).  The last route, enumeration,
        admits or raises, so the walk never comes up empty."""
        for route in _ROUTES:
            if route.needs_model and probe.model is None:
                self._bind_model(probe)
            match = route.gate(self, probe)
            if match is not None:
                yield route, match

    def _serve(self, probe: "_Probe") -> ApproximateAnswer:
        for route, match in self._admitting_routes(probe):
            answer = route.answer(self, probe, match)
            if answer is not None:
                return answer
        raise ApproximationError("no model route serves the statement")  # pragma: no cover

    def _bind_model(self, probe: "_Probe") -> None:
        """Pick the serving model once the grouped route (which does its own
        lookup — the query's group keys need not be covered by the
        generically best model) has declined."""
        model = self._select_model(probe.table_name, probe.referenced)
        covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
        uncovered = probe.referenced - covered
        if uncovered:
            raise ApproximationError(
                f"query references columns {sorted(uncovered)} that model {model.model_id} does not cover"
            )
        probe.model = model
        probe.pinned = _extract_pinned_values(probe.statement.where)

    def _select_model(self, table_name: str, referenced: set[str]) -> CapturedModel:
        """Pick the captured model whose output the query needs.

        Stale models are admitted (``include_stale``) but ranked behind any
        active one: during continuous ingestion every append briefly marks
        models stale, and falling back to exact execution for that window
        would defeat the purpose of answering from models.
        """
        candidate_outputs = [
            column
            for column in referenced
            if self.store.has_model_for(table_name, column, include_stale=True)
        ]
        if not candidate_outputs:
            raise ModelNotFoundError(
                f"no captured model predicts any column referenced by the query on {table_name!r}"
            )
        # Prefer the model that covers the most of the referenced columns.
        best: CapturedModel | None = None
        best_score = -1
        for output in candidate_outputs:
            try:
                model = self.store.best_model(table_name, output, include_stale=True)
            except ModelNotFoundError:
                continue
            covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
            score = len(referenced & covered)
            if score > best_score:
                best, best_score = model, score
        if best is None:
            raise ModelNotFoundError(f"no usable captured model for table {table_name!r}")
        return best

    def _model_sketch(self, probe: "_Probe", route: str, detail: str, est_points: int) -> RouteSketch:
        model = probe.model
        return RouteSketch(
            route=route,
            model_ids=[model.model_id],
            detail=detail,
            residual_standard_error=model.quality.residual_standard_error,
            relative_rse=model.quality.relative_rse,
            est_points=est_points,
            aggregate_functions=_aggregate_functions(probe.statement),
            output_column=model.output_column,
        )

    # -- route: grouped (per-group model serving, exact fill-in) -----------------------

    def _grouped_candidates(
        self,
        statement_analysis,
        table_name: str,
        allow_harvest: bool = True,
    ) -> list[CapturedModel]:
        """Grouped candidate models, harvesting on demand when allowed."""
        group_columns = statement_analysis.group_columns
        output_column = statement_analysis.output_column
        candidates = self.store.grouped_candidates(table_name, output_column, group_columns)
        if not candidates and allow_harvest:
            harvested = self.grouped_model_provider(table_name, output_column, group_columns)
            if harvested is not None:
                # The on-demand grouped harvest reads the raw data once; like
                # building a legality filter, it is charged as a one-off scan.
                table = self.database.table(table_name)
                self.database.io_model.charge_scan(
                    table, [c for c in harvested.coverage.columns() if c in table.schema]
                )
                candidates = self.store.grouped_candidates(
                    table_name, output_column, group_columns
                )
        return candidates

    def _grouped_gate(self, probe: "_Probe") -> GroupedRoutePlan | None:
        """The grouped route's plan phase (skipped when the planner's sketch
        already handed its route plan over)."""
        if probe.grouped_plan is not None:
            return probe.grouped_plan
        analysis = analyse_grouped_statement(probe.statement)
        if analysis is None:
            return None
        candidates = self._grouped_candidates(analysis, probe.table_name, probe.allow_harvest)
        if not candidates:
            return None
        return plan_grouped_route(
            probe.statement,
            self.store,
            self.database.stats(probe.table_name),
            policy=self.routing_policy,
            models=candidates,
            analysis=analysis,
        )

    def _grouped_sketch(self, probe: "_Probe", grouped: GroupedRoutePlan) -> RouteSketch:
        from repro.core.approx.routes.aggcalc import current_group_rows

        routing = grouped.routing
        stats = self.database.stats(probe.table_name)
        uncovered_rows = 0.0
        if routing.exact_groups:
            live = current_group_rows(stats, grouped.analysis.group_columns)
            if live is not None:
                uncovered_rows = float(
                    sum(live.get(a.key[0], 0) for a in routing.exact_groups)
                )
            else:
                # No live per-group counts: assume uniform group sizes.
                uncovered_rows = stats.row_count * (
                    len(routing.exact_groups) / max(len(routing.assignments), 1)
                )
        rse = max(
            (m.quality.residual_standard_error for m in grouped.candidates), default=0.0
        )
        relatives = [
            m.quality.relative_rse
            for m in grouped.candidates
            if m.quality.relative_rse is not None
        ]
        route = "grouped-hybrid" if routing.exact_groups else "grouped-model"
        return RouteSketch(
            route=route,
            model_ids=grouped.used_model_ids,
            detail=routing.describe(),
            residual_standard_error=rse,
            relative_rse=max(relatives) if relatives else None,
            est_points=grouped.n_model_groups,
            n_model_groups=grouped.n_model_groups,
            n_exact_groups=grouped.n_exact_groups,
            uncovered_rows=uncovered_rows,
            aggregate_functions=_aggregate_functions(probe.statement),
            output_column=grouped.analysis.output_column,
            grouped_plan=grouped,
        )

    def _grouped_answer(
        self, probe: "_Probe", route_plan: GroupedRoutePlan
    ) -> ApproximateAnswer | None:
        """GROUP BY aggregates evaluated per group, with exact fill-in."""
        stats = self.database.stats(probe.table_name)
        tracer = self.tracer
        with tracer.span("route:grouped") as span:
            if tracer.active:
                span.annotate(
                    model_groups=route_plan.n_model_groups,
                    exact_groups=route_plan.n_exact_groups,
                    models=list(route_plan.used_model_ids),
                )
            result = answer_grouped(
                probe.statement,
                self.store,
                stats,
                self._execute_exact_groups,
                policy=self.routing_policy,
                route_plan=route_plan,
            )
        if result is None:
            return None
        return ApproximateAnswer(
            sql=probe.sql,
            table=result.table,
            route=result.route,
            is_exact=False,
            used_model_ids=result.used_model_ids,
            reason=result.reason,
            column_errors=result.column_errors,
            virtual_rows_generated=result.virtual_rows_generated,
            group_errors=result.group_errors,
            group_values=result.group_values,
            group_routes=result.group_routes,
        )

    def _execute_exact_groups(
        self, statement: SelectStatement, membership: Expression
    ) -> Table:
        """Run ``statement`` exactly, restricted to the given groups.

        This is the exact half of the hybrid grouped route: only the rows of
        the uncovered groups are scanned (and charged as real IO).
        """
        where = (
            membership
            if statement.where is None
            else BinaryOp("and", statement.where, membership)
        )
        sub_statement = SelectStatement(
            items=list(statement.items),
            table=statement.table,
            joins=[],
            where=where,
            group_by=list(statement.group_by),
            having=None,
            order_by=[],
            limit=None,
            offset=0,
            distinct=False,
        )
        planned = plan_select(sub_statement, self.database.catalog, io_model=self.database.io_model)
        with self.tracer.span("exact-fill-in"):
            return planned.root.execute(self.tracer)

    # -- route: point (every group key and input pinned to one value) -------------------

    def _point_gate(self, probe: "_Probe") -> bool | None:
        statement, model, pinned = probe.statement, probe.model, probe.pinned
        if statement.group_by or statement.order_by or statement.distinct:
            return None
        if _has_aggregates(statement):
            return None
        if len(statement.items) != 1:
            return None
        item = statement.items[0]
        if isinstance(item.expression, Star) or not isinstance(item.expression, ColumnRef):
            return None
        if _bare_name(item.expression.name) != model.output_column:
            return None
        needed = list(model.group_columns) + list(model.input_columns)
        if all(column in pinned and len(pinned[column]) == 1 for column in needed):
            return True
        return None

    def _point_answer(self, probe: "_Probe", _match: bool) -> ApproximateAnswer:
        """A single model evaluation."""
        from repro.core.approx.point import answer_point_query

        model, pinned = probe.model, probe.pinned
        group_key = {column: pinned[column][0] for column in model.group_columns}
        input_values = {column: float(pinned[column][0]) for column in model.input_columns}
        point = answer_point_query(model, input_values, group_key or None)

        output_name = probe.statement.items[0].alias or model.output_column
        table = Table.from_dict("approximate", {output_name: [point.value]})
        return ApproximateAnswer(
            sql=probe.sql,
            table=table,
            route="point",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason="all model inputs pinned by equality predicates",
            column_errors={output_name: point.error.standard_error},
            virtual_rows_generated=1,
        )

    # -- route: range-aggregate (aggregates over range-restricted input domains) ---------

    def _range_gate(self, probe: "_Probe"):
        return analyse_range_statement(probe.statement, probe.model)

    def _range_answer(self, probe: "_Probe", analysed) -> ApproximateAnswer | None:
        stats = self.database.stats(probe.table_name)
        result = answer_range(probe.statement, probe.model, stats, analysed)
        if result is None:
            return None
        return ApproximateAnswer(
            sql=probe.sql,
            table=result.table,
            route=result.route,
            is_exact=False,
            used_model_ids=result.used_model_ids,
            reason=result.reason,
            column_errors=result.column_errors,
            virtual_rows_generated=result.virtual_rows_generated,
        )

    def _domain_points(self, model: CapturedModel) -> int:
        """How many domain points a range/enumeration evaluation touches."""
        stats = self.database.stats(model.table_name)
        points = 1
        for column in model.input_columns:
            column_stats = stats.columns.get(column)
            if column_stats is not None and column_stats.domain is not None:
                points *= max(len(column_stats.domain), 1)
        if model.is_grouped:
            points *= max(len(model.fit.records), 1)  # type: ignore[union-attr]
        return min(points, self.max_virtual_rows)

    # -- route: analytic-aggregate (closed form, §4.2 analytic solutions) ----------------

    def _analytic_gate(self, probe: "_Probe") -> list[tuple[str, str]] | None:
        """The ``(alias, function)`` aggregates when the statement is a plain
        global aggregate over an ungrouped closed-form model whose inputs all
        have min/max statistics."""
        statement, model = probe.statement, probe.model
        if model.is_grouped or statement.group_by or statement.where is not None:
            return None
        if not supports_analytic(model):
            return None
        aggregates = _simple_aggregates(statement, model.output_column)
        if aggregates is None:
            return None
        stats = self.database.stats(probe.table_name)
        for column in model.input_columns:
            column_stats = stats.columns.get(column)
            if column_stats is None or column_stats.min_value is None or column_stats.max_value is None:
                return None
        return aggregates

    def _analytic_answer(
        self, probe: "_Probe", aggregates: list[tuple[str, str]]
    ) -> ApproximateAnswer:
        model = probe.model
        stats = self.database.stats(probe.table_name)
        input_ranges = {}
        input_means: dict[str, float] = {}
        for column in model.input_columns:
            column_stats = stats.columns[column]
            input_ranges[column] = (float(column_stats.min_value), float(column_stats.max_value))
            if column_stats.mean is not None:
                input_means[column] = float(column_stats.mean)

        data: dict[str, list[Any]] = {}
        errors: dict[str, float] = {}
        for alias, function in aggregates:
            result = analytic_aggregate(
                model, function, input_ranges, stats.row_count, input_means=input_means or None
            )
            data[alias] = [result.value]
            errors[alias] = result.error.standard_error
        return ApproximateAnswer(
            sql=probe.sql,
            table=Table.from_dict("approximate", data),
            route="analytic-aggregate",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason="closed-form aggregate from linear model parameters",
            column_errors=errors,
            virtual_rows_generated=0,
        )

    # -- route: virtual-table (parameter-space enumeration, the general route) -----------

    def _virtual_gate(self, probe: "_Probe"):
        """The enumeration plan (the end of the route table: admits or raises).

        Raises :class:`EnumerationError` when the parameter space cannot be
        enumerated, and :class:`ApproximationError` when the statement calls
        SUM or COUNT: the generated table holds one row per parameter
        combination, not per stored row, and their value scales with the latter.
        """
        model = probe.model
        plan = build_enumeration_plan(
            model,
            self.database.stats(model.table_name),
            pinned_values=probe.pinned,
            max_rows=self.max_virtual_rows,
        )
        scaling = sorted(_aggregate_calls(probe.statement) & {"sum", "count"})
        if scaling:
            raise ApproximationError(
                f"{'/'.join(scaling).upper()} scales with row multiplicity, which the "
                "enumerated parameter space does not have"
            )
        return plan

    def _virtual_answer(self, probe: "_Probe", plan) -> ApproximateAnswer:
        statement, model = probe.statement, probe.model
        tracer = self.tracer
        with tracer.span("enumerate") as span:
            virtual = generate_virtual_table(model, plan, table_name=model.table_name)
            if tracer.active:
                span.annotate(plan=plan.describe(), virtual_rows=virtual.num_rows)

        if self.use_legal_filter:
            legal = self._legal_filter_for(model)
            virtual = legal.filter_table(virtual)

        # Execute the original statement against the model-generated table.
        shadow_catalog = Catalog()
        shadow_catalog.register_table(virtual)
        try:
            planned = plan_select(statement, shadow_catalog, io_model=None)
            with tracer.span("evaluate"):
                result = planned.root.execute(tracer)
        except (SQLError, ExecutionError) as exc:
            # e.g. an aggregate/function outside the supported set: record it
            # as a fallback reason instead of crashing the engine mid-route.
            raise ApproximationError(
                f"query plan cannot run over the model-generated table: {exc}"
            ) from exc

        errors = self._result_errors(statement, model, virtual)
        return ApproximateAnswer(
            sql=probe.sql,
            table=result,
            route="virtual-table",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason=f"parameter space enumerated ({plan.describe()})",
            column_errors=errors,
            virtual_rows_generated=virtual.num_rows,
        )

    def _exact(self, sql: str, reason: str) -> ApproximateAnswer:
        result = self.database.sql(sql)
        return ApproximateAnswer(
            sql=sql,
            table=result.table,
            route="exact-fallback",
            is_exact=True,
            reason=reason,
        )

    # -- helpers -------------------------------------------------------------------------

    def _note_staleness(self, answer: ApproximateAnswer) -> None:
        """Flag answers served by stale models so callers can tell a fresh
        answer from one awaiting the maintenance loop."""
        stale_ids = [
            model_id
            for model_id in answer.used_model_ids
            if self.store.get(model_id).status == "stale"
        ]
        if stale_ids:
            note = f"served by stale model(s) {stale_ids} pending maintenance"
            answer.reason = f"{answer.reason}; {note}" if answer.reason else note

    def _legal_filter_for(self, model: CapturedModel) -> LegalCombinationFilter:
        key_columns = tuple(list(model.group_columns) + list(model.input_columns))
        cache_key = (model.table_name, key_columns)
        if cache_key not in self._legal_filters:
            table = self.database.table(model.table_name)
            # Building the filter reads the raw data once; it is an auxiliary
            # structure like an index, charged as a one-off scan.
            self.database.io_model.charge_scan(table, list(key_columns))
            self._legal_filters[cache_key] = LegalCombinationFilter.from_table(
                table, key_columns, round_decimals=3
            )
        return self._legal_filters[cache_key]

    def _result_errors(
        self, statement: SelectStatement, model: CapturedModel, virtual: Table
    ) -> dict[str, float]:
        """Standard-error estimates for the result columns derived from the model."""
        per_row = model.quality.residual_standard_error
        errors: dict[str, float] = {}
        n = max(virtual.num_rows, 1)
        for item in statement.items:
            if isinstance(item.expression, Star):
                errors[model.output_column] = per_row
                continue
            expression = item.expression
            name = item.alias or expression.output_name()
            aggregate = _first_aggregate(expression)
            if aggregate is not None:
                function, argument = aggregate
                if argument is None or model.output_column in argument.referenced_columns():
                    errors[name] = aggregate_error(function, per_row, n)
            elif model.output_column in expression.referenced_columns():
                errors[name] = per_row
        return errors


# ---------------------------------------------------------------------------
# The route table
# ---------------------------------------------------------------------------


@dataclass
class _Probe:
    """One statement's routing state, built once and shared by every route."""

    sql: str
    statement: SelectStatement
    table_name: str
    referenced: set[str]
    #: The grouped route plan the planner's sketch already computed, if any.
    grouped_plan: GroupedRoutePlan | None
    #: Whether the grouped gate may harvest a grouped model on demand.
    allow_harvest: bool
    #: The serving model and the WHERE-pinned values, bound once the grouped
    #: route has declined (see ``_bind_model``).
    model: CapturedModel | None = None
    pinned: dict[str, list[Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class _Route:
    """One rung of the routing order.

    ``gate(engine, probe)`` is the shape gate: a match object the other two
    reuse, or None when the statement belongs to a later route.
    ``sketch(engine, probe, match)`` predicts the route statically;
    ``answer(engine, probe, match)`` serves it, or returns None when
    evaluation finds it cannot after all (the walk moves on).
    """

    gate: Callable[..., Any]
    sketch: Callable[..., RouteSketch]
    answer: Callable[..., "ApproximateAnswer | None"]
    needs_model: bool = True


_Engine = ApproximateQueryEngine
_ROUTES: tuple[_Route, ...] = (
    _Route(_Engine._grouped_gate, _Engine._grouped_sketch, _Engine._grouped_answer, needs_model=False),
    _Route(
        _Engine._point_gate,
        lambda engine, probe, _: engine._model_sketch(
            probe, "point", "all model inputs pinned by equality predicates", 1
        ),
        _Engine._point_answer,
    ),
    _Route(
        _Engine._range_gate,
        lambda engine, probe, _: engine._model_sketch(
            probe,
            "range-aggregate",
            "model evaluated/integrated over the restricted input domain",
            engine._domain_points(probe.model),
        ),
        _Engine._range_answer,
    ),
    _Route(
        _Engine._analytic_gate,
        lambda engine, probe, _: engine._model_sketch(
            probe, "analytic-aggregate", "closed-form aggregate from model parameters", 0
        ),
        _Engine._analytic_answer,
    ),
    _Route(
        _Engine._virtual_gate,
        lambda engine, probe, plan: engine._model_sketch(
            probe, "virtual-table", f"parameter space enumerable ({plan.describe()})", plan.num_rows
        ),
        _Engine._virtual_answer,
    ),
)


# ---------------------------------------------------------------------------
# Statement analysis helpers (qualifier stripping and conjunct splitting are
# shared with the routes package — one implementation for the whole engine)
# ---------------------------------------------------------------------------


def _referenced_columns(statement: SelectStatement) -> set[str]:
    names: set[str] = set()
    for item in statement.items:
        if isinstance(item.expression, Star):
            raise ApproximationError("SELECT * cannot be answered from a model (unknown column set)")
        names |= item.expression.referenced_columns()
    if statement.where is not None:
        names |= statement.where.referenced_columns()
    for expression in statement.group_by:
        names |= expression.referenced_columns()
    if statement.having is not None:
        names |= statement.having.referenced_columns()
    for order in statement.order_by:
        names |= order.expression.referenced_columns()
    return {_bare_name(name) for name in names}


def _aggregate_functions(statement: SelectStatement) -> tuple[str, ...]:
    """The aggregate functions the SELECT list computes, in item order."""
    functions: list[str] = []
    for item in statement.items:
        if isinstance(item.expression, Star):
            continue
        found = _first_aggregate(item.expression)
        if found is not None:
            functions.append(found[0])
    return tuple(functions)


def _has_aggregates(statement: SelectStatement) -> bool:
    for item in statement.items:
        if isinstance(item.expression, Star):
            continue
        if _first_aggregate(item.expression) is not None:
            return True
    return False


def _aggregate_calls(statement: SelectStatement) -> set[str]:
    """Every aggregate function called anywhere in the SELECT list or HAVING."""
    pending = [item.expression for item in statement.items if not isinstance(item.expression, Star)]
    if statement.having is not None:
        pending.append(statement.having)
    found: set[str] = set()
    while pending:
        expression = pending.pop()
        if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
            found.add(expression.name.lower())
        pending.extend(expression.children())
    return found


def _first_aggregate(expression: Expression) -> tuple[str, Expression | None] | None:
    """Find the first aggregate call inside an expression tree."""
    if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
        argument = expression.args[0] if expression.args else None
        return expression.name.lower(), argument
    for child in expression.children():
        found = _first_aggregate(child)
        if found is not None:
            return found
    return None


def _simple_aggregates(
    statement: SelectStatement, output_column: str
) -> list[tuple[str, str]] | None:
    """If every SELECT item is ``agg(output_column)`` with a supported function,
    return the (alias, function) pairs; otherwise None."""
    pairs: list[tuple[str, str]] = []
    for item in statement.items:
        expression = item.expression
        if isinstance(expression, Star) or not isinstance(expression, FunctionCall):
            return None
        function = expression.name.lower()
        if function not in ("min", "max", "avg", "sum"):
            return None
        if len(expression.args) != 1 or not isinstance(expression.args[0], ColumnRef):
            return None
        if _bare_name(expression.args[0].name) != output_column:
            return None
        alias = item.alias or f"{function}({output_column})"
        pairs.append((alias, function))
    return pairs if pairs else None


def _extract_pinned_values(where: Expression | None) -> dict[str, list[Any]]:
    """Columns pinned to literal values by the WHERE clause's top-level
    conjuncts — derived from the routes' shared constraint analysis, so
    equality/IN decomposition has a single implementation.  Multiple pins on
    one column intersect (``g = 1 AND g IN (1, 2)`` pins to ``[1]``), which
    is always sound for enumeration: the statement's WHERE is re-applied
    over the generated table."""
    constraints = extract_constraints(where)
    return {
        column: list(constraint.values)
        for column, constraint in constraints.by_column.items()
        if constraint.is_pinned
    }


def _relative_errors(approx: Table, exact: Table) -> dict[str, float]:
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
        approx_values = np.asarray(approx_column.to_numpy()[:n], dtype=np.float64)
        exact_values = np.asarray(exact_column.to_numpy()[:n], dtype=np.float64)
        mask = np.isfinite(approx_values) & np.isfinite(exact_values)
        if not mask.any():
            continue
        denominator = np.where(np.abs(exact_values[mask]) > 1e-12, np.abs(exact_values[mask]), 1.0)
        errors[approx_name] = float(np.mean(np.abs(approx_values[mask] - exact_values[mask]) / denominator))
    return errors
