"""The grouped answer route: GROUP BY aggregates served group-by-group.

The paper's Section 2 workload is built from queries like::

    SELECT source, AVG(intensity) FROM measurements GROUP BY source

Instead of materialising a virtual table and running the full plan over it,
this route evaluates the captured *per-group* models directly — one model
evaluation per group over the (range-restricted) input domain — and attaches
a per-group :class:`~repro.core.approx.error_bounds.ErrorEstimate` to every
aggregate.  Groups no servable model covers (failed fits, groups that
appeared after the last capture) are computed exactly over just their rows
and merged in, per the routing plan of
:mod:`repro.core.approx.routes.router`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.approx.protocol import ApproximateAnswer, Probe, Route, RouteSketch
from repro.core.approx.routes.aggcalc import (
    ItemSpec,
    aggregate_values_errors,
    analyse_select_items,
    build_result_table,
    current_group_rows,
    evaluate_over_domains,
    growth_scale,
    restricted_domains,
    staleness_rows,
)
from repro.db.constraints import (
    WhereConstraints,
    bare_name as _bare,
    extract_constraints,
)
from repro.core.approx.routes.router import GroupRoutingPlan, plan_group_routing
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.column import Column
from repro.db.expressions import BinaryOp, ColumnRef, Expression, InList, Literal
from repro.db.sql.ast import SelectStatement
from repro.db.sql.planner import plan_select
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = [
    "ROUTE",
    "GroupedRoutePlan",
    "GroupedStatementAnalysis",
    "analyse_grouped_statement",
]


@dataclass
class GroupedRoutePlan:
    """The planned (not yet evaluated) grouped route for one statement.

    This is what the route's gate returns — the *plan phase*, split out so
    the unified query planner can inspect the model/exact group split, and
    predict cost and error for it, without evaluating a single model.  The
    planner's sketch keeps it and hands it back at execution
    (``answer(grouped_route_plan=)``), so a query is route-planned once.
    """

    analysis: GroupedStatementAnalysis
    #: Candidate models that can honor the statement's predicates.
    candidates: list[CapturedModel]
    #: Per-group model-vs-exact assignments (the PR-2 router's output).
    routing: GroupRoutingPlan
    output_null_fraction: float

    @property
    def n_model_groups(self) -> int:
        return len(self.routing.model_groups)

    @property
    def n_exact_groups(self) -> int:
        return len(self.routing.exact_groups)

    @property
    def is_hybrid(self) -> bool:
        return self.routing.is_hybrid

    @property
    def used_model_ids(self) -> list[int]:
        return self.routing.used_model_ids


def _gate(engine: ApproximateQueryEngine, probe: Probe) -> GroupedRoutePlan | None:
    """Shape gate, candidate lookup (harvesting on demand) and per-group
    routing — skipped when the planner's sketch already handed its plan over."""
    if probe.grouped_plan is not None:
        return probe.grouped_plan
    analysis = analyse_grouped_statement(probe.statement)
    if analysis is None:
        return None
    candidates = _candidates(engine, probe, analysis)
    if not candidates:
        return None
    return _plan_route(engine.store, probe.stats, analysis, candidates)


def _candidates(
    engine: ApproximateQueryEngine, probe: Probe, analysis: GroupedStatementAnalysis
) -> list[CapturedModel]:
    """Grouped candidate models, harvesting on demand when allowed."""
    table_name, database = probe.table_name, engine.database
    lookup = (table_name, analysis.output_column, analysis.group_columns)
    candidates = engine.store.grouped_candidates(*lookup)
    if not candidates and probe.allow_harvest:
        harvested = engine.grouped_model_provider(*lookup)
        if harvested is not None:
            # The on-demand grouped harvest reads the raw data once; like
            # building a legality filter, it is charged as a one-off scan.
            table = database.table(table_name)
            database.io_model.charge_scan(
                table, [c for c in harvested.coverage.columns() if c in table.schema]
            )
            candidates = engine.store.grouped_candidates(*lookup)
    return candidates


def _plan_route(
    store: ModelStore,
    stats: TableStats,
    analysis: GroupedStatementAnalysis,
    candidates: list[CapturedModel],
) -> GroupedRoutePlan | None:
    """Per-group routing over ``candidates``, no evaluation.

    Returns None when no group can be served from a model, leaving the
    statement to the enumeration/exact paths.
    """
    group_columns = analysis.group_columns
    output_column = analysis.output_column
    constraints = analysis.constraints

    # NULL group keys form their own group in exact execution; the fitted
    # parameters cannot represent it, so decline when present.  (NULLs in
    # the aggregated column are handled quantitatively via the null
    # fraction below.)
    for column in group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            return None
    output_stats = stats.columns.get(output_column)
    output_null_fraction = output_stats.null_fraction if output_stats is not None else 0.0

    # A model can only honor WHERE constraints over its own input (or group)
    # columns; serving a query whose predicate mentions anything else would
    # silently drop that predicate.  Restrict to candidates that cover every
    # constrained column — none left means exact execution.
    constrained_inputs = set(constraints.by_column) - set(group_columns)
    candidates = [m for m in candidates if constrained_inputs <= set(m.input_columns)]
    if not candidates:
        return None

    # The requested group set must be *complete*: either the catalog can
    # enumerate every current key (single enumerable group column), or some
    # fresh whole-table model's fit records do.  Otherwise groups that
    # appeared after the last capture would silently vanish from the result.
    single = group_columns[0] if len(group_columns) == 1 else None
    discoverable = (
        single is not None
        and stats.columns.get(single) is not None
        and stats.columns[single].domain is not None
    )
    if not discoverable and not any(
        model.status == "active"
        and model.coverage.covers_whole_table
        and model.fitted_row_count >= stats.row_count
        for model in candidates
    ):
        return None

    requested = _requested_group_keys(candidates, stats, group_columns, constraints)
    routing = plan_group_routing(
        store, stats.table_name, output_column, group_columns, requested, models=candidates
    )
    if not routing.model_groups:
        return None
    return GroupedRoutePlan(
        analysis=analysis,
        candidates=candidates,
        routing=routing,
        output_null_fraction=output_null_fraction,
    )


def _sketch(
    engine: ApproximateQueryEngine, probe: Probe, grouped: GroupedRoutePlan
) -> RouteSketch:
    routing, stats = grouped.routing, probe.stats
    uncovered_rows = 0.0
    if routing.exact_groups:
        live = current_group_rows(stats, grouped.analysis.group_columns)
        if live is not None:
            uncovered_rows = float(sum(live.get(a.key[0], 0) for a in routing.exact_groups))
        else:
            # No live per-group counts: assume uniform group sizes.
            uncovered_rows = stats.row_count * (
                len(routing.exact_groups) / max(len(routing.assignments), 1)
            )
    relatives = [
        m.quality.relative_rse for m in grouped.candidates if m.quality.relative_rse is not None
    ]
    return RouteSketch(
        route="grouped-hybrid" if routing.exact_groups else "grouped-model",
        model_ids=grouped.used_model_ids,
        detail=routing.describe(),
        residual_standard_error=max(
            (m.quality.residual_standard_error for m in grouped.candidates), default=0.0
        ),
        relative_rse=max(relatives) if relatives else None,
        est_points=grouped.n_model_groups,
        n_model_groups=grouped.n_model_groups,
        n_exact_groups=grouped.n_exact_groups,
        uncovered_rows=uncovered_rows,
        aggregate_functions=tuple(
            spec.function for spec in grouped.analysis.specs if spec.kind == "aggregate"
        ),
        output_column=grouped.analysis.output_column,
        grouped_plan=grouped,
    )


def _answer(
    engine: ApproximateQueryEngine, probe: Probe, route_plan: GroupedRoutePlan
) -> ApproximateAnswer | None:
    """GROUP BY aggregates evaluated per group, with exact fill-in.

    Returns None when some serving model cannot restrict its input domain
    to the statement's predicates after all (the walk moves on).
    """
    tracer = engine.tracer
    with tracer.span("route:grouped") as span:
        if tracer.active:
            span.annotate(
                model_groups=route_plan.n_model_groups,
                exact_groups=route_plan.n_exact_groups,
                models=list(route_plan.used_model_ids),
            )
        return _evaluate(engine, probe, route_plan)


def _evaluate(
    engine: ApproximateQueryEngine, probe: Probe, route_plan: GroupedRoutePlan
) -> ApproximateAnswer | None:
    statement, stats = probe.statement, probe.stats
    analysis = route_plan.analysis
    group_columns = analysis.group_columns
    specs = analysis.specs
    order_keys = analysis.order_keys
    plan = route_plan.routing
    aggregates = [spec for spec in specs if spec.kind == "aggregate"]

    # Every model-served group has a slot; each serving model fills the slots
    # of its batch from one evaluation of its whole parameter matrix.
    keys = plan.model_keys
    values = {
        spec.name: np.empty(len(keys), dtype=np.int64 if spec.function == "count" else np.float64)
        for spec in aggregates
    }
    errors = {spec.name: np.empty(len(keys)) for spec in aggregates}
    group_routes = dict(plan.reasons)
    emitted = np.ones(len(keys), dtype=bool)
    virtual_rows = 0

    # Live per-group cardinalities from the catalog supersede the fit-time
    # counts entirely (no growth heuristics, no staleness allowance needed).
    live_rows = current_group_rows(stats, group_columns)
    for batch in plan.batches:
        model, slots = batch.model, batch.slots
        restricted = restricted_domains(model, stats, analysis.constraints)
        if restricted is None:
            return None
        stacked = model.fit.stacked()  # type: ignore[union-attr]
        observations = stacked.n_obs[batch.record_positions]
        scale: np.ndarray | float = growth_scale(model, stats)
        stale = staleness_rows(model, stats)
        stale_rows = np.full(len(slots), np.nan if stale is None else stale)
        if live_rows is not None:
            live = np.array([live_rows.get(keys[slot][0], np.nan) for slot in slots])
            known = ~np.isnan(live)
            observations = np.where(known, live, observations)
            scale = np.where(known, 1.0, scale)
            stale_rows[known] = 0.0
        evaluation = evaluate_over_domains(
            model.fit.family,
            stacked.params[batch.record_positions],
            stacked.rse[batch.record_positions],
            model,
            restricted,
            fitted_observations=observations,
            scale=scale,
            stale_rows=stale_rows,
            output_null_fraction=route_plan.output_null_fraction,
        )
        if evaluation.n_points == 0:
            # The restriction keeps no input values: the groups have no
            # qualifying rows and (like exact execution) emit no row.
            emitted[slots] = False
            for slot in slots:
                group_routes[keys[slot]] = f"model#{model.model_id} (empty restriction)"
            continue
        virtual_rows += evaluation.n_points * len(slots)
        for spec in aggregates:
            values[spec.name][slots], errors[spec.name][slots] = aggregate_values_errors(
                spec.function, evaluation, count_star=spec.argument is None
            )

    slot_of, key_columns = plan.slot_of, plan.key_columns
    if not emitted.all():
        kept = np.flatnonzero(emitted)
        slot_of = {keys[slot]: position for position, slot in enumerate(kept)}
        key_columns = [column.take(kept) for column in key_columns]
        values = {name: vector[kept] for name, vector in values.items()}
        errors = {name: vector[kept] for name, vector in errors.items()}
    data: dict[str, Column] = {}
    for spec in specs:
        if spec.kind == "group":
            data[spec.name] = key_columns[group_columns.index(spec.group_column)]
        else:
            dtype = DataType.INT64 if spec.function == "count" else DataType.FLOAT64
            data[spec.name] = Column(dtype, values[spec.name])

    exact_keys = [a.key for a in plan.exact_groups]
    if exact_keys:
        membership = _membership_expression(group_columns, exact_keys)
        exact_table = _execute_exact_groups(engine, statement, membership)
        for position, spec in enumerate(specs):
            data[spec.name] = _stack_columns(
                data[spec.name], exact_table.column(exact_table.schema.names[position])
            )
        spec_position = {
            spec.group_column: i for i, spec in enumerate(specs) if spec.kind == "group"
        }
        # Provenance is only trackable when every group column appears in
        # the SELECT list (it usually does; GROUP BY keys outside the list
        # still merge correctly, they just go unattributed).
        if all(column in spec_position for column in group_columns):
            key_lists = [
                exact_table.column(exact_table.schema.names[spec_position[column]]).to_pylist()
                for column in group_columns
            ]
            for key in zip(*key_lists):
                group_routes[key] = "exact"

    table = build_result_table(specs, data)
    if order_keys:
        table = table.sort_by(order_keys)
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)
    elif statement.offset:
        table = table.slice(statement.offset, table.num_rows)

    return ApproximateAnswer(
        sql=probe.sql,
        table=table,
        route="grouped-hybrid" if exact_keys else "grouped-model",
        is_exact=False,
        used_model_ids=plan.used_model_ids,
        reason=f"per-group model evaluation: {plan.describe()}",
        # The worst per-group standard error (conservative).
        column_errors={
            name: float(np.max(vector)) if len(vector) else 0.0 for name, vector in errors.items()
        },
        virtual_rows_generated=virtual_rows,
        group_errors=_PerGroup(slot_of, errors),
        group_values=_PerGroup(slot_of, values),
        group_routes=group_routes,
    )


ROUTE = Route(_gate, _sketch, _answer, needs_model=False)


def _execute_exact_groups(
    engine: ApproximateQueryEngine, statement: SelectStatement, membership: Expression
) -> Table:
    """Run ``statement`` exactly, restricted to the given groups.

    This is the exact half of the hybrid grouped route: only the rows of
    the uncovered groups are scanned (and charged as real IO).
    """
    where = (
        membership if statement.where is None else BinaryOp("and", statement.where, membership)
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
    database = engine.database
    planned = plan_select(sub_statement, database.catalog, io_model=database.io_model)
    with engine.tracer.span("exact-fill-in"):
        return planned.root.execute(engine.tracer)


class _PerGroup(Mapping):
    """``group key -> {aggregate column: value}`` over per-column vectors.

    The route computes one vector per aggregate; a per-group dict is only
    materialised for the key that is looked up.
    """

    __slots__ = ("_slot_of", "_vectors")

    def __init__(self, slot_of: dict[tuple[Any, ...], int], vectors: dict[str, np.ndarray]) -> None:
        self._slot_of = slot_of
        self._vectors = vectors

    def __getitem__(self, key: tuple[Any, ...]) -> dict[str, Any]:
        slot = self._slot_of[key]
        return {name: vector[slot].item() for name, vector in self._vectors.items()}

    def __iter__(self):
        return iter(self._slot_of)

    def __len__(self) -> int:
        return len(self._slot_of)


def _stack_columns(top: Column, bottom: Column) -> Column:
    """``top`` followed by ``bottom``; values re-coerced when the types differ."""
    if top.dtype is bottom.dtype:
        return top.concat(bottom)
    return Column.from_values(top.dtype, top.to_pylist() + bottom.to_pylist())


# ---------------------------------------------------------------------------
# Statement analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupedStatementAnalysis:
    """Everything the grouped route needs to know about a statement's shape."""

    group_columns: tuple[str, ...]
    specs: list[ItemSpec]
    output_column: str
    order_keys: list[tuple[str, bool]]
    constraints: WhereConstraints


def analyse_grouped_statement(statement: SelectStatement) -> GroupedStatementAnalysis | None:
    """The single shape gate for the grouped route.

    The route's gate runs this once per query — before the model lookup and
    the on-demand grouped harvest — and the result travels inside the
    :class:`GroupedRoutePlan`, so what triggers a harvest and what the route
    serves cannot drift apart.
    """
    group_columns = _group_by_columns(statement)
    if group_columns is None:
        return None
    if statement.having is not None or statement.distinct:
        return None
    analysed = analyse_select_items(statement, group_columns)
    if analysed is None:
        return None
    specs, output_column = analysed
    order_keys = _order_keys(statement, [spec.name for spec in specs])
    if statement.order_by and order_keys is None:
        return None
    constraints = extract_constraints(statement.where)
    if not constraints.fully_analysed:
        return None
    if constraints.constrains(output_column):
        # Predicates over the predicted values need per-row filtering; the
        # virtual-table route handles those.
        return None
    return GroupedStatementAnalysis(
        group_columns=group_columns,
        specs=specs,
        output_column=output_column,
        order_keys=order_keys or [],
        constraints=constraints,
    )


def _group_by_columns(statement: SelectStatement) -> tuple[str, ...] | None:
    """The GROUP BY keys as bare column names (None if any key is complex)."""
    if not statement.group_by:
        return None
    columns: list[str] = []
    for expression in statement.group_by:
        if not isinstance(expression, ColumnRef):
            return None
        bare = _bare(expression.name)
        if bare not in columns:
            columns.append(bare)
    return tuple(columns)


def _order_keys(
    statement: SelectStatement, output_names: list[str]
) -> list[tuple[str, bool]] | None:
    """ORDER BY resolved against the route's output columns (None = decline)."""
    keys: list[tuple[str, bool]] = []
    for order in statement.order_by:
        expression = order.expression
        if isinstance(expression, Literal) and isinstance(expression.value, int):
            ordinal = expression.value
            if not 1 <= ordinal <= len(output_names):
                return None
            keys.append((output_names[ordinal - 1], order.ascending))
            continue
        if isinstance(expression, ColumnRef):
            name = expression.name
            if name in output_names:
                keys.append((name, order.ascending))
                continue
            bare = _bare(name)
            if bare in output_names:
                keys.append((bare, order.ascending))
                continue
        return None
    return keys


def _requested_group_keys(
    candidates: list[CapturedModel],
    stats: TableStats,
    group_columns: tuple[str, ...],
    constraints: WhereConstraints,
) -> list[tuple[Any, ...]]:
    """Every group key the query could produce, filtered by the WHERE clause.

    Keys come from two places: the candidate models' fit records (fitted
    *and* failed — failed groups must be computed exactly, not dropped) and,
    for a single enumerable group column, the catalog domain — which also
    surfaces groups that appeared after the last capture.
    """
    keys: dict[tuple[Any, ...], None] = {}
    for model in candidates:
        for record in model.fit.records:  # type: ignore[union-attr]
            aligned = tuple(
                record.key[model.group_columns.index(column)] for column in group_columns
            )
            keys.setdefault(aligned, None)
    if len(group_columns) == 1:
        column_stats = stats.columns.get(group_columns[0])
        if column_stats is not None and column_stats.domain is not None:
            for value in column_stats.domain:
                keys.setdefault((value,), None)

    admitted = [
        key
        for key in keys
        if all(constraints.admits(column, key[i]) for i, column in enumerate(group_columns))
    ]
    try:
        return sorted(admitted)
    except TypeError:
        return sorted(admitted, key=repr)


def _membership_expression(
    group_columns: tuple[str, ...], keys: list[tuple[Any, ...]]
) -> Expression:
    """A predicate selecting exactly the given group keys."""
    if len(group_columns) == 1:
        return InList(ColumnRef(group_columns[0]), [Literal(key[0]) for key in keys])
    disjunction: Expression | None = None
    for key in keys:
        conjunct: Expression | None = None
        for column, value in zip(group_columns, key):
            term = BinaryOp("=", ColumnRef(column), Literal(value))
            conjunct = term if conjunct is None else BinaryOp("and", conjunct, term)
        disjunction = conjunct if disjunction is None else BinaryOp("or", disjunction, conjunct)
    assert disjunction is not None
    return disjunction

