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
from typing import Any

import numpy as np

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
from repro.core.approx.routes.router import RoutingPolicy, plan_group_routing
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.column import Column
from repro.db.expressions import BinaryOp, ColumnRef, Expression, InList, Literal
from repro.db.sql.ast import SelectStatement
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType

__all__ = [
    "GroupedAnswer",
    "GroupedRoutePlan",
    "GroupedStatementAnalysis",
    "analyse_grouped_statement",
    "answer_grouped",
    "plan_grouped_route",
]


@dataclass
class GroupedAnswer:
    """A GROUP BY aggregate answered from per-group models (plus exact fill-in)."""

    table: Table
    route: str  # "grouped-model" | "grouped-hybrid"
    used_model_ids: list[int]
    reason: str
    #: aggregate column -> worst per-group standard error (conservative).
    column_errors: dict[str, float]
    #: group key -> aggregate column -> standard error (model-served groups).
    group_errors: Mapping[tuple[Any, ...], dict[str, float]]
    #: group key -> aggregate column -> value (model-served groups).
    group_values: Mapping[tuple[Any, ...], dict[str, Any]]
    #: group key -> "model#<id>" / "exact" provenance.
    group_routes: dict[tuple[Any, ...], str]
    virtual_rows_generated: int


@dataclass
class GroupedRoutePlan:
    """The planned (not yet evaluated) grouped route for one statement.

    This is the *plan phase* of the grouped route, split out so the unified
    query planner can inspect the model/exact group split — and predict cost
    and error for it — without evaluating a single model.  ``answer_grouped``
    consumes it to produce the actual answer.
    """

    analysis: GroupedStatementAnalysis
    #: Candidate models that can honor the statement's predicates.
    candidates: list[CapturedModel]
    #: Per-group model-vs-exact assignments (the PR-2 router's output).
    routing: Any  # GroupRoutingPlan
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


def plan_grouped_route(
    statement: SelectStatement,
    store: ModelStore,
    stats: TableStats,
    policy: RoutingPolicy | None = None,
    models: list[CapturedModel] | None = None,
    analysis: "GroupedStatementAnalysis | None" = None,
) -> GroupedRoutePlan | None:
    """Plan the grouped route: shape gates + per-group routing, no evaluation.

    Returns None when the statement shape is outside this route or no group
    can be served from a model, leaving the statement to the
    enumeration/exact paths.  This is the single gate implementation shared
    by route execution (:func:`answer_grouped`) and the unified planner's
    static probe — what the probe predicts and what execution serves cannot
    drift apart.
    """
    if analysis is None:
        analysis = analyse_grouped_statement(statement)
    if analysis is None:
        return None
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

    candidates = models if models is not None else store.grouped_candidates(
        stats.table_name, output_column, group_columns
    )
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
        store,
        stats.table_name,
        output_column,
        group_columns,
        requested,
        policy,
        models=candidates,
    )
    if not routing.model_groups:
        return None
    return GroupedRoutePlan(
        analysis=analysis,
        candidates=candidates,
        routing=routing,
        output_null_fraction=output_null_fraction,
    )


def answer_grouped(
    statement: SelectStatement,
    store: ModelStore,
    stats: TableStats,
    execute_exact_groups,
    policy: RoutingPolicy | None = None,
    models: list[CapturedModel] | None = None,
    analysis: "GroupedStatementAnalysis | None" = None,
    route_plan: GroupedRoutePlan | None = None,
) -> GroupedAnswer | None:
    """Try to answer a GROUP BY aggregate statement from per-group models.

    ``execute_exact_groups(statement, membership_expression)`` is a callback
    (supplied by the engine) that runs the statement exactly, restricted to
    the given groups, against the real catalog — charging real IO.
    ``analysis`` lets the engine pass the :func:`analyse_grouped_statement`
    result it already computed; ``route_plan`` an already-planned route
    (from :func:`plan_grouped_route`).  Returns None when the statement
    shape is outside this route, leaving it to the enumeration/exact paths.
    """
    if route_plan is None:
        route_plan = plan_grouped_route(
            statement, store, stats, policy=policy, models=models, analysis=analysis
        )
    if route_plan is None:
        return None
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
        exact_table = execute_exact_groups(statement, membership)
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

    column_errors = {
        name: float(np.max(vector)) if len(vector) else 0.0 for name, vector in errors.items()
    }
    route = "grouped-hybrid" if exact_keys else "grouped-model"
    return GroupedAnswer(
        table=table,
        route=route,
        used_model_ids=plan.used_model_ids,
        reason=f"per-group model evaluation: {plan.describe()}",
        column_errors=column_errors,
        group_errors=_PerGroup(slot_of, errors),
        group_values=_PerGroup(slot_of, values),
        group_routes=group_routes,
        virtual_rows_generated=virtual_rows,
    )


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

    The engine runs this once per query — to gate the model lookup and the
    on-demand grouped harvest — and hands the result to ``answer_grouped``,
    so what triggers a harvest and what the route serves cannot drift apart.
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

