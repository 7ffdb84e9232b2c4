"""The grouped answer route: GROUP BY aggregates served group-by-group.

The paper's Section 2 workload is built from queries like::

    SELECT source, AVG(intensity) FROM measurements GROUP BY source

Instead of materialising a virtual table and running the full plan over it,
this route evaluates the captured *per-group* models directly — one model
evaluation per group over the (range-restricted) input domain, by the
aggregate kernel of :mod:`~repro.core.approx.routes.aggcalc` — and attaches
a per-group :class:`~repro.core.approx.error_bounds.ErrorEstimate` to every
aggregate.  Groups no servable model covers (failed fits, groups that
appeared after the last capture) are computed exactly over just their rows
and merged in, per the routing plan of
:mod:`repro.core.approx.routes.router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.approx.enumeration import domain_rows
from repro.core.approx.protocol import ApproximateAnswer, GroupedServing, Probe, Route, RouteSketch
from repro.core.approx.routes.aggcalc import (
    DomainRestriction,
    ItemSpec,
    admitted_keys,
    aggregate_groups,
    analyse_select_items,
    build_result_table,
    constraint_facts,
    pin_facts,
    restrict,
)
from repro.db.constraints import WhereConstraints, bare_name as _bare
from repro.core.approx.routes.router import GroupRoutingPlan, plan_group_routing
from repro.core.captured_model import CapturedModel
from repro.db.column import Column
from repro.db.expressions import BinaryOp, ColumnRef, Expression, InList, Literal
from repro.db.operators.codes import dense_key_codes
from repro.db.sql.ast import SelectItem, SelectStatement
from repro.db.sql.planner import plan_select
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType
from repro.fitting.grouped import key_rows

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
    #: Which requested group each candidate that can honor the statement's
    #: predicates serves, and which go exact.
    routing: GroupRoutingPlan
    #: Per serving batch (``routing.batches``), where the kernel evaluates
    #: it under the statement's WHERE clause (the gate's).
    restrictions: list[DomainRestriction] = field(default_factory=list)


def _gate(engine: ApproximateQueryEngine, probe: Probe) -> GroupedRoutePlan | None:
    """Shape gate, candidate lookup (harvesting on demand), per-group routing
    and where the kernel evaluates each serving model.  A plan handed over —
    the planner's, made for this statement or another of its shape — keeps
    its routing; the analysis and the restrictions are this statement's.

    Evaluation restricts every serving model's inputs to the WHERE clause: an
    input that can be neither enumerated nor integrated cannot be restricted,
    so the gate declines and a plan never names a route that does not run.
    """
    analysis = analyse_grouped_statement(probe.statement)
    if analysis is None:
        return None
    planned = probe.grouped_plan
    if planned is None:
        candidates = _candidates(engine, probe, analysis)
        if not candidates:
            return None
        planned = _plan_route(probe.stats, analysis, candidates)
        if planned is None:
            return None
    restrictions = [
        restrict(batch.model, probe.stats, analysis.constraints) for batch in planned.routing.batches
    ]
    if any(restricted is None for restricted in restrictions):
        return None
    return replace(planned, analysis=analysis, restrictions=restrictions)


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
    stats: TableStats, analysis: GroupedStatementAnalysis, candidates: list[CapturedModel]
) -> GroupedRoutePlan | None:
    """Per-group routing over ``candidates``, no evaluation.

    Returns None when no group can be served from a model, leaving the
    statement to the enumeration/exact paths.
    """
    group_columns = analysis.group_columns
    constraints = analysis.constraints

    # NULL group keys form their own group in exact execution; the fitted
    # parameters cannot represent it, so decline when present.  (NULLs in
    # the aggregated column are handled quantitatively by the kernel.)
    for column in group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            return None

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
    # fresh whole-table model's parameter table does.  Otherwise groups that
    # appeared after the last capture would silently vanish from the result.
    single = stats.columns.get(group_columns[0]) if len(group_columns) == 1 else None
    if (single is None or single.domain is None) and not any(
        model.status == "active"
        and model.coverage.covers_whole_table
        and model.fitted_row_count >= stats.row_count
        for model in candidates
    ):
        return None

    requested = _requested_group_keys(candidates, stats, group_columns, constraints)
    routing = plan_group_routing(candidates, group_columns, requested)
    if not routing.served.any():
        return None
    return GroupedRoutePlan(analysis=analysis, routing=routing)


def _sketch(
    engine: ApproximateQueryEngine, probe: Probe, grouped: GroupedRoutePlan
) -> RouteSketch:
    routing, stats = grouped.routing, probe.stats
    group_columns = grouped.analysis.group_columns
    n_model = routing.n_served
    n_exact = len(routing.owner) - n_model
    uncovered_rows = 0.0
    if n_exact:
        exact = routing.keys_where(~routing.served)
        found = domain_rows(stats, group_columns[0], exact[0]) if len(group_columns) == 1 else None
        if found is not None and found[2] is not None:  # the exact keys' live row counts
            uncovered_rows = float(np.sum(found[2][found[1] >= 0]))
        else:
            # No live per-group counts: assume uniform group sizes.
            uncovered_rows = stats.row_count * (n_exact / max(len(routing.owner), 1))
    relatives = [m.quality.relative_rse for m in routing.models if m.quality.relative_rse is not None]
    return RouteSketch(
        route="grouped-hybrid" if n_exact else "grouped-model",
        model_ids=routing.used_model_ids,
        detail=routing.describe(),
        residual_standard_error=max((m.quality.residual_standard_error for m in routing.models), default=0.0),
        relative_rse=max(relatives) if relatives else None,
        est_points=n_model,
        n_model_groups=n_model,
        n_exact_groups=n_exact,
        uncovered_rows=uncovered_rows,
        aggregate_functions=tuple(
            spec.function for spec in grouped.analysis.specs if spec.kind == "aggregate"
        ),
        output_column=grouped.analysis.output_column,
        grouped_plan=grouped,
    )


def _answer(
    engine: ApproximateQueryEngine, probe: Probe, route_plan: GroupedRoutePlan
) -> ApproximateAnswer:
    """GROUP BY aggregates evaluated per group, with exact fill-in."""
    tracer, routing = engine.tracer, route_plan.routing
    with tracer.span("route:grouped") as span:
        if tracer.active:
            served, models = routing.n_served, routing.used_model_ids
            span.annotate(model_groups=served, exact_groups=len(routing.owner) - served, models=models)
        return _evaluate(engine, probe, route_plan)


def _evaluate(
    engine: ApproximateQueryEngine, probe: Probe, route_plan: GroupedRoutePlan
) -> ApproximateAnswer:
    statement, stats = probe.statement, probe.stats
    analysis = route_plan.analysis
    group_columns = analysis.group_columns
    specs = analysis.specs
    order_keys = analysis.order_keys
    plan = route_plan.routing
    aggregates = [spec for spec in specs if spec.kind == "aggregate"]

    # Every model-served group has a slot; each serving model fills the slots
    # of its batch from one evaluation of its whole parameter matrix.
    served, count = plan.served, plan.n_served
    values = {
        spec.name: np.empty(count, dtype=np.int64 if spec.function == "count" else np.float64)
        for spec in aggregates
    }
    errors = {spec.name: np.empty(count) for spec in aggregates}
    model_id = np.empty(count, dtype=np.int64)
    emitted = np.ones(count, dtype=bool)
    virtual_rows = 0

    for batch, restriction in zip(plan.batches, route_plan.restrictions):
        slots = batch.slots
        model_id[slots] = batch.model.model_id
        batch_values, batch_errors, evaluation = aggregate_groups(
            aggregates, batch.model, batch.rows, restriction, stats
        )
        if evaluation.n_points == 0:
            # The restriction keeps no input values: the groups have no
            # qualifying rows and (like exact execution) emit no row.
            emitted[slots] = False
            continue
        virtual_rows += evaluation.virtual_rows
        for name, vector in batch_values.items():
            values[name][slots], errors[name][slots] = vector, batch_errors[name]

    kept = np.flatnonzero(emitted)
    keys = [column.take(kept) for column in plan.keys_where(served)]
    values = {name: vector[kept] for name, vector in values.items()}
    errors = {name: vector[kept] for name, vector in errors.items()}
    model_id = model_id[kept]
    hybrid = count < len(served)
    if hybrid:
        exact_table, exact_keys = _execute_exact_groups(engine, statement, analysis, plan.keys_where(~served))
        keys = [Column.stack(pair) for pair in zip(keys, exact_keys)]
        model_id = np.concatenate([model_id, np.full(exact_table.num_rows, -1)])
    data: dict[str, Column] = {}
    for position, spec in enumerate(specs):
        if spec.kind == "group":
            data[spec.name] = keys[group_columns.index(spec.group_column)]
            continue
        column = Column(DataType.INT64 if spec.function == "count" else DataType.FLOAT64, values[spec.name])
        if hybrid:
            column = Column.stack([column, exact_table.column(exact_table.schema.names[position])])
        data[spec.name] = column

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
        route="grouped-hybrid" if hybrid else "grouped-model",
        is_exact=False,
        used_model_ids=plan.used_model_ids,
        reason=f"per-group model evaluation: {plan.describe()}",
        # The worst per-group standard error (conservative).
        column_errors={
            name: float(np.max(vector)) if len(vector) else 0.0 for name, vector in errors.items()
        },
        virtual_rows_generated=virtual_rows,
        groups=GroupedServing(
            keys=tuple(keys),
            key_names=tuple(
                next((spec.name for spec in specs if spec.group_column == column), None)
                for column in group_columns
            ),
            model_id=model_id,
            values=values,
            errors=errors,
        ),
    )


def _literal_key(statement: SelectStatement, model: CapturedModel | None) -> tuple:
    """Which groups the routing requests — every GROUP BY column's
    constraint, each value with its type — and whether the other pins keep
    numbers (the domain restriction, :func:`pin_facts`).  The sketch reads
    the routing only."""
    return constraint_facts(statement, _group_by_columns(statement) or ()), pin_facts(statement)


ROUTE = Route(_gate, _sketch, _answer, needs_model=False, literal_key=_literal_key)


def _execute_exact_groups(
    engine: ApproximateQueryEngine,
    statement: SelectStatement,
    analysis: GroupedStatementAnalysis,
    keys: list[Column],
) -> tuple[Table, list[Column]]:
    """Run ``statement`` exactly over the groups ``keys`` holds (one column
    per GROUP BY column): its result columns in SELECT order, and the key of
    every result row.

    This is the exact half of the hybrid grouped route: only the rows of
    the uncovered groups are scanned (and charged as real IO).  Each group
    column is narrowed by one ``IN`` list, so the predicate does not deepen
    with the groups; with several columns the lists admit their cross
    product, and the result keeps just the rows of the requested keys.
    """
    membership: Expression | None = None
    for column, values in zip(analysis.group_columns, keys):
        _, first_rows, _ = dense_key_codes([values], len(values))
        term = InList(ColumnRef(column), [Literal(v) for v in values.take(first_rows).to_pylist()])
        membership = term if membership is None else BinaryOp("and", membership, term)
    where = (
        membership if statement.where is None else BinaryOp("and", statement.where, membership)
    )
    # The keys ride behind the SELECT list, under names it does not use.
    taken = {spec.name for spec in analysis.specs}
    items = list(statement.items)
    for column in analysis.group_columns:
        alias = column
        while alias in taken:
            alias += "_"
        taken.add(alias)
        items.append(SelectItem(ColumnRef(column), alias))
    # No HAVING, ORDER BY, LIMIT or DISTINCT: those apply to the merged result.
    sub_statement = SelectStatement(
        items=items, table=statement.table, where=where, group_by=list(statement.group_by)
    )
    database = engine.database
    planned = plan_select(sub_statement, database.catalog, io_model=database.io_model)
    with engine.tracer.span("exact-fill-in"):
        table = planned.root.execute(engine.tracer)
    names, width = table.schema.names, len(statement.items)
    rows = np.flatnonzero(key_rows(keys, [table.column(name) for name in names[width:]]) >= 0)
    return table.select(names[:width]).take(rows), [table.column(name).take(rows) for name in names[width:]]


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
    constraints = statement.constraints
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
) -> list[Column]:
    """Every group key the query could produce, filtered by the WHERE clause:
    one typed column per group column, keys in ascending order.

    Keys come from two places: the candidate models' parameter tables (fitted
    *and* failed groups — failed groups must be computed exactly, not
    dropped) and, for a single enumerable group column, the catalog domain —
    which also surfaces groups that appeared after the last capture.
    """
    stacked = [
        Column.stack([model.fit.key_columns[model.group_columns.index(column)] for model in candidates])
        for column in group_columns
    ]
    found = domain_rows(stats, group_columns[0], stacked[0]) if len(group_columns) == 1 else None
    if found is not None:
        values, rows, _ = found
        stacked = [Column.stack([stacked[0], values.take(np.flatnonzero(rows < 0))])]
    _, first_rows, _ = dense_key_codes(stacked, len(stacked[0]))  # ranked by key
    keys = [column.take(first_rows) for column in stacked]
    admitted = np.ones(len(first_rows), dtype=bool)
    for column, values in zip(group_columns, keys):
        if constraints.constrains(column):
            admitted &= admitted_keys(constraints, column, values)
    return [values.take(np.flatnonzero(admitted)) for values in keys]
