"""The virtual-table route: enumerate the parameter space, run the real plan.

The general route for non-aggregate selections, and the end of the routing
order (the paper's second example query)::

    SELECT source, intensity FROM measurements
    WHERE wavelength = 0.14 AND intensity > 3.0;

is answered "by calculating all intensity values with the stored set of
parameters for all sources and the given wavelength" and then filtering on
the predicted value: the model regenerates one tuple per parameter
combination, and the statement's own query plan runs over that table.

The generated table holds one row per parameter combination, not per stored
row, so it does not aggregate: aggregates are the kernel's
(:mod:`~repro.core.approx.routes.aggcalc`), weighted by the rows each
combination stands for, and whatever the aggregate routes decline runs
exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.approx.enumeration import (
    EnumerationPlan,
    build_enumeration_plan,
    generate_virtual_table,
)
from repro.core.approx.legal import LegalCombinationFilter
from repro.core.approx.protocol import (
    ApproximateAnswer,
    Probe,
    Route,
    RouteSketch,
    aggregate_calls,
    model_sketch,
)
from repro.core.captured_model import CapturedModel
from repro.db.catalog import Catalog
from repro.db.sql.ast import SelectStatement
from repro.db.sql.planner import plan_select
from repro.errors import ApproximationError, ExecutionError, SQLError

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = ["ROUTE"]


def _gate(engine: ApproximateQueryEngine, probe: Probe) -> EnumerationPlan:
    """The enumeration plan (the end of the route table: admits or raises).

    Raises :class:`EnumerationError` when the parameter space cannot be
    enumerated, and :class:`ApproximationError` when the statement
    aggregates: every aggregate's value depends on how many stored rows each
    generated row stands for, which the generated table does not say.
    """
    plan = build_enumeration_plan(
        probe.model, probe.stats, pinned_values=probe.pinned, max_rows=engine.max_virtual_rows
    )
    calls = [call for item in probe.item_aggregates for call in item]
    if probe.statement.having is not None:
        calls += aggregate_calls(probe.statement.having)
    if calls:
        names = "/".join(sorted({call.name.upper() for call in calls}))
        raise ApproximationError(
            f"{names} over the enumerated parameter space counts parameter combinations, "
            "not stored rows; no model route serves this aggregate"
        )
    return plan


def _sketch(engine: ApproximateQueryEngine, probe: Probe, plan: EnumerationPlan) -> RouteSketch:
    detail = f"parameter space enumerable ({plan.describe()})"
    return model_sketch(probe, "virtual-table", detail, plan.num_rows)


def _answer(
    engine: ApproximateQueryEngine, probe: Probe, plan: EnumerationPlan
) -> ApproximateAnswer:
    statement, model, tracer = probe.statement, probe.model, engine.tracer
    with tracer.span("enumerate") as span:
        virtual = generate_virtual_table(model, plan, table_name=model.table_name)
        if tracer.active:
            span.annotate(plan=plan.describe(), virtual_rows=virtual.num_rows)

    if engine.use_legal_filter:
        virtual = _legal_filter(engine, model).filter_table(virtual)

    # Execute the original statement against the model-generated table.
    shadow_catalog = Catalog()
    shadow_catalog.register_table(virtual)
    try:
        planned = plan_select(statement, shadow_catalog, io_model=None)
        with tracer.span("evaluate"):
            result = planned.root.execute(tracer)
    except (SQLError, ExecutionError) as exc:
        # e.g. a function outside the supported set: record it as a
        # fallback reason instead of crashing the engine mid-route.
        raise ApproximationError(
            f"query plan cannot run over the model-generated table: {exc}"
        ) from exc

    # A result column derived from the modelled output carries its per-row
    # standard error.
    per_row = model.quality.residual_standard_error
    return ApproximateAnswer(
        sql=probe.sql,
        table=result,
        route="virtual-table",
        is_exact=False,
        used_model_ids=[model.model_id],
        reason=f"parameter space enumerated ({plan.describe()})",
        column_errors={
            item.alias or item.expression.output_name(): per_row
            for item in statement.items
            if model.output_column in item.expression.referenced_columns()
        },
        virtual_rows_generated=virtual.num_rows,
    )


def _literal_key(statement: SelectStatement, model: CapturedModel | None) -> tuple:
    """The enumerated space — whether it fits, how many rows it holds — is
    built from the pinned values themselves, each kept with its type."""
    return tuple(
        (column, tuple((type(value), value) for value in constraint.values))
        for column, constraint in statement.constraints.by_column.items()
        if constraint.is_pinned
    )


ROUTE = Route(_gate, _sketch, _answer, literal_key=_literal_key)


def _legal_filter(engine: ApproximateQueryEngine, model: CapturedModel) -> LegalCombinationFilter:
    """The model's legality filter, built on first use and kept on the engine."""
    key_columns = model.group_columns + model.input_columns
    cache_key = (model.table_name, key_columns)
    if cache_key not in engine.legal_filters:
        table = engine.database.table(model.table_name)
        # Building the filter reads the raw data once; it is an auxiliary
        # structure like an index, charged as a one-off scan.
        engine.database.io_model.charge_scan(table, list(key_columns))
        engine.legal_filters[cache_key] = LegalCombinationFilter.from_table(
            table, key_columns, round_decimals=3
        )
    return engine.legal_filters[cache_key]
