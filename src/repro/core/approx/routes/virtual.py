"""The virtual-table route: enumerate the parameter space, run the real plan.

The general route, and the end of the routing order (the paper's second
example query)::

    SELECT source, intensity FROM measurements
    WHERE wavelength = 0.14 AND intensity > 3.0;

is answered "by calculating all intensity values with the stored set of
parameters for all sources and the given wavelength" and then filtering on
the predicted value: the model regenerates one tuple per parameter
combination, and the statement's own query plan runs over that table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.approx.enumeration import (
    EnumerationPlan,
    build_enumeration_plan,
    generate_virtual_table,
)
from repro.core.approx.error_bounds import aggregate_error
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
from repro.db.sql.planner import plan_select
from repro.errors import ApproximationError, ExecutionError, SQLError

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = ["ROUTE"]


def _gate(engine: ApproximateQueryEngine, probe: Probe) -> EnumerationPlan:
    """The enumeration plan (the end of the route table: admits or raises).

    Raises :class:`EnumerationError` when the parameter space cannot be
    enumerated, and :class:`ApproximationError` when the statement calls
    SUM or COUNT: the generated table holds one row per parameter
    combination, not per stored row, and their value scales with the latter.
    """
    plan = build_enumeration_plan(
        probe.model, probe.stats, pinned_values=probe.pinned, max_rows=engine.max_virtual_rows
    )
    calls = [call for item in probe.item_aggregates for call in item]
    if probe.statement.having is not None:
        calls += aggregate_calls(probe.statement.having)
    scaling = sorted({call.name.lower() for call in calls} & {"sum", "count"})
    if scaling:
        raise ApproximationError(
            f"{'/'.join(scaling).upper()} scales with row multiplicity, which the "
            "enumerated parameter space does not have"
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
        # e.g. an aggregate/function outside the supported set: record it
        # as a fallback reason instead of crashing the engine mid-route.
        raise ApproximationError(
            f"query plan cannot run over the model-generated table: {exc}"
        ) from exc

    return ApproximateAnswer(
        sql=probe.sql,
        table=result,
        route="virtual-table",
        is_exact=False,
        used_model_ids=[model.model_id],
        reason=f"parameter space enumerated ({plan.describe()})",
        column_errors=_result_errors(probe, max(virtual.num_rows, 1)),
        virtual_rows_generated=virtual.num_rows,
    )


ROUTE = Route(_gate, _sketch, _answer)


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


def _result_errors(probe: Probe, n_rows: int) -> dict[str, float]:
    """Standard-error estimates for the result columns derived from the model."""
    output_column = probe.model.output_column
    per_row = probe.model.quality.residual_standard_error
    errors: dict[str, float] = {}
    for item, calls in zip(probe.statement.items, probe.item_aggregates):
        name = item.alias or item.expression.output_name()
        if calls:
            # The item's outermost aggregate sets how per-row errors combine.
            call = calls[0]
            if not call.args or output_column in call.args[0].referenced_columns():
                errors[name] = aggregate_error(call.name.lower(), per_row, n_rows)
        elif output_column in item.expression.referenced_columns():
            errors[name] = per_row
    return errors
