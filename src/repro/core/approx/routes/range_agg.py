"""The aggregate rung: a statement without ``GROUP BY`` served from the parameter table.

``SELECT SUM(y) FROM t WHERE x BETWEEN a AND b`` is answered from the
captured model instead of the data: the aggregate kernel
(:mod:`~repro.core.approx.routes.aggcalc`) evaluates the model's parameter
rows over the input domain the WHERE clause leaves — enumerable inputs over
the clipped, row-weighted domain, continuous inputs in closed form over the
clipped box — and reduces a grouped model's groups into the one result row.

The rung answers under two names.  With a ``WHERE`` it is
``range-aggregate``; without one it is ``analytic-aggregate`` (§4.2,
"analytic solutions for linear models"), the same kernel with nothing
clipped.  The gate takes every refusal the kernel could otherwise only make
while answering — a NULL group key, a group newer than the capture, a failed
per-group fit — so an admitted statement is always served.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.approx.protocol import ApproximateAnswer, Probe, Route, RouteSketch, model_sketch
from repro.core.approx.routes.aggcalc import (
    DomainRestriction,
    ItemSpec,
    aggregate_statement,
    analyse_select_items,
    build_result_table,
    combinable_rows,
    constraint_facts,
    pin_facts,
    restrict,
)
from repro.core.captured_model import CapturedModel
from repro.db.sql.ast import SelectStatement

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = ["ROUTE"]

#: What the gate hands on: the analysed SELECT items, where the kernel
#: evaluates the model and which of its parameter rows it combines.
_Match = tuple[list[ItemSpec], DomainRestriction, np.ndarray]


def _gate(engine: ApproximateQueryEngine, probe: Probe) -> _Match | None:
    """An aggregate over the model's output whose predicates restrict only
    columns the model covers, and whose inputs the kernel can restrict.
    Raises where the combined answer would leave rows out
    (:func:`~repro.core.approx.routes.aggcalc.combinable_rows`).  DISTINCT
    over the one result row changes nothing."""
    statement, model, stats = probe.statement, probe.model, probe.stats
    if statement.group_by or statement.having is not None or statement.order_by:
        return None
    analysed = analyse_select_items(statement, group_columns=())
    if analysed is None:
        return None
    specs, output_column = analysed
    if output_column != model.output_column:
        return None
    constraints = statement.constraints
    # Predicates over the predicted values need per-row filtering.
    if not constraints.fully_analysed or constraints.constrains(output_column):
        return None
    meaningful = set(model.input_columns) | set(model.group_columns)
    if any(column not in meaningful for column in constraints.by_column):
        return None
    restriction = restrict(model, stats, constraints)
    if restriction is None:
        return None
    return specs, restriction, combinable_rows(model, stats, constraints, restriction.live)


def _sketch(engine: ApproximateQueryEngine, probe: Probe, match: _Match) -> RouteSketch:
    """How many domain points the evaluation touches is the cost input: the
    enumerable domains, unclipped, times the parameter rows combined."""
    if probe.statement.where is None:
        return model_sketch(probe, "analytic-aggregate", "closed-form aggregate from model parameters", 0)
    points = len(match[2])
    for column in probe.model.input_columns:
        column_stats = probe.stats.columns.get(column)
        if column_stats is not None and column_stats.domain is not None:
            points *= max(len(column_stats.domain), 1)
    return model_sketch(
        probe,
        "range-aggregate",
        "model evaluated/integrated over the restricted input domain",
        min(points, engine.max_virtual_rows),
    )


def _answer(engine: ApproximateQueryEngine, probe: Probe, match: _Match) -> ApproximateAnswer:
    specs, restriction, rows = match
    statement, model = probe.statement, probe.model
    values, errors, virtual_rows, detail = aggregate_statement(specs, model, rows, restriction, probe.stats)
    table = build_result_table(specs, {spec.name: [values[spec.name]] for spec in specs})
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)
    if statement.where is None:
        route, scope = "analytic-aggregate", "whole input"
    else:
        route, scope = "range-aggregate", "range-restricted"
    return ApproximateAnswer(
        sql=probe.sql,
        table=table,
        route=route,
        is_exact=False,
        used_model_ids=[model.model_id],
        reason=f"model evaluated over {scope} domain ({detail})",
        column_errors=errors,
        virtual_rows_generated=virtual_rows,
    )


def _literal_key(statement: SelectStatement, model: CapturedModel | None) -> Any:
    """Whether each pin keeps numbers (the domain restriction) and every
    constraint on the model's group columns, each value with its type (which
    groups are combined, and whether one of them refuses).  The sketch reads
    the number of groups combined only."""
    group_columns = () if model is None else model.group_columns
    return pin_facts(statement), constraint_facts(statement, group_columns)


ROUTE = Route(_gate, _sketch, _answer, literal_key=_literal_key)
