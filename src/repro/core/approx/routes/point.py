"""The point route: every model input and group key pinned by equality.

The paper's first example query::

    SELECT intensity FROM measurements
    WHERE source = 42 AND wavelength = 0.14;

"requires us to look up the two parameters to the model function
I = p * nu^alpha and evaluate the function with those parameters" — no data
access at all.  The answer is that one evaluation together with its
prediction standard error (Figure 2, step 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.approx.protocol import ApproximateAnswer, Probe, Route, RouteSketch, model_sketch
from repro.core.approx.routes.aggcalc import as_floats
from repro.db.constraints import bare_name
from repro.db.expressions import ColumnRef
from repro.db.table import Table
from repro.fitting.predict import predict_interval

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = ["ROUTE"]

_DETAIL = "all model inputs pinned by equality predicates"


def _gate(
    engine: ApproximateQueryEngine, probe: Probe
) -> tuple[tuple[Any, ...], dict[str, float]] | None:
    """The pinned ``(group key, input values)`` of a bare ``SELECT output``
    whose WHERE pins every group column and model input to one value."""
    statement, model, pinned = probe.statement, probe.model, probe.pinned
    if statement.group_by or statement.order_by or statement.distinct:
        return None
    if statement.limit is not None:
        # LIMIT/OFFSET may cut the one row away; the enumeration route runs
        # the statement's own plan, clause included.
        return None
    if len(statement.items) != 1:
        return None
    expression = statement.items[0].expression
    if not isinstance(expression, ColumnRef) or bare_name(expression.name) != model.output_column:
        return None
    needed = model.group_columns + model.input_columns
    if not all(column in pinned and len(pinned[column]) == 1 for column in needed):
        return None
    # Model inputs are numeric by construction; a string pin is a type error
    # the exact engine raises on and ``= NULL`` matches no row — decline so
    # both paths agree.
    inputs = as_floats([pinned[column][0] for column in model.input_columns])
    if inputs is None:
        return None
    key = tuple(pinned[column][0] for column in model.group_columns)
    return key, dict(zip(model.input_columns, inputs))


def _sketch(engine: ApproximateQueryEngine, probe: Probe, _match: Any) -> RouteSketch:
    return model_sketch(probe, "point", _DETAIL, 1)


def _answer(
    engine: ApproximateQueryEngine,
    probe: Probe,
    match: tuple[tuple[Any, ...], dict[str, float]],
) -> ApproximateAnswer:
    """A single model evaluation."""
    model = probe.model
    key, inputs = match
    interval = predict_interval(model.result_for_group(key), inputs)[0]
    output_name = probe.statement.items[0].alias or model.output_column
    return ApproximateAnswer(
        sql=probe.sql,
        table=Table.from_dict("approximate", {output_name: [interval.value]}),
        route="point",
        is_exact=False,
        used_model_ids=[model.model_id],
        reason=_DETAIL,
        column_errors={output_name: interval.standard_error},
        virtual_rows_generated=1,
    )


ROUTE = Route(_gate, _sketch, _answer)
