"""What an answer route is: three functions over one statement's probe.

A route lives in one module under :mod:`repro.core.approx.routes` and is the
triple :class:`Route` names — ``gate`` decides from the statement's shape
whether the route applies, ``sketch`` predicts it statically for the planner,
``answer`` serves it.  All three receive the engine (for the catalog, the
model store and the tracer) and the statement's :class:`Probe`; ``sketch``
and ``answer`` also receive exactly what ``gate`` returned, so nothing is
derived twice.  Every route hands back the one :class:`ApproximateAnswer`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable

from repro.core.approx.error_bounds import ErrorEstimate
from repro.core.captured_model import CapturedModel
from repro.db.database import Database
from repro.db.expressions import Expression, FunctionCall
from repro.db.operators.aggregate import SUPPORTED_AGGREGATES
from repro.db.sql.ast import SelectStatement
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.errors import ApproximationError

if TYPE_CHECKING:
    from repro.core.approx.routes.grouped import GroupedRoutePlan

__all__ = [
    "ApproximateAnswer",
    "Probe",
    "Route",
    "RouteSketch",
    "aggregate_calls",
    "model_sketch",
]


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


@dataclass
class Probe:
    """One statement's routing state, built once and shared by every route."""

    sql: str
    statement: SelectStatement
    table_name: str
    referenced: set[str]
    database: Database
    #: The grouped route plan the planner's sketch already computed, if any.
    grouped_plan: GroupedRoutePlan | None
    #: Whether the grouped gate may harvest a grouped model on demand.
    allow_harvest: bool
    #: The serving model and the WHERE-pinned values, bound by the engine once
    #: the grouped route (which does its own model lookup) has declined.
    model: CapturedModel | None = None
    pinned: dict[str, list[Any]] = field(default_factory=dict)

    @cached_property
    def stats(self) -> TableStats:
        """The table's statistics, looked up by the first route that asks."""
        return self.database.stats(self.table_name)

    @cached_property
    def item_aggregates(self) -> list[list[FunctionCall]]:
        """Per SELECT item, the aggregate calls inside it, outermost first."""
        return [aggregate_calls(item.expression) for item in self.statement.items]


@dataclass(frozen=True)
class Route:
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
    #: Whether the engine must bind ``probe.model`` before the gate runs.
    needs_model: bool = True


def aggregate_calls(expression: Expression) -> list[FunctionCall]:
    """Every aggregate call in an expression tree, outermost and leftmost first."""
    found: list[FunctionCall] = []
    if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
        found.append(expression)
    for child in expression.children():
        found += aggregate_calls(child)
    return found


def model_sketch(probe: Probe, route: str, detail: str, est_points: int) -> RouteSketch:
    """The sketch of a route served by the probe's one bound model."""
    model = probe.model
    return RouteSketch(
        route=route,
        model_ids=[model.model_id],
        detail=detail,
        residual_standard_error=model.quality.residual_standard_error,
        relative_rse=model.quality.relative_rse,
        est_points=est_points,
        aggregate_functions=tuple(
            calls[0].name.lower() for calls in probe.item_aggregates if calls
        ),
        output_column=model.output_column,
    )
