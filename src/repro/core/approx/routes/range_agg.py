"""The range answer route: aggregates restricted by range predicates.

``SELECT SUM(y) FROM t WHERE x BETWEEN a AND b`` used to fall back to exact
execution whenever ``x`` was not pinned by an equality.  This route answers
it from the captured model instead, by restricting the model's input domain
to the queried range:

* enumerable inputs are evaluated over the *clipped* domain (the LOFAR
  frequencies inside ``[a, b]``), row-weighted like the grouped route;
* continuous inputs of closed-form-friendly families are integrated
  analytically over the clipped interval, with the covered row count
  estimated from the catalog's selectivity model;
* grouped models are combined across their (predicate-admitted) groups —
  sums add, averages weight by per-group covered rows, extremes take the
  extreme of the per-group extremes — with error estimates propagated
  accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.approx.aggregates import supports_analytic
from repro.core.approx.error_bounds import combine_independent, extreme_value_error
from repro.core.approx.aggregates import _corner_grid, _dense_grid
from repro.core.approx.routes.aggcalc import (
    ItemSpec,
    _as_floats,
    aggregate_values_errors,
    analyse_select_items,
    build_result_table,
    current_group_rows,
    evaluate_over_domains,
    growth_scale,
    restricted_domains,
    staleness_rows,
)
from repro.db.constraints import WhereConstraints, extract_constraints
from repro.core.captured_model import CapturedModel
from repro.db.sql.ast import SelectStatement
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.fitting.families import Constant, Exponential, LinearModel, PowerLaw
from repro.fitting.grouped import GroupedFitResult
from repro.fitting.model import FitResult

__all__ = ["RangeAnswer", "analyse_range_statement", "answer_range"]


@dataclass
class RangeAnswer:
    """An aggregate over a range-restricted domain answered from a model."""

    table: Table
    route: str  # "range-aggregate"
    used_model_ids: list[int]
    reason: str
    column_errors: dict[str, float]
    virtual_rows_generated: int
    #: Estimated raw rows the range restriction covers.
    covered_rows: float


def analyse_range_statement(
    statement: SelectStatement,
    model: CapturedModel,
) -> tuple[list[ItemSpec], WhereConstraints] | None:
    """The shape gate of the range route, shared with the unified planner.

    Returns the analysed select items plus WHERE constraints when this route
    *could* serve the statement from ``model``: an ungrouped aggregate whose
    predicates restrict only columns the model covers, with at least one
    genuine range (interval) restriction.  None means the statement belongs
    to another route.
    """
    if statement.group_by or statement.having is not None or statement.distinct:
        return None
    if statement.order_by:
        return None

    analysed = analyse_select_items(statement, group_columns=())
    if analysed is None:
        return None
    specs, output_column = analysed
    if output_column != model.output_column:
        return None

    constraints = extract_constraints(statement.where)
    if not constraints.fully_analysed:
        return None
    if constraints.constrains(output_column):
        return None
    meaningful = set(model.input_columns) | set(model.group_columns)
    if any(column not in meaningful for column in constraints.by_column):
        return None
    if not any(
        constraints.by_column[column].has_interval for column in constraints.by_column
    ):
        # Equality/IN-only restrictions stay on the point/enumeration routes.
        return None
    return specs, constraints


def answer_range(
    statement: SelectStatement,
    model: CapturedModel,
    stats: TableStats,
    analysed_range: tuple[list[ItemSpec], WhereConstraints] | None = None,
) -> RangeAnswer | None:
    """Try to answer an ungrouped aggregate with range predicates from ``model``.

    Returns None when the statement shape is outside this route — no range
    predicate (equality-only queries keep their existing routes), residual
    conjuncts the analysis cannot express, or predicates over the modelled
    output column (which need per-row filtering).  ``analysed_range`` hands
    over an :func:`analyse_range_statement` result the caller already holds.
    """
    if analysed_range is None:
        analysed_range = analyse_range_statement(statement, model)
    if analysed_range is None:
        return None
    specs, constraints = analysed_range

    if model.is_grouped:
        result = _combine_groups(specs, model, stats, constraints)
    else:
        result = _ungrouped(specs, model, stats, constraints)
    if result is None:
        return None
    values, errors, virtual_rows, covered, detail = result

    table = build_result_table(specs, {spec.name: [values[spec.name]] for spec in specs})
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)

    return RangeAnswer(
        table=table,
        route="range-aggregate",
        used_model_ids=[model.model_id],
        reason=f"model evaluated over range-restricted domain ({detail})",
        column_errors=errors,
        virtual_rows_generated=virtual_rows,
        covered_rows=covered,
    )


# ---------------------------------------------------------------------------
# Ungrouped models
# ---------------------------------------------------------------------------


def _ungrouped(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
):
    restricted = restricted_domains(model, stats, constraints)
    if restricted is not None:
        fit: FitResult = model.fit  # type: ignore[assignment]
        evaluation = evaluate_over_domains(
            fit.family,
            np.asarray(fit.params, dtype=np.float64)[None, :],
            np.array([fit.residual_standard_error]),
            model,
            restricted,
            fitted_observations=np.array([stats.row_count]),
            stale_rows=np.zeros(1),  # cardinality comes from live statistics
            output_null_fraction=_output_null_fraction(model, stats),
        )
        if evaluation.n_points == 0:
            return _empty_result(specs)
        values: dict[str, Any] = {}
        errors: dict[str, float] = {}
        for spec in specs:
            value, error = aggregate_values_errors(
                spec.function, evaluation, count_star=spec.argument is None
            )
            values[spec.name] = value[0].item()
            errors[spec.name] = float(error[0])
        detail = f"enumerated {evaluation.n_points} restricted domain point(s)"
        return values, errors, evaluation.n_points, float(evaluation.covered_rows[0]), detail
    return _analytic_ranges(specs, model, stats, constraints)


def _analytic_ranges(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
):
    """Integrate a continuous-input model over the clipped input box."""
    if not supports_analytic(model):
        return None
    fit: FitResult = model.fit  # type: ignore[assignment]

    input_ranges: dict[str, tuple[float, float]] = {}
    point: dict[str, float] = {}
    fraction = 1.0
    for column in model.input_columns:
        column_stats = stats.columns.get(column)
        if (
            column_stats is None
            or column_stats.min_value is None
            or column_stats.max_value is None
        ):
            return None
        low, high = float(column_stats.min_value), float(column_stats.max_value)
        constraint = constraints.constraint(column)
        if constraint is None:
            input_ranges[column] = (low, high)
            point[column] = float(column_stats.mean) if column_stats.mean is not None else (low + high) / 2.0
        elif constraint.is_pinned:
            # A non-numeric pin is a type error the exact engine raises on.
            if _as_floats(constraint.values) is None:
                return None
            # admits() also applies any interval bounds pinned alongside
            # (e.g. ``x IN (2, 8) AND x < 5`` keeps only 2).
            pinned = [float(v) for v in constraint.values if constraint.admits(v)]
            if not pinned:
                return _empty_result(specs)
            input_ranges[column] = (min(pinned), max(pinned))
            point[column] = float(np.mean(pinned))
            fraction *= sum(column_stats.selectivity_equals(v) for v in pinned)
        else:
            clipped = constraint.clip_interval(low, high)
            if clipped is None:
                return _empty_result(specs)
            input_ranges[column] = clipped
            point[column] = (clipped[0] + clipped[1]) / 2.0
            fraction *= column_stats.selectivity_range(clipped[0], clipped[1])

    row_count = stats.row_count
    est_rows = row_count * fraction
    # Binomial allowance for the selectivity estimate under uniformity.
    rows_error = math.sqrt(max(row_count, 1) * fraction * max(1.0 - fraction, 0.0))
    if est_rows <= 0:
        return _empty_result(specs)

    # ``is_linear`` means linear in the *parameters* (a Polynomial is); the
    # shortcuts here need stronger properties: corner extremes need
    # monotonicity in each input, the midpoint average needs linearity in
    # the inputs.  Everything else gets the dense interior scan.
    family = fit.family
    linear_in_inputs = isinstance(family, (Constant, LinearModel))
    monotone = linear_in_inputs or isinstance(family, (Exponential, PowerLaw))
    grid_predictions: np.ndarray | None = None
    if not monotone or not linear_in_inputs:
        grid = _dense_grid(model.input_columns, input_ranges)
        grid_predictions = np.asarray(fit.predict(grid), dtype=np.float64)
    if monotone:
        extremes = _corner_predictions(fit, model.input_columns, input_ranges)
    else:
        extremes = grid_predictions
    span = float(np.max(extremes) - np.min(extremes)) if extremes.size else 0.0
    if linear_in_inputs:
        if model.input_columns:
            avg_value = float(
                fit.predict({name: np.array([point[name]]) for name in model.input_columns})[0]
            )
        else:
            avg_value = float(fit.predict({})[0])
    else:
        avg_value = float(np.mean(grid_predictions))
    rse = fit.residual_standard_error

    n = max(est_rows, 1.0)
    avg_error = math.sqrt(rse * rse * 2.0 / n + span * span / (12.0 * n))
    # Exact COUNT(col)/SUM skip NULL outputs; COUNT(*) counts every row.
    null_fraction = min(max(_output_null_fraction(model, stats), 0.0), 1.0)
    non_null_rows = est_rows * (1.0 - null_fraction)
    null_error = (
        math.sqrt(est_rows * null_fraction * (1.0 - null_fraction))
        if 0.0 < null_fraction < 1.0
        else 0.0
    )
    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        function = spec.function
        if function == "count":
            if spec.argument is None:
                values[spec.name] = int(round(est_rows))
                errors[spec.name] = rows_error
            else:
                values[spec.name] = int(round(non_null_rows))
                errors[spec.name] = math.hypot(rows_error, null_error)
        elif function == "avg":
            values[spec.name] = avg_value
            errors[spec.name] = avg_error
        elif function == "sum":
            values[spec.name] = avg_value * non_null_rows
            errors[spec.name] = math.sqrt(
                (avg_value * math.hypot(rows_error, null_error)) ** 2
                + (avg_error * non_null_rows) ** 2
            )
        elif function == "min":
            values[spec.name] = float(np.min(extremes))
            errors[spec.name] = float(extreme_value_error(rse, est_rows))
        elif function == "max":
            values[spec.name] = float(np.max(extremes))
            errors[spec.name] = float(extreme_value_error(rse, est_rows))
        else:
            return None
    ranges_text = ", ".join(
        f"{name} in [{low:.6g}, {high:.6g}]" for name, (low, high) in input_ranges.items()
    )
    return values, errors, 0, est_rows, f"analytic integration over {ranges_text}"


# ---------------------------------------------------------------------------
# Grouped models (combine per-group answers)
# ---------------------------------------------------------------------------


def _combine_groups(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
):
    # Rows with a NULL group key have no per-group fit but still belong in a
    # global aggregate; combining fitted groups would silently drop them.
    for column in model.group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            return None

    restricted = restricted_domains(model, stats, constraints)
    if restricted is None:
        return None
    grouped: GroupedFitResult = model.fit  # type: ignore[assignment]
    records = grouped.records
    stacked = grouped.stacked()

    constrained = [
        (i, column) for i, column in enumerate(model.group_columns) if constraints.constrains(column)
    ]
    admitted = np.ones(len(records), dtype=bool)
    if constrained:
        admitted = np.array(
            [all(constraints.admits(column, record.key[i]) for i, column in constrained) for record in records],
            dtype=bool,
        )
    live_rows = current_group_rows(stats, model.group_columns)
    if live_rows is not None:
        live = np.array([live_rows.get(record.key[0], 0) for record in records], dtype=np.float64)
        # A group that no longer holds any rows contributes nothing.
        admitted &= live > 0.0
        # Groups that appeared after the capture have no per-group fit; a
        # combined answer missing their rows would be silently incomplete.
        # Every admitted record is one of the catalog's populated, admitted
        # group values, so any surplus among those is such a group.
        (column,) = model.group_columns
        populated = sum(
            1 for value, count in live_rows.items() if count > 0 and constraints.admits(column, value)
        )
        if populated > np.count_nonzero(admitted):
            return None
    rows = np.flatnonzero(admitted)
    if not stacked.fitted[rows].all():
        # A failed per-group fit would silently bias the global aggregate;
        # leave the query to the enumeration/exact paths.
        return None
    if not rows.size:
        return _empty_result(specs)

    if live_rows is not None:
        observations, scale, stale_rows = live[rows], 1.0, np.zeros(len(rows))
    else:
        stale = staleness_rows(model, stats)
        observations, scale = stacked.n_obs[rows], growth_scale(model, stats)
        stale_rows = np.full(len(rows), np.nan if stale is None else stale)
    evaluation = evaluate_over_domains(
        grouped.family,
        stacked.params[rows],
        stacked.rse[rows],
        model,
        restricted,
        fitted_observations=observations,
        scale=scale,
        stale_rows=stale_rows,
        output_null_fraction=_output_null_fraction(model, stats),
    )
    if evaluation.n_points == 0:
        return _empty_result(specs)

    covered = evaluation.covered_rows
    total_covered = float(np.sum(covered))
    weights = covered / total_covered if total_covered > 0 else np.zeros_like(covered)

    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        function = spec.function
        per_group, per_group_error = aggregate_values_errors(
            function, evaluation, count_star=spec.argument is None
        )
        if function == "count":
            values[spec.name] = int(np.sum(per_group))
            errors[spec.name] = combine_independent(per_group_error)
        elif function == "sum":
            values[spec.name] = float(np.sum(per_group))
            errors[spec.name] = combine_independent(per_group_error)
        elif function == "avg":
            values[spec.name] = float(weights @ per_group)
            errors[spec.name] = combine_independent(weights * per_group_error)
        elif function in ("min", "max"):
            index = int(np.argmin(per_group) if function == "min" else np.argmax(per_group))
            values[spec.name] = float(per_group[index])
            errors[spec.name] = float(
                extreme_value_error(evaluation.residual_standard_error[index], total_covered)
            )
        else:
            return None
    detail = f"combined {len(rows)} group(s) over restricted domain"
    return values, errors, evaluation.n_points * len(rows), total_covered, detail


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _output_null_fraction(model: CapturedModel, stats: TableStats) -> float:
    column_stats = stats.columns.get(model.output_column)
    return column_stats.null_fraction if column_stats is not None else 0.0


def _empty_result(specs: list[ItemSpec]):
    """SQL semantics of a global aggregate over zero rows: COUNT 0, rest NULL."""
    values = {
        spec.name: (0 if spec.function == "count" else None) for spec in specs
    }
    errors = {spec.name: 0.0 for spec in specs}
    return values, errors, 0, 0.0, "restriction covers no rows"


def _corner_predictions(
    fit: FitResult, input_columns: tuple[str, ...], input_ranges: dict[str, tuple[float, float]]
) -> np.ndarray:
    """The fit evaluated at every corner of the (clipped) input box."""
    if not input_columns:
        return np.asarray(fit.predict({}), dtype=np.float64).reshape(-1)[:1]
    return np.asarray(fit.predict(_corner_grid(input_columns, input_ranges)), dtype=np.float64)
