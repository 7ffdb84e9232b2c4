"""The range and analytic routes: ungrouped aggregates over a model's input box.

``SELECT SUM(y) FROM t WHERE x BETWEEN a AND b`` used to fall back to exact
execution whenever ``x`` was not pinned by an equality.  The
``range-aggregate`` route answers it from the captured model instead, by
restricting the model's input domain to the queried range:

* enumerable inputs are evaluated over the *clipped* domain (the LOFAR
  frequencies inside ``[a, b]``), row-weighted like the grouped route;
* continuous inputs of closed-form-friendly families are integrated
  analytically over the clipped interval, with the covered row count
  estimated from the catalog's selectivity model;
* grouped models are combined across their (predicate-admitted) groups —
  sums add, averages weight by per-group covered rows, extremes take the
  extreme of the per-group extremes — with error estimates propagated
  accordingly.

The ``analytic-aggregate`` route (§4.2, "analytic solutions for linear
models") is the second of those with nothing clipped: the same statement
shape without a ``WHERE``, integrated by the same kernel over the whole
input box — extremes of a monotone family at the box's corners, the average
of a family linear in its inputs at the inputs' measured means — so the two
routes share one evaluation and one error convention.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.approx.error_bounds import combine_independent, extreme_value_error
from repro.core.approx.protocol import ApproximateAnswer, Probe, Route, RouteSketch, model_sketch
from repro.core.approx.routes.aggcalc import (
    DomainRestriction,
    ItemSpec,
    aggregate_values_errors,
    analyse_select_items,
    as_floats,
    build_result_table,
    current_group_rows,
    evaluate_over_domains,
    growth_scale,
    pin_facts,
    restricted_domains,
    staleness_rows,
)
from repro.db.constraints import WhereConstraints
from repro.core.captured_model import CapturedModel
from repro.db.stats import TableStats
from repro.fitting.families import Constant, Exponential, LinearModel, Polynomial, PowerLaw
from repro.fitting.grouped import GroupedFitResult
from repro.fitting.model import FitResult

if TYPE_CHECKING:
    from repro.core.approx.engine import ApproximateQueryEngine

__all__ = ["ANALYTIC_ROUTE", "RANGE_ROUTE"]

#: The statement shape both routes serve: the analysed SELECT items and WHERE constraints.
_Shape = tuple[list[ItemSpec], WhereConstraints]
#: What a gate hands on: the shape and the input domains evaluation
#: enumerates — None to integrate the closed form over the clipped box.
_Match = tuple[list[ItemSpec], WhereConstraints, DomainRestriction | None]
#: What an evaluation hands back: values and standard errors by result
#: column, the domain points evaluated, and a description for the reason.
_Evaluated = tuple[dict[str, Any], dict[str, float], int, str]


def _aggregate_shape(probe: Probe) -> _Shape | None:
    """The statement shape both routes serve from ``probe.model``: an
    ungrouped aggregate over the model's output whose predicates restrict
    only columns the model covers.  None means the statement belongs to
    another route."""
    statement, model = probe.statement, probe.model
    if statement.group_by or statement.having is not None or statement.order_by:
        return None

    analysed = analyse_select_items(statement, group_columns=())
    if analysed is None:
        return None
    specs, output_column = analysed
    if output_column != model.output_column:
        return None

    constraints = statement.constraints
    if not constraints.fully_analysed:
        return None
    if constraints.constrains(output_column):
        # Predicates over the predicted values need per-row filtering.
        return None
    meaningful = set(model.input_columns) | set(model.group_columns)
    if any(column not in meaningful for column in constraints.by_column):
        return None
    return specs, constraints


def _answer(
    probe: Probe, specs: list[ItemSpec], evaluated: _Evaluated, route: str, reason: str
) -> ApproximateAnswer:
    values, errors, virtual_rows, _detail = evaluated
    statement = probe.statement
    table = build_result_table(specs, {spec.name: [values[spec.name]] for spec in specs})
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)
    return ApproximateAnswer(
        sql=probe.sql,
        table=table,
        route=route,
        is_exact=False,
        used_model_ids=[probe.model.model_id],
        reason=reason,
        column_errors=errors,
        virtual_rows_generated=virtual_rows,
    )


# ---------------------------------------------------------------------------
# range-aggregate: at least one genuine interval restriction
# ---------------------------------------------------------------------------


def _range_gate(engine: ApproximateQueryEngine, probe: Probe) -> _Match | None:
    """The restriction evaluation enumerates: every input's known or pinned
    domain, clipped — else, for an ungrouped closed-form model, None to
    integrate.  Declines when neither applies, so a plan never names a
    route whose evaluation cannot restrict the inputs."""
    if probe.statement.distinct or probe.statement.where is None:
        return None
    shape = _aggregate_shape(probe)
    if shape is None or not any(c.has_interval for c in shape[1].by_column.values()):
        # Equality/IN-only restrictions stay on the point/enumeration routes.
        return None
    specs, constraints = shape
    model, stats = probe.model, probe.stats
    restricted = restricted_domains(model, stats, constraints)
    if restricted is None and (model.is_grouped or not _integrable(model, stats, constraints)):
        return None
    return specs, constraints, restricted


def _range_sketch(engine: ApproximateQueryEngine, probe: Probe, _match: _Match) -> RouteSketch:
    """How many domain points the evaluation touches is the cost input."""
    model, stats = probe.model, probe.stats
    points = 1
    for column in model.input_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.domain is not None:
            points *= max(len(column_stats.domain), 1)
    if model.is_grouped:
        points *= max(len(model.fit.records), 1)  # type: ignore[union-attr]
    return model_sketch(
        probe,
        "range-aggregate",
        "model evaluated/integrated over the restricted input domain",
        min(points, engine.max_virtual_rows),
    )


def _range_answer(
    engine: ApproximateQueryEngine, probe: Probe, match: _Match
) -> ApproximateAnswer | None:
    """Returns None when a grouped model's groups cannot be combined after
    all: a NULL group key, a group newer than the capture or a failed
    per-group fit would bias the global aggregate."""
    specs, constraints, restricted = match
    model, stats = probe.model, probe.stats
    if restricted is None:
        evaluated = _analytic_ranges(specs, model, stats, constraints)
    elif model.is_grouped:
        evaluated = _combine_groups(specs, model, stats, constraints, restricted)
        if evaluated is None:
            return None
    else:
        evaluated = _enumerated(specs, model, stats, restricted)
    *_, detail = evaluated
    reason = f"model evaluated over range-restricted domain ({detail})"
    return _answer(probe, specs, evaluated, "range-aggregate", reason)


#: The gate reads whether each pin keeps numbers (the domain restriction);
#: the sketch reads no literal.
RANGE_ROUTE = Route(_range_gate, _range_sketch, _range_answer, literal_key=pin_facts)


# ---------------------------------------------------------------------------
# analytic-aggregate: the same shape and kernel with nothing to clip
# ---------------------------------------------------------------------------


def _analytic_gate(engine: ApproximateQueryEngine, probe: Probe) -> _Match | None:
    """MIN/MAX/AVG/SUM without a WHERE over an ungrouped closed-form model
    whose inputs all have min/max statistics.  (COUNT needs no model at all
    and DISTINCT over the one result row changes nothing.)"""
    model = probe.model
    if model.is_grouped or probe.statement.where is not None:
        return None
    shape = _aggregate_shape(probe)
    if shape is None or any(spec.function == "count" for spec in shape[0]):
        return None
    specs, constraints = shape
    if not _integrable(model, probe.stats, constraints):
        return None
    return specs, constraints, None


def _analytic_sketch(engine: ApproximateQueryEngine, probe: Probe, _match: _Match) -> RouteSketch:
    return model_sketch(
        probe, "analytic-aggregate", "closed-form aggregate from model parameters", 0
    )


def _analytic_answer(
    engine: ApproximateQueryEngine, probe: Probe, match: _Match
) -> ApproximateAnswer:
    specs, constraints, _ = match
    evaluated = _analytic_ranges(specs, probe.model, probe.stats, constraints)
    reason = "closed-form aggregate from linear model parameters"
    return _answer(probe, specs, evaluated, "analytic-aggregate", reason)


ANALYTIC_ROUTE = Route(_analytic_gate, _analytic_sketch, _analytic_answer)


# ---------------------------------------------------------------------------
# Ungrouped models
# ---------------------------------------------------------------------------


def _enumerated(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    restricted: DomainRestriction,
) -> _Evaluated:
    """Evaluate an ungrouped model over its restricted input domains."""
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
    return values, errors, evaluation.n_points, detail


def _analytic_ranges(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
) -> _Evaluated:
    """Integrate a continuous-input model over the clipped input box (the
    gates checked :func:`_integrable`)."""
    fit: FitResult = model.fit  # type: ignore[assignment]

    # ``is_linear`` means linear in the *parameters* (a Polynomial is); the
    # shortcuts here need stronger properties: corner extremes need
    # monotonicity in each input, the one-point average needs linearity in
    # the inputs.  Everything else gets the dense interior scan.
    family = fit.family
    linear_in_inputs = isinstance(family, (Constant, LinearModel))
    monotone = linear_in_inputs or isinstance(family, (Exponential, PowerLaw))

    input_ranges: dict[str, tuple[float, float]] = {}
    point: dict[str, float] = {}
    fraction = 1.0
    # Whether the average is evaluated where the rows are *assumed* to sit —
    # a uniform grid, an interval midpoint — rather than at measured means.
    assumed_spread = not linear_in_inputs
    for column in model.input_columns:
        column_stats = stats.columns[column]
        low, high = float(column_stats.min_value), float(column_stats.max_value)
        constraint = constraints.constraint(column)
        measured = constraint is None and column_stats.mean is not None
        assumed_spread |= not measured
        if constraint is None:
            input_ranges[column] = (low, high)
            point[column] = float(column_stats.mean) if measured else (low + high) / 2.0
        elif constraint.is_pinned:
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

    # Fit uncertainty plus residual noise (the routes' shared convention,
    # see ``aggregate_values_errors``), plus — only where the evaluation
    # point was assumed — the allowance for rows not spread uniformly.
    n = max(est_rows, 1.0)
    spread = span * span / (12.0 * n) if assumed_spread else 0.0
    avg_error = math.sqrt(rse * rse * 2.0 / n + spread)
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
        else:  # min / max (ROUTE_AGGREGATES)
            values[spec.name] = float(np.min(extremes) if function == "min" else np.max(extremes))
            errors[spec.name] = float(extreme_value_error(rse, est_rows))
    ranges_text = ", ".join(
        f"{name} in [{low:.6g}, {high:.6g}]" for name, (low, high) in input_ranges.items()
    )
    return values, errors, 0, f"analytic integration over {ranges_text}"


# ---------------------------------------------------------------------------
# Grouped models (combine per-group answers)
# ---------------------------------------------------------------------------


def _combine_groups(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
    restricted: DomainRestriction,
) -> _Evaluated | None:
    # Rows with a NULL group key have no per-group fit but still belong in a
    # global aggregate; combining fitted groups would silently drop them.
    for column in model.group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
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
        else:  # min / max (ROUTE_AGGREGATES)
            index = int(np.argmin(per_group) if function == "min" else np.argmax(per_group))
            values[spec.name] = float(per_group[index])
            errors[spec.name] = float(
                extreme_value_error(evaluation.residual_standard_error[index], total_covered)
            )
    detail = f"combined {len(rows)} group(s) over restricted domain"
    return values, errors, evaluation.n_points * len(rows), detail


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _output_null_fraction(model: CapturedModel, stats: TableStats) -> float:
    column_stats = stats.columns.get(model.output_column)
    return column_stats.null_fraction if column_stats is not None else 0.0


def _empty_result(specs: list[ItemSpec]) -> _Evaluated:
    """SQL semantics of a global aggregate over zero rows: COUNT 0, rest NULL."""
    values = {
        spec.name: (0 if spec.function == "count" else None) for spec in specs
    }
    errors = {spec.name: 0.0 for spec in specs}
    return values, errors, 0, "restriction covers no rows"


def _integrable(model: CapturedModel, stats: TableStats, constraints: WhereConstraints) -> bool:
    """Whether :func:`_analytic_ranges` can integrate the model over the
    clipped input box: a closed-form family, min/max statistics for every
    input, and only numbers pinned (a string pin is a type error the exact
    engine raises on)."""
    if not _closed_form(model):
        return False
    for column in model.input_columns:
        column_stats = stats.columns.get(column)
        if column_stats is None or column_stats.min_value is None or column_stats.max_value is None:
            return False
        constraint = constraints.constraint(column)
        if constraint is not None and constraint.is_pinned and as_floats(constraint.values) is None:
            return False
    return True


def _closed_form(model: CapturedModel) -> bool:
    """True if the model family admits an endpoint/linearity argument."""
    family = model.fit.family
    return isinstance(family, (LinearModel, PowerLaw, Exponential, Polynomial)) or family.is_linear


def _corner_predictions(
    fit: FitResult, input_columns: tuple[str, ...], input_ranges: dict[str, tuple[float, float]]
) -> np.ndarray:
    """The fit evaluated at every corner of the (clipped) input box."""
    if not input_columns:
        return np.asarray(fit.predict({}), dtype=np.float64).reshape(-1)[:1]
    return np.asarray(fit.predict(_corner_grid(input_columns, input_ranges)), dtype=np.float64)


def _corner_grid(
    input_columns: tuple[str, ...], input_ranges: Mapping[str, tuple[float, float]]
) -> dict[str, np.ndarray]:
    """All corners of the input bounding box."""
    num_inputs = len(input_columns)
    corners = {name: [] for name in input_columns}
    for mask in range(2**num_inputs):
        for bit, name in enumerate(input_columns):
            low, high = input_ranges[name]
            corners[name].append(high if (mask >> bit) & 1 else low)
    return {name: np.asarray(values, dtype=np.float64) for name, values in corners.items()}


def _dense_grid(
    input_columns: tuple[str, ...],
    input_ranges: Mapping[str, tuple[float, float]],
    points_per_dim: int = 101,
) -> dict[str, np.ndarray]:
    """A dense regular grid over the input box (meshgrid, flattened)."""
    axes = [
        np.linspace(input_ranges[name][0], input_ranges[name][1], points_per_dim)
        for name in input_columns
    ]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    return {name: grid.ravel() for name, grid in zip(input_columns, mesh)}
