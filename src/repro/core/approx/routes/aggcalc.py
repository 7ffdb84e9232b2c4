"""The aggregate kernel: ``(parameter rows, restriction) → per-group values and errors``.

Every model-served aggregate — the grouped route's per-group answers and the
aggregate rung's one-row answers — is computed here from a captured model's
parameter table (§4.2; SNIPPETS.md §1's one integration kernel per model):

* :func:`restrict` says where a model is evaluated.  Enumerable inputs give
  the *enumerated arm*: the catalog domain clipped by the WHERE clause,
  weighted by the per-value row counts.  Continuous inputs of a closed-form
  family give the *closed-form arm*: the clipped input box, read at its
  corners for a monotone family's extremes, at one mean point for the
  average of a family linear in its inputs, over a dense grid otherwise.
* :func:`aggregate_groups` evaluates ``G`` parameter rows there with one
  ``ModelFamily.predict_many`` call, weighs each by the rows it stands for
  (the one covered-rows rule, :func:`_parameter_rows`) and states every
  aggregate by the one error convention (:func:`aggregate_values_errors`).
* :func:`aggregate_statement` is the one reduction across groups: a statement
  without ``GROUP BY`` over the rows :func:`combinable_rows` admits.

Row weighting is what makes SUM/COUNT track exact semantics: a group fitted on
``n`` observations with a restriction keeping a fraction ``f`` of the input
domain covers about ``n * f`` raw rows — not one row per domain point, which
is why the virtual table does not aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Any

import numpy as np

from repro.core.approx.enumeration import domain_rows
from repro.core.approx.error_bounds import combine_independent, extreme_value_error
from repro.core.captured_model import CapturedModel
from repro.db.column import Column
from repro.db.constraints import WhereConstraints, bare_name as _bare
from repro.db.expressions import ColumnRef, FunctionCall
from repro.db.operators.codes import dense_key_codes
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.ast import SelectStatement, Star
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ApproximationError
from repro.fitting.families import Constant, Exponential, LinearModel, PowerLaw
from repro.fitting.grouped import GroupedFitResult

__all__ = [
    "ROUTE_AGGREGATES",
    "ItemSpec",
    "analyse_select_items",
    "as_floats",
    "pin_facts",
    "constraint_facts",
    "DomainRestriction",
    "restrict",
    "admitted_keys",
    "live_rows",
    "combinable_rows",
    "DomainEvaluation",
    "evaluate_over_domains",
    "aggregate_values_errors",
    "aggregate_groups",
    "aggregate_statement",
    "build_result_table",
]

#: Aggregate functions the model-backed routes know how to weight.
ROUTE_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


@dataclass(frozen=True)
class ItemSpec:
    """One analysed SELECT item: a group key or a supported aggregate."""

    kind: str  # "group" | "aggregate"
    name: str  # output column name (alias or planner-compatible default)
    function: str | None = None
    #: Aggregate argument column (None for COUNT(*)).
    argument: str | None = None
    group_column: str | None = None


def analyse_select_items(
    statement: SelectStatement, group_columns: tuple[str, ...]
) -> tuple[list[ItemSpec], str] | None:
    """Analyse the SELECT list into group keys and weighted aggregates.

    Returns ``(specs, output_column)`` where ``output_column`` is the single
    column all value aggregates target, or None when the list contains
    anything the routes cannot serve (expressions, unsupported functions,
    aggregates over several distinct columns, duplicate output names).
    """
    specs: list[ItemSpec] = []
    value_columns: set[str] = set()
    names: set[str] = set()
    has_aggregate = False
    for item in statement.items:
        expression = item.expression
        if isinstance(expression, Star):
            return None
        if isinstance(expression, ColumnRef):
            bare = _bare(expression.name)
            if bare not in group_columns:
                return None
            name = item.alias or bare
            specs.append(ItemSpec(kind="group", name=name, group_column=bare))
        elif isinstance(expression, FunctionCall):
            function = expression.name.lower()
            if function not in ROUTE_AGGREGATES:
                return None
            if len(expression.args) == 0:
                if function != "count":
                    return None
                argument = None
            elif len(expression.args) == 1 and isinstance(expression.args[0], ColumnRef):
                argument = _bare(expression.args[0].name)
            else:
                return None
            if argument is not None and argument in group_columns:
                # Aggregates over a group-key column (MIN(g), SUM(g), ...)
                # would be evaluated against the output model's predictions;
                # decline rather than answer them wrongly.
                return None
            if argument is not None:
                value_columns.add(argument)
            name = item.alias or f"{function}({argument if argument is not None else '*'})"
            specs.append(ItemSpec(kind="aggregate", name=name, function=function, argument=argument))
            has_aggregate = True
        else:
            return None
        if specs[-1].name in names:
            return None
        names.add(specs[-1].name)
    if not has_aggregate or len(value_columns) != 1:
        return None
    return specs, next(iter(value_columns))


def as_floats(values: list[Any]) -> list[float] | None:
    """Coerce domain values to floats; None when any value is non-numeric
    (e.g. ``WHERE x = 'abc'`` on a numeric model input) so the caller
    declines instead of crashing."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return None


def pin_facts(statement: SelectStatement) -> tuple:
    """Per pinned column, how many values the WHERE clause keeps and whether
    they all read as numbers: what a point lookup or a domain restriction
    decides on (a route's ``literal_key``)."""
    return tuple(
        (column, len(constraint.values), as_floats(constraint.values) is not None)
        for column, constraint in statement.constraints.by_column.items()
        if constraint.is_pinned
    )


def constraint_facts(statement: SelectStatement, columns: tuple[str, ...]) -> tuple:
    """Every constraint the WHERE clause puts on ``columns``, each value with
    its type: what a gate reads off literals when it decides which groups a
    statement asks for (a route's ``literal_key``)."""
    return tuple(
        (
            column,
            None if c.values is None else tuple((type(v), v) for v in c.values),
            c.low,
            c.low_inclusive,
            c.high,
            c.high_inclusive,
        )
        for column, c in statement.constraints.by_column.items()
        if column in columns
    )


# ---------------------------------------------------------------------------
# Where a model is evaluated
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainRestriction:
    """Where the kernel evaluates a model for one statement.

    The same points serve every group; what differs per group is computed by
    :func:`evaluate_over_domains`.
    """

    #: input column -> coordinate of every evaluation point (an array of
    #: zeros for an input-free model).
    points: Any
    n_points: int
    #: The mean reads the first ``n_mean`` points, weighted by ``weights``
    #: (None: uniformly).
    n_mean: int
    weights: np.ndarray | None
    #: The points the extremes read.
    extremes: np.ndarray | slice
    #: Estimated fraction of raw rows the restriction keeps.
    fraction: float
    #: True for the closed-form arm (rows spread over an input box).
    integrated: bool
    #: Whether the rows' spread over the points is assumed rather than
    #: counted (a grouped fit read through table-level statistics, several
    #: inputs, uniform weights, an interval midpoint): AVG and SUM then carry
    #: an allowance for it.
    assumed: bool
    detail: str
    #: Each parameter row's live row count where the catalog counts a grouped
    #: fit's one group column (:func:`live_rows`), read with the statement's
    #: statistics; None elsewhere.
    live: np.ndarray | None = None


def restrict(
    model: CapturedModel, stats: TableStats, constraints: WhereConstraints
) -> DomainRestriction | None:
    """The points the kernel evaluates ``model`` at under ``constraints``:
    the enumerated arm when every input has a known or pinned domain, else
    the closed-form arm — except that an ungrouped fit with nothing clipped
    reads its inputs' measured box in closed form first (§4.2's "analytic
    solutions").  None when some input can be neither enumerated nor
    integrated, or a pin is not a number (a type error the exact engine
    raises on).  The live row counts come along, so an answer that reuses
    the restriction does not look them up again."""
    if not model.is_grouped and not constraints.by_column:
        restriction = _integrated(model, stats, constraints) or _enumerated(model, stats, constraints)
    else:
        restriction = _enumerated(model, stats, constraints) or _integrated(model, stats, constraints)
    return None if restriction is None else replace(restriction, live=live_rows(model, stats))


def _enumerated(
    model: CapturedModel, stats: TableStats, constraints: WhereConstraints
) -> DomainRestriction | None:
    """Every model input's enumerable domain, clipped by the query constraints.

    The coverage fraction and per-value weights come from the catalog's
    per-value frequency counts when it has them, so skewed input
    distributions are reflected instead of assumed uniform.
    """
    domains: list[list[float]] = []
    weights: list[list[float]] = []
    fraction = 1.0
    counted = not model.is_grouped and len(model.input_columns) <= 1
    for column in model.input_columns:
        constraint = constraints.constraint(column)
        column_stats = stats.columns.get(column)
        known = list(column_stats.domain) if column_stats is not None and column_stats.domain is not None else None
        # Model inputs are numeric by construction; a non-numeric pin is a
        # type error the exact engine raises on — decline so both paths agree.
        if constraint is not None and constraint.is_pinned and as_floats(constraint.values) is None:
            return None

        if known is not None:
            admitted = known if constraint is None else constraint.restrict_domain(known)
            values = as_floats(admitted)
            if values is None:
                return None
            domains.append(values)
            counts = column_stats.domain_counts
            if counts is not None and len(counts) == len(known):
                count_of = dict(zip(known, counts))
                admitted_counts = [float(count_of.get(v, 0)) for v in admitted]
                total = float(sum(counts))
                fraction *= sum(admitted_counts) / total if total else 0.0
                weights.append(admitted_counts)
            else:
                fraction *= len(admitted) / len(known) if known else 0.0
                weights.append([1.0] * len(admitted))
                counted = False
        elif constraint is not None and constraint.is_pinned:
            pinned = [v for v in constraint.values if constraint.admits(v)]
            domains.append([float(v) for v in pinned])
            weights.append([1.0] * len(pinned))
            counted = False
            if column_stats is not None:
                fraction *= sum(column_stats.selectivity_equals(v) for v in pinned)
            # Without statistics the pinned fraction is unknowable; assume
            # the pins select everything (the error estimate still applies).
        else:
            return None
    if model.input_columns:
        points: Any = _mesh(model.input_columns, domains)
        point_weights = reduce(np.multiply, _mesh(model.input_columns, weights).values())
    else:
        # Input-free models predict a single value per group.
        points, point_weights = np.zeros(1), np.ones(1)
    n_points = point_weights.size
    weighted = bool(n_points) and float(np.sum(point_weights)) > 0.0
    return DomainRestriction(
        points=points,
        n_points=n_points,
        n_mean=n_points,
        weights=point_weights if weighted else None,
        # Extremes are read where rows actually sit.
        extremes=np.flatnonzero(point_weights > 0.0) if weighted else slice(None),
        fraction=fraction,
        integrated=False,
        assumed=not counted,
        detail=f"enumerated {n_points} restricted domain point(s)",
    )


def _integrated(
    model: CapturedModel, stats: TableStats, constraints: WhereConstraints
) -> DomainRestriction | None:
    """The closed-form arm over the clipped input box: a closed-form family,
    min/max statistics for every input, and only numbers pinned."""
    family = model.fit.family
    # ``is_linear`` means linear in the *parameters* (a Polynomial is); the
    # shortcuts need more: corner extremes need monotonicity in each input,
    # the one-point average linearity in the inputs.  Everything else gets
    # the dense interior scan.
    linear_in_inputs = isinstance(family, (Constant, LinearModel))
    monotone = linear_in_inputs or isinstance(family, (Exponential, PowerLaw))
    if not (monotone or family.is_linear):
        return None
    ranges: dict[str, tuple[float, float]] = {}
    point: dict[str, float] = {}
    fraction, empty = 1.0, False
    # Whether the average is read where the rows are *assumed* to sit — a
    # uniform grid, an interval midpoint, a table-level mean for one group —
    # rather than at measured means.
    assumed = model.is_grouped or not linear_in_inputs
    for column in model.input_columns:
        column_stats = stats.columns.get(column)
        if column_stats is None or column_stats.min_value is None or column_stats.max_value is None:
            return None
        constraint = constraints.constraint(column)
        if constraint is not None and constraint.is_pinned and as_floats(constraint.values) is None:
            return None
        low, high = float(column_stats.min_value), float(column_stats.max_value)
        measured = constraint is None and column_stats.mean is not None
        assumed |= not measured
        if constraint is None:
            ranges[column] = (low, high)
            point[column] = float(column_stats.mean) if measured else (low + high) / 2.0
        elif constraint.is_pinned:
            # admits() also applies any interval bounds pinned alongside
            # (e.g. ``x IN (2, 8) AND x < 5`` keeps only 2).
            pinned = [float(v) for v in constraint.values if constraint.admits(v)]
            empty |= not pinned
            ranges[column] = (min(pinned, default=low), max(pinned, default=high))
            point[column] = float(np.mean(pinned)) if pinned else low
            fraction *= sum(column_stats.selectivity_equals(v) for v in pinned)
        else:
            clipped = constraint.clip_interval(low, high)
            empty |= clipped is None
            ranges[column] = clipped or (low, high)
            point[column] = (ranges[column][0] + ranges[column][1]) / 2.0
            fraction *= column_stats.selectivity_range(*ranges[column]) if clipped else 0.0
    columns = model.input_columns
    boxes = [ranges[column] for column in columns]
    mean_points = (
        {column: np.array([point[column]]) for column in columns}
        if linear_in_inputs
        else _mesh(columns, [np.linspace(low, high, 101) for low, high in boxes])
    )
    n_mean = 0 if empty else mean_points[columns[0]].size
    corners = _mesh(columns, boxes) if monotone and not empty else None
    points = {
        column: mean_points[column][:n_mean]
        if corners is None
        else np.concatenate([mean_points[column], corners[column]])
        for column in columns
    }
    ranges_text = ", ".join(f"{name} in [{low:.6g}, {high:.6g}]" for name, (low, high) in ranges.items())
    return DomainRestriction(
        points=points,
        n_points=points[columns[0]].size,
        n_mean=n_mean,
        weights=None,
        extremes=slice(n_mean if monotone else 0, None),
        fraction=fraction,
        integrated=True,
        assumed=assumed,
        detail=f"analytic integration over {ranges_text}",
    )


def _mesh(columns: tuple[str, ...], axes: list) -> dict[str, np.ndarray]:
    """The product of one axis per input column, flattened point by point."""
    grids = [np.asarray(axis, dtype=np.float64) for axis in axes]
    if len(grids) > 1:
        grids = np.meshgrid(*grids, indexing="ij")
    return {column: grid.ravel() for column, grid in zip(columns, grids)}


# ---------------------------------------------------------------------------
# Which parameter rows, standing for how many rows
# ---------------------------------------------------------------------------


def admitted_keys(constraints: WhereConstraints, column: str, values: Column) -> np.ndarray:
    """Which of ``values`` — keys of group column ``column`` — the WHERE
    clause admits, asked once per distinct value."""
    codes, first_rows, _ = dense_key_codes([values], len(values))
    verdicts = [constraints.admits(column, value) for value in values.take(first_rows).to_pylist()]
    return np.array(verdicts, dtype=bool)[codes]


def live_rows(model: CapturedModel, stats: TableStats) -> np.ndarray | None:
    """For a grouped fit keyed by one column whose catalog domain is counted
    — the counts *are* the current group cardinalities, so COUNT/SUM stay
    exact even when appends landed in one group or formed new ones — each
    parameter row's live count, NaN where the catalog no longer holds its
    key.  None for a key of several columns or an uncounted column."""
    if len(model.group_columns) != 1:
        return None
    fit: GroupedFitResult = model.fit  # type: ignore[assignment]
    found = domain_rows(stats, model.group_columns[0], fit.key_columns[0])
    if found is None or found[2] is None:
        return None
    _, rows, counts = found
    live = np.full(fit.num_groups, np.nan)
    live[rows[rows >= 0]] = counts[rows >= 0]
    return live


def combinable_rows(
    model: CapturedModel, stats: TableStats, constraints: WhereConstraints, live: np.ndarray | None
) -> np.ndarray:
    """The parameter rows a statement without ``GROUP BY`` combines.

    The one row of an ungrouped fit; the groups of a grouped fit the WHERE
    clause admits and that still hold rows (``live``, the restriction's
    counts).  Raises
    :class:`~repro.errors.ApproximationError` where the combined answer would
    silently leave rows out: a NULL group key, a group newer than the capture,
    or an admitted group whose fit failed.
    """
    if not model.is_grouped:
        return np.zeros(1, dtype=np.int64)
    for column in model.group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            raise ApproximationError(
                f"group column {column!r} holds NULL keys, which no per-group fit of model "
                f"{model.model_id} covers"
            )
    fit: GroupedFitResult = model.fit  # type: ignore[assignment]
    admitted = np.ones(fit.num_groups, dtype=bool)
    for column, keys in zip(model.group_columns, fit.key_columns):
        if constraints.constrains(column):
            admitted &= admitted_keys(constraints, column, keys)
    if live is not None:
        # A group that no longer holds any rows contributes nothing.
        admitted &= live > 0
        # Every row still holding rows is one populated catalog value, so a
        # surplus of populated values is a group newer than the capture.
        (column,) = model.group_columns
        populated = np.count_nonzero(np.asarray(stats.columns[column].domain_counts) > 0)
        if populated > np.count_nonzero(live > 0):
            values, rows, counts = domain_rows(stats, column, fit.key_columns[0])
            unseen = values.take(np.flatnonzero((rows < 0) & (counts > 0))).to_pylist()
            newer = [value for value in unseen if constraints.admits(column, value)]
            if newer:
                raise ApproximationError(
                    f"group column {column!r} holds values {newer[:5]} that appeared after model "
                    f"{model.model_id} was captured; a combined answer would leave their rows out"
                )
    rows = np.flatnonzero(admitted)
    failed = rows[~fit.succeeded[rows]]
    if failed.size:
        raise ApproximationError(
            f"the per-group fit of model {model.model_id} failed for group(s) "
            f"{[fit.keys[i] for i in failed[:5]]}; a combined answer would leave their rows out"
        )
    return rows


def _parameter_rows(
    model: CapturedModel, stats: TableStats, rows: np.ndarray, live: np.ndarray | None
) -> tuple:
    """Rows ``rows`` of ``model``'s parameter table — ``(params, rse)`` — and
    the one covered-rows rule: the rows each stands for, as ``(counted rows,
    growth scale, staleness allowance)``.

    Live counts where the catalog has them — the table's row count for an
    ungrouped fit, the restriction's per-value counts ``live`` for a grouped
    one.  Elsewhere the fit-time counts, rescaled by a whole-table model's
    growth, with the rows appended since the capture as the worst-case
    allowance (NaN where a partial model's growth is unknowable).
    """
    fit = model.fit
    if not model.is_grouped:
        params = np.asarray(fit.params, dtype=np.float64)[None, :]  # type: ignore[union-attr]
        rse = np.array([fit.residual_standard_error])  # type: ignore[union-attr]
        return params, rse, np.array([float(stats.row_count)]), 1.0, np.zeros(1)
    observations = fit.n_obs[rows].astype(np.float64)  # type: ignore[union-attr]
    whole = model.coverage.covers_whole_table and model.fitted_row_count > 0
    scale: np.ndarray | float = max(stats.row_count, 1) / model.fitted_row_count if whole else 1.0
    stale = np.full(len(rows), abs(float(stats.row_count - model.fitted_row_count)) if whole else np.nan)
    if live is not None:
        counts = live[rows]
        known = ~np.isnan(counts)
        observations = np.where(known, counts, observations)
        scale = np.where(known, 1.0, scale)
        stale[known] = 0.0
    return fit.params[rows], fit.rse[rows], observations, scale, stale  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Evaluation and the error convention
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainEvaluation:
    """``G`` parameter rows evaluated over one restriction: per group, what
    every aggregate is computed from (a single fit is the ``G = 1`` case)."""

    mean: np.ndarray
    low: np.ndarray
    high: np.ndarray
    #: Variance allowance for the rows' spread over the points: ``(span/2)²``
    #: of the predictions where the spread was assumed, 0 where counted.
    spread: np.ndarray
    #: Estimated raw rows the restriction covers, and the standard error of
    #: that estimate (selectivity and staleness allowances).
    covered: np.ndarray
    cardinality_error: np.ndarray
    rse: np.ndarray
    #: Fraction of the aggregated column's rows that are NULL (table-level).
    null_fraction: float
    n_points: int
    #: Rows of the virtual table the evaluation stands in for (0 when integrated).
    virtual_rows: int


def evaluate_over_domains(
    model: CapturedModel, rows: np.ndarray, restriction: DomainRestriction, stats: TableStats
) -> DomainEvaluation:
    """Evaluate parameter rows ``rows`` of ``model`` over ``restriction``.

    The points, the design matrix and the predictions for every group come
    from one ``predict_many`` call, whatever ``G`` is.
    """
    params, rse, observations, scale, stale = _parameter_rows(model, stats, rows, restriction.live)
    n = restriction.n_points
    fraction = restriction.fraction
    covered = np.asarray(observations, dtype=np.float64) * fraction * scale
    if n:
        predictions = np.asarray(model.fit.family.predict_many(restriction.points, params), dtype=np.float64)
        head = predictions[:, : restriction.n_mean]
        weights = restriction.weights
        share = None if weights is None else weights / np.sum(weights)
        mean = np.mean(head, axis=1) if share is None else head @ share
        extremes = predictions[:, restriction.extremes]
        low, high = extremes.min(axis=1), extremes.max(axis=1)
        # Where the rows' spread is assumed, the widest variance any spread
        # of rows over the predictions' span can have (Popoviciu).
        spread = ((high - low) / 2.0) ** 2 if restriction.assumed else np.zeros(len(params))
    else:
        mean = low = high = spread = np.full(len(params), np.nan)
    # Even with frequency-based weights the per-group spread over the domain
    # is taken from table-level statistics: the binomial standard error of
    # selecting ``fraction`` of the rows is the allowance for a group
    # deviating from the global distribution.
    f = min(max(fraction, 0.0), 1.0)
    rows_error = np.zeros_like(covered) if f in (0.0, 1.0) else np.sqrt(covered / f * f * (1.0 - f))
    # A stale partial model's growth is unknowable: a sqrt(n) allowance.
    unknowable = 0.0 if model.status == "active" else np.sqrt(np.maximum(covered, 1.0))
    stale_rows = stale * fraction
    output = stats.columns.get(model.output_column)
    return DomainEvaluation(
        mean=mean,
        low=low,
        high=high,
        spread=spread,
        covered=covered,
        cardinality_error=np.hypot(rows_error, np.where(np.isnan(stale_rows), unknowable, stale_rows)),
        rse=np.asarray(rse, dtype=np.float64),
        null_fraction=min(max(output.null_fraction if output is not None else 0.0, 0.0), 1.0),
        n_points=n,
        virtual_rows=0 if restriction.integrated else n * len(params),
    )


def aggregate_values_errors(
    function: str, evaluation: DomainEvaluation, count_star: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """The weighted aggregate value and its standard error, per group.

    Both come back as length-``G`` vectors (COUNT values as int64); the value
    vector is None where SQL says NULL — any aggregate but COUNT over an
    empty restriction.  The one error convention, with ``n`` covered rows,
    ``m = n·(1 − ν)`` of them non-NULL, ``c`` the cardinality error of ``n``
    and ``c' = hypot(c, √(n·ν·(1 − ν)))``:

    * ``count(*)`` — ``round(n) ± c``; ``count(col)`` — ``round(m) ± c'``;
    * ``avg`` — the mean prediction ``± √((2·rse² + s²) / m)``: fit
      uncertainty plus residual noise, plus — only where the rows' spread
      over the evaluated points was assumed (an interval midpoint, a uniform
      grid, a group read through table-level counts) — ``s² = (span/2)²``,
      the widest variance rows spread over the predictions' span can have;
    * ``sum`` — ``mean · m``, its error the AVG error times ``m`` combined
      with ``mean · c'``;
    * ``min`` / ``max`` — the extreme prediction; the exact extreme over
      ``n`` noisy rows concentrates ``rse·√(2 ln n)`` beyond the model's band.
    """
    covered = np.maximum(evaluation.covered, 0.0)
    null_fraction = evaluation.null_fraction
    non_null = covered * (1.0 - null_fraction)
    rows_error = evaluation.cardinality_error
    if function in ("count", "sum"):
        counted_error = np.hypot(rows_error, np.sqrt(covered * null_fraction * (1.0 - null_fraction)))
    if function == "count":
        if count_star:
            return np.rint(covered).astype(np.int64), rows_error
        return np.rint(non_null).astype(np.int64), counted_error
    if evaluation.n_points == 0:
        return None, np.zeros_like(covered)
    rse, mean = evaluation.rse, evaluation.mean
    avg_error = np.sqrt((2.0 * rse * rse + evaluation.spread) / np.maximum(non_null, 1.0))
    if function == "avg":
        return mean, avg_error
    if function == "sum":
        return mean * non_null, np.hypot(avg_error * non_null, mean * counted_error)
    if function in ("min", "max"):
        extreme = evaluation.low if function == "min" else evaluation.high
        return extreme, extreme_value_error(rse, covered)
    raise ValueError(f"unsupported route aggregate {function!r}")


def aggregate_groups(
    specs: list[ItemSpec],
    model: CapturedModel,
    rows: np.ndarray,
    restriction: DomainRestriction,
    stats: TableStats,
) -> tuple[dict[str, Any], dict[str, np.ndarray], DomainEvaluation]:
    """The kernel: every aggregate of ``specs`` for each of ``model``'s
    parameter rows ``rows`` under ``restriction`` — values and standard
    errors by result column (see :func:`aggregate_values_errors`), and the
    evaluation they were computed from."""
    evaluation = evaluate_over_domains(model, rows, restriction, stats)
    values: dict[str, Any] = {}
    errors: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.kind == "aggregate":
            values[spec.name], errors[spec.name] = aggregate_values_errors(
                spec.function, evaluation, count_star=spec.argument is None
            )
    return values, errors, evaluation


def aggregate_statement(
    specs: list[ItemSpec],
    model: CapturedModel,
    rows: np.ndarray,
    restriction: DomainRestriction,
    stats: TableStats,
) -> tuple[dict[str, Any], dict[str, float], int, str]:
    """A statement without ``GROUP BY``: every aggregate of ``specs`` over the
    parameter rows ``rows``, reduced across them — sums add, averages weigh
    each group by its covered rows, extremes take the extreme group.

    Returns values and standard errors by result column, the virtual rows
    the evaluation stands in for, and a description for the reason.
    """
    per_group_values, per_group_errors, evaluation = (
        aggregate_groups(specs, model, rows, restriction, stats) if len(rows) else ({}, {}, None)
    )
    total = float(np.sum(evaluation.covered)) if evaluation is not None else 0.0
    if evaluation is None or evaluation.n_points == 0 or not total > 0.0:
        # SQL semantics of a global aggregate over zero rows: COUNT 0, rest NULL.
        values = {spec.name: (0 if spec.function == "count" else None) for spec in specs}
        return values, dict.fromkeys(values, 0.0), 0, "restriction covers no rows"
    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        function = spec.function
        per_group, per_group_error = per_group_values[spec.name], per_group_errors[spec.name]
        if function in ("count", "sum"):
            values[spec.name] = (int if function == "count" else float)(np.sum(per_group))
            errors[spec.name] = combine_independent(per_group_error)
        elif function == "avg":
            weights = evaluation.covered / total
            value = float(weights @ per_group)
            # A group's share of the rows is an estimate too: its error moves
            # the average by the group's distance from it.
            shares = (per_group - value) * evaluation.cardinality_error / total
            values[spec.name] = value
            errors[spec.name] = float(
                np.hypot(combine_independent(weights * per_group_error), combine_independent(shares))
            )
        else:  # min / max (ROUTE_AGGREGATES)
            index = int(np.argmin(per_group) if function == "min" else np.argmax(per_group))
            values[spec.name] = float(per_group[index])
            errors[spec.name] = float(extreme_value_error(evaluation.rse[index], total))
    if model.is_grouped:
        return values, errors, evaluation.virtual_rows, f"combined {len(rows)} group(s) over restricted domain"
    return values, errors, evaluation.virtual_rows, restriction.detail


def build_result_table(specs: list[ItemSpec], data: dict[str, "list[Any] | Column"]) -> Table:
    """Assemble the route's result table in SELECT order.

    A result column arrives either ready-made (a :class:`Column`) or as the
    plain values of an aggregate: COUNT then is INT64, anything else FLOAT64.
    Shared by the grouped and aggregate routes so schema assembly has a
    single implementation.
    """
    columns: dict[str, Column] = {}
    for spec in specs:
        values = data[spec.name]
        if not isinstance(values, Column):
            dtype = DataType.INT64 if spec.function == "count" else DataType.FLOAT64
            values = Column.from_values(dtype, values)
        columns[spec.name] = values
    return Table("approximate", Schema(ColumnDef(name, c.dtype) for name, c in columns.items()), columns)
