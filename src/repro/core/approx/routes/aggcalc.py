"""Shared aggregate evaluation for the grouped and range routes.

Both routes answer ``agg(output_column)`` by evaluating a captured model
over a *restricted* input domain — the catalog's enumerable domain clipped
by the query's value/range constraints — and weighting by the number of raw
rows the restriction is estimated to cover.  This module holds the SELECT
list analysis, the domain restriction, and the value/error computation that
the two routes share.

Row weighting is what makes SUM/COUNT track exact semantics: the virtual
table has one row per enumerated input combination, but the raw table holds
many observations per combination.  A group fitted on ``n`` observations
with a restriction keeping a fraction ``f`` of the input domain covers about
``n * f * growth`` raw rows, where ``growth`` rescales fit-time cardinality
to the table's current row count (so answers stay honest while streaming
appends have marked the model stale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.approx.error_bounds import aggregate_error, extreme_value_error
from repro.db.constraints import WhereConstraints, bare_name as _bare
from repro.core.captured_model import CapturedModel
from repro.db.column import Column
from repro.db.expressions import ColumnRef, FunctionCall
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.ast import SelectStatement, Star
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import DataType
from repro.fitting.model import ModelFamily

__all__ = [
    "ROUTE_AGGREGATES",
    "ItemSpec",
    "analyse_select_items",
    "as_floats",
    "pin_facts",
    "DomainRestriction",
    "restricted_domains",
    "current_group_rows",
    "growth_scale",
    "staleness_rows",
    "build_result_table",
    "DomainEvaluation",
    "evaluate_over_domains",
    "aggregate_values_errors",
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


@dataclass
class DomainRestriction:
    """The query-admitted slice of a model's input domain, with frequencies."""

    #: input column -> admitted values (the points to evaluate the model at)
    domains: dict[str, list[float]]
    #: Estimated fraction of raw rows the restriction keeps.
    fraction: float
    #: input column -> relative row weight per admitted value (frequency
    #: counts from the catalog when available, else uniform).
    weights: dict[str, list[float]]


def restricted_domains(
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
) -> DomainRestriction | None:
    """Clip every model input's enumerable domain by the query constraints.

    The coverage fraction and per-value weights come from the catalog's
    per-value frequency counts when it has them, so skewed input
    distributions are reflected instead of assumed uniform.  Returns None
    when some input has no known domain and is not pinned, in which case the
    caller falls back to analytic integration or enumeration.
    """
    domains: dict[str, list[float]] = {}
    weights: dict[str, list[float]] = {}
    fraction = 1.0
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
            domains[column] = values
            counts = column_stats.domain_counts
            if counts is not None and len(counts) == len(known):
                count_of = dict(zip(known, counts))
                admitted_counts = [float(count_of.get(v, 0)) for v in admitted]
                total = float(sum(counts))
                fraction *= sum(admitted_counts) / total if total else 0.0
                weights[column] = admitted_counts
            else:
                fraction *= len(admitted) / len(known) if known else 0.0
                weights[column] = [1.0] * len(admitted)
        elif constraint is not None and constraint.is_pinned:
            pinned = [v for v in constraint.values if constraint.admits(v)]
            domains[column] = [float(v) for v in pinned]
            weights[column] = [1.0] * len(pinned)
            if column_stats is not None:
                fraction *= sum(column_stats.selectivity_equals(v) for v in pinned)
            # Without statistics the pinned fraction is unknowable; assume
            # the pins select everything (the error estimate still applies).
        else:
            return None
    return DomainRestriction(domains=domains, fraction=fraction, weights=weights)


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


def growth_scale(model: CapturedModel, stats: TableStats) -> float:
    """Rescale fit-time group cardinalities to the table's current size.

    Streaming appends grow the table between captures; a whole-table model's
    per-group observation counts are scaled by the table growth so COUNT and
    SUM stay calibrated while the model is merely stale.  Partial (segment)
    models cover an unknown share of the table, so their counts are kept
    as fitted.
    """
    if not model.coverage.covers_whole_table or model.fitted_row_count <= 0:
        return 1.0
    return max(stats.row_count, 1) / model.fitted_row_count


def current_group_rows(
    stats: TableStats, group_columns: tuple[str, ...]
) -> dict[Any, int] | None:
    """Live row counts per group *value*, from the catalog statistics.

    For a single enumerable group column the catalog's per-value frequency
    counts *are* the current group cardinalities — no growth heuristics
    needed, COUNT/SUM stay exact even when streaming appends landed in just
    one group or formed brand-new groups.  Keyed by the column's bare value
    (``key[0]`` of a group key).  None when the group key is multi-column or
    the column has no materialised domain.
    """
    if len(group_columns) != 1:
        return None
    column_stats = stats.columns.get(group_columns[0])
    if column_stats is None or column_stats.domain is None or column_stats.domain_counts is None:
        return None
    return dict(zip(column_stats.domain, column_stats.domain_counts))


def staleness_rows(model: CapturedModel, stats: TableStats) -> float | None:
    """Rows appended since the model's capture (whole-table models).

    The growth rescaling assumes appends are spread proportionally over the
    groups; in the worst case all of them landed in (or missed) the one
    group being served, so this delta is the honest cardinality allowance
    for stale COUNT/SUM answers.  None for partial (segment) models, whose
    coverage growth is unknowable from table-level statistics.
    """
    if not model.coverage.covers_whole_table or model.fitted_row_count <= 0:
        return None
    return abs(float(stats.row_count - model.fitted_row_count))


@dataclass
class DomainEvaluation:
    """``G`` fits evaluated over one restricted input domain, with row weighting.

    The grid, its point weights and the restriction are shared by every
    group; what differs per group — predictions, covered rows, residual
    standard error — is a vector (or a matrix row) of length ``G``.  A single
    fit is the ``G = 1`` case.
    """

    #: ``(G, n_points)`` predictions over the restricted domain product.
    predictions: np.ndarray
    #: Relative row weight per domain point (frequency-based, may be uniform).
    point_weights: np.ndarray
    #: Estimated raw rows the restriction covers, per group.
    covered_rows: np.ndarray
    #: Fraction of the input domain the restriction keeps (1.0 = all rows).
    fraction: float
    residual_standard_error: np.ndarray
    #: False when the serving model is stale (extra cardinality uncertainty).
    active: bool
    #: Worst-case cardinality drift from table growth since capture, per group
    #: and already scaled to this restriction: zero where the cardinality came
    #: from live statistics, NaN where unknowable (partial models).
    stale_rows: np.ndarray
    #: Fraction of the aggregated column's rows that are NULL (table-level).
    output_null_fraction: float = 0.0

    @property
    def n_points(self) -> int:
        """Domain points each group was evaluated at (0: empty restriction)."""
        return self.predictions.shape[1]

    @property
    def _weighted(self) -> bool:
        return bool(self.point_weights.size) and float(np.sum(self.point_weights)) > 0.0

    @property
    def mean_prediction(self) -> np.ndarray:
        """Frequency-weighted mean prediction over the restricted domain."""
        if self._weighted:
            return self.predictions @ (self.point_weights / np.sum(self.point_weights))
        return np.mean(self.predictions, axis=1)

    @property
    def occupied_predictions(self) -> np.ndarray:
        """Predictions at domain points that actually hold rows (for extremes)."""
        if self._weighted:
            occupied = self.point_weights > 0.0
            if occupied.any():
                return self.predictions[:, occupied]
        return self.predictions

    @property
    def covered_rows_error(self) -> np.ndarray:
        """Binomial allowance for the covered-row estimate.

        Even with frequency-based weights, the per-group distribution over
        the domain is taken from table-level statistics; the binomial
        standard error of selecting ``fraction`` of the fitted rows is the
        allowance for a group deviating from the global distribution.
        """
        f = min(max(self.fraction, 0.0), 1.0)
        if f in (0.0, 1.0):
            return np.zeros_like(self.covered_rows)
        return np.sqrt(self.covered_rows / f * f * (1.0 - f))


def evaluate_over_domains(
    family: ModelFamily,
    params: np.ndarray,
    residual_standard_error: np.ndarray,
    model: CapturedModel,
    restriction: DomainRestriction,
    fitted_observations: np.ndarray,
    stale_rows: np.ndarray,
    scale: np.ndarray | float = 1.0,
    output_null_fraction: float = 0.0,
) -> DomainEvaluation:
    """Evaluate ``G`` fits of one family over the restricted domain product.

    ``params`` is the ``(G, P)`` parameter matrix and every other per-group
    argument a length-``G`` vector.  The grid, the point weights and the
    design matrix are built once, whatever ``G`` is.  ``stale_rows`` is the
    per-group table-growth allowance from :func:`staleness_rows` (zero where
    cardinalities come from live statistics; NaN when unknowable).
    ``output_null_fraction`` is the aggregated column's NULL share, used to
    shrink COUNT(col)/SUM toward the rows exact SQL would actually count.
    """
    input_columns = model.input_columns
    if input_columns:
        axes = np.meshgrid(
            *[np.asarray(restriction.domains[name], dtype=np.float64) for name in input_columns],
            indexing="ij",
        )
        inputs: Any = {name: axis.ravel() for name, axis in zip(input_columns, axes)}
        weight_axes = np.meshgrid(
            *[np.asarray(restriction.weights[name], dtype=np.float64) for name in input_columns],
            indexing="ij",
        )
        point_weights = np.prod(weight_axes, axis=0).ravel()
    else:
        # Input-free models predict a single value per group.
        inputs = np.zeros(1)
        point_weights = np.ones(1)
    if point_weights.size:
        predictions = np.asarray(family.predict_many(inputs, params), dtype=np.float64)
    else:
        predictions = np.empty((len(params), 0))
    fraction = restriction.fraction
    return DomainEvaluation(
        predictions=predictions,
        point_weights=point_weights,
        covered_rows=np.asarray(fitted_observations, dtype=np.float64) * fraction * scale,
        fraction=fraction,
        residual_standard_error=np.asarray(residual_standard_error, dtype=np.float64),
        active=model.status == "active",
        stale_rows=stale_rows * fraction,
        output_null_fraction=output_null_fraction,
    )


def aggregate_values_errors(
    function: str, evaluation: DomainEvaluation, count_star: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """The weighted aggregate value and its standard error, per group.

    Both come back as length-``G`` vectors (COUNT values as int64); the value
    vector is None where SQL says NULL — any aggregate but COUNT over an
    empty restriction.

    * ``count`` — the estimated covered row count; exact for a fresh model
      over an unrestricted domain, carrying the binomial selectivity
      allowance when restricted (plus a ``sqrt(n)`` allowance when stale);
    * ``sum`` — mean prediction × covered rows; the error combines the raw
      rows' residual noise and fit uncertainty (``rse * sqrt(2n)``) with the
      cardinality uncertainty of the covered-row estimate;
    * ``avg`` — mean prediction over the restricted domain;
    * ``min`` / ``max`` — domain extremes; the exact extreme over ``n`` noisy
      rows concentrates ``rse * sqrt(2 ln n)`` beyond the model's band.
    """
    function = function.lower()
    covered = np.maximum(evaluation.covered_rows, 0.0)
    rse = evaluation.residual_standard_error
    rows_error = evaluation.covered_rows_error
    # Partial stale model: coverage growth unknowable, sqrt(n) fallback.
    unknowable = 0.0 if evaluation.active else np.sqrt(np.maximum(covered, 1.0))
    stale_rows = evaluation.stale_rows
    cardinality_error = np.hypot(
        rows_error, np.where(np.isnan(stale_rows), unknowable, stale_rows)
    )

    # Exact COUNT(col)/SUM/AVG skip NULLs; shrink by the (table-level) null
    # fraction and carry the binomial allowance for its per-group spread.
    # COUNT(*) counts every row, NULL output or not.
    null_fraction = min(max(evaluation.output_null_fraction, 0.0), 1.0)
    non_null = covered * (1.0 - null_fraction)
    null_error = np.sqrt(covered * null_fraction * (1.0 - null_fraction))

    if function == "count":
        if count_star:
            return np.rint(covered).astype(np.int64), cardinality_error
        return np.rint(non_null).astype(np.int64), np.hypot(cardinality_error, null_error)
    if evaluation.n_points == 0:
        return None, np.zeros_like(covered)
    if function == "sum":
        mean = evaluation.mean_prediction
        noise = rse * np.sqrt(2.0 * np.maximum(non_null, 1.0))
        return mean * non_null, np.hypot(noise, mean * np.hypot(cardinality_error, null_error))
    if function == "avg":
        return evaluation.mean_prediction, aggregate_error("avg", rse, evaluation.n_points)
    if function in ("min", "max"):
        extreme = np.min if function == "min" else np.max
        return extreme(evaluation.occupied_predictions, axis=1), extreme_value_error(rse, covered)
    raise ValueError(f"unsupported route aggregate {function!r}")


def build_result_table(specs: list[ItemSpec], data: dict[str, "list[Any] | Column"]) -> Table:
    """Assemble the route's result table in SELECT order.

    A result column arrives either ready-made (a :class:`Column`) or as plain
    values: then group columns infer their dtype from the key values, COUNT
    aggregates are integers, everything else is float.  Shared by the grouped
    and range routes so schema assembly has a single implementation.
    """
    defs: list[ColumnDef] = []
    columns: dict[str, Column] = {}
    for spec in specs:
        values = data[spec.name]
        if isinstance(values, Column):
            defs.append(ColumnDef(spec.name, values.dtype))
            columns[spec.name] = values
            continue
        if spec.kind == "group":
            non_null = [v for v in values if v is not None]
            dtype = DataType.infer_common(non_null) if non_null else DataType.INT64
        elif spec.function == "count":
            dtype = DataType.INT64
        else:
            dtype = DataType.FLOAT64
        defs.append(ColumnDef(spec.name, dtype))
        columns[spec.name] = Column.from_values(dtype, values)
    return Table("approximate", Schema(defs), columns)
