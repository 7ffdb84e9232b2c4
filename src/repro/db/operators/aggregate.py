"""Group-by / aggregate operator.

Supports the aggregate functions the paper's queries and the TPC-DS-lite
benchmark need: COUNT, COUNT(*), SUM, AVG, MIN, MAX, STDDEV and VAR.

Grouping is vectorised: the key columns are factorised into dense integer
group codes (NULL-aware — NULL keys form their own group, as the hash-based
implementation always did), and every aggregate is computed per group with
``np.bincount`` / sorted-segment reductions instead of a per-row python
loop.  Groups are emitted in first-occurrence order, matching the original
dict-based implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.db.column import Column
from repro.db.expressions import ColumnRef, Expression
from repro.db.operators.base import Operator
from repro.db.operators.codes import argsort_codes, factorize_keys
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError

__all__ = ["AggregateSpec", "Aggregate", "SUPPORTED_AGGREGATES", "compute_aggregate"]

SUPPORTED_AGGREGATES = {"count", "sum", "avg", "min", "max", "stddev", "var"}


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: function, input expression (None for COUNT(*)), alias."""

    function: str
    expression: Expression | None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.function.lower() not in SUPPORTED_AGGREGATES:
            raise ExecutionError(
                f"unsupported aggregate function {self.function!r}; "
                f"supported: {sorted(SUPPORTED_AGGREGATES)}"
            )

    @property
    def name(self) -> str:
        if self.alias is not None:
            return self.alias
        arg = "*" if self.expression is None else self.expression.output_name()
        return f"{self.function.lower()}({arg})"

    @property
    def output_dtype(self) -> DataType:
        if self.function.lower() == "count":
            return DataType.INT64
        return DataType.FLOAT64


def compute_aggregate(function: str, values: np.ndarray) -> Any:
    """Compute a single aggregate over non-NULL float values."""
    function = function.lower()
    if function == "count":
        return int(len(values))
    if len(values) == 0:
        return None
    if function == "sum":
        return float(np.sum(values))
    if function == "avg":
        return float(np.mean(values))
    if function == "min":
        return float(np.min(values))
    if function == "max":
        return float(np.max(values))
    if function == "stddev":
        return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    if function == "var":
        return float(np.var(values, ddof=1)) if len(values) > 1 else 0.0
    raise ExecutionError(f"unsupported aggregate function {function!r}")


class _GroupContext:
    """Per-aggregation shared state: group ids and the lazy row order."""

    __slots__ = ("group_ids", "num_groups", "_row_order")

    def __init__(self, group_ids: np.ndarray, num_groups: int) -> None:
        self.group_ids = group_ids
        self.num_groups = num_groups
        self._row_order: np.ndarray | None = None

    @property
    def row_order(self) -> np.ndarray:
        """Stable row permutation clustering rows by group (computed once)."""
        if self._row_order is None:
            self._row_order = argsort_codes(self.group_ids, self.num_groups)
        return self._row_order


class _InputState:
    """Lazy per-input-column reductions shared by every aggregate over it."""

    __slots__ = ("column", "context", "_valid", "_ids", "_counts", "_vals", "_sums", "_sorted_vals")

    def __init__(self, column: Column, context: _GroupContext) -> None:
        self.column = column
        self.context = context
        self._valid: np.ndarray | None = None
        self._ids: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._vals: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._sorted_vals: np.ndarray | None = None

    @property
    def valid(self) -> np.ndarray:
        if self._valid is None:
            self._valid = self.column.validity
        return self._valid

    @property
    def ids(self) -> np.ndarray:
        """Group id of every non-NULL row of this input."""
        if self._ids is None:
            self._ids = self.context.group_ids[self.valid]
        return self._ids

    @property
    def counts(self) -> np.ndarray:
        """Non-NULL row count per group."""
        if self._counts is None:
            self._counts = np.bincount(self.ids, minlength=self.context.num_groups).astype(np.int64)
        return self._counts

    @property
    def vals(self) -> np.ndarray:
        """Non-NULL values as float64, aligned with :attr:`ids`."""
        if self._vals is None:
            self._vals = self.column.values[self.valid].astype(np.float64)
        return self._vals

    @property
    def sums(self) -> np.ndarray:
        """Per-group sum of non-NULL values."""
        if self._sums is None:
            self._sums = np.bincount(self.ids, weights=self.vals, minlength=self.context.num_groups)
        return self._sums

    @property
    def sorted_vals(self) -> np.ndarray:
        """Non-NULL values clustered by group (for segment MIN/MAX)."""
        if self._sorted_vals is None:
            row_order = self.context.row_order
            valid_sorted = self.valid[row_order]
            self._sorted_vals = self.column.values[row_order][valid_sorted].astype(np.float64)
        return self._sorted_vals


class Aggregate(Operator):
    """Hash aggregation with optional grouping keys."""

    def __init__(
        self,
        child: Operator,
        group_by: list[Expression],
        aggregates: list[AggregateSpec],
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(str(e) for e in self.group_by)
        aggs = ", ".join(a.name for a in self.aggregates)
        return f"Aggregate(group_by=[{keys}], aggregates=[{aggs}])"

    def apply(self, table: Table) -> Table:
        key_columns = [expr.evaluate(table) for expr in self.group_by]
        agg_inputs: list[Column | None] = []
        for spec in self.aggregates:
            if spec.expression is None:
                agg_inputs.append(None)
            else:
                agg_inputs.append(spec.expression.evaluate(table))

        if not self.group_by:
            return self._global_aggregate(table, agg_inputs)
        return self._grouped_aggregate(table, key_columns, agg_inputs)

    # -- helpers -----------------------------------------------------------------

    def output_schema(self, input_schema: Schema) -> Schema:
        """The result schema, with group keys keeping their real dtypes.

        Key dtypes are resolved by probing each key expression against an
        empty table with ``input_schema``, so computed keys (``year + 1``)
        get exactly the dtype execution will produce.
        """
        probe = Table("_schema_probe", input_schema)
        defs = []
        for expr in self.group_by:
            name = expr.name if isinstance(expr, ColumnRef) else expr.output_name()
            defs.append(ColumnDef(name, expr.evaluate(probe).dtype))
        for spec in self.aggregates:
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        return Schema(defs)

    def _global_aggregate(self, table: Table, agg_inputs: list[Column | None]) -> Table:
        values: dict[str, list[Any]] = {}
        defs: list[ColumnDef] = []
        for spec, column in zip(self.aggregates, agg_inputs):
            result = self._aggregate_one(spec, column, table.num_rows)
            values[spec.name] = [result]
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        columns = {
            name: Column.from_values(next(d.dtype for d in defs if d.name == name), vals)
            for name, vals in values.items()
        }
        return Table("aggregate", Schema(defs), columns)

    def _grouped_aggregate(
        self, table: Table, key_columns: list[Column], agg_inputs: list[Column | None]
    ) -> Table:
        num_rows = table.num_rows
        group_ids, first_rows, num_groups = factorize_keys(key_columns, num_rows)

        key_names = []
        for expr in self.group_by:
            key_names.append(expr.name if isinstance(expr, ColumnRef) else expr.output_name())

        defs = []
        columns = {}
        for name, key_column in zip(key_names, key_columns):
            # One representative row per group carries the key value (and its
            # NULL-ness) into the output with the original dtype.
            columns[name] = key_column.take(first_rows)
            defs.append(ColumnDef(name, key_column.dtype))

        counts_star = np.bincount(group_ids, minlength=num_groups).astype(np.int64)
        # Per-input shared state: aggregates over the same column reuse one
        # validity split, one per-group count and one per-group sum, and all
        # MIN/MAX aggregates share a single group-clustered row order.
        context = _GroupContext(group_ids, num_groups)
        states: dict[int, _InputState] = {}
        for spec, column in zip(self.aggregates, agg_inputs):
            state = None
            if column is not None:
                state = states.get(id(column))
                if state is None:
                    state = _InputState(column, context)
                    states[id(column)] = state
            columns[spec.name] = self._grouped_one(spec, state, counts_star, num_groups)
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        return Table("aggregate", Schema(defs), columns)

    @staticmethod
    def _grouped_one(
        spec: AggregateSpec,
        state: "_InputState | None",
        counts_star: np.ndarray,
        num_groups: int,
    ) -> Column:
        """Compute one aggregate for every group via segment reductions."""
        function = spec.function.lower()
        if state is None:
            if function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
            return Column(DataType.INT64, counts_star.copy())
        if num_groups == 0:
            return Column.empty(spec.output_dtype)
        if function != "count" and not state.column.dtype.is_numeric:
            raise ExecutionError(f"aggregate {function!r} requires a numeric argument")

        # NULL handling matches the row-at-a-time path: aggregates consume
        # the validity-masked values of the input column.
        counts = state.counts
        if function == "count":
            return Column(DataType.INT64, counts.copy())

        nonempty = counts > 0
        out = np.full(num_groups, np.nan, dtype=np.float64)

        if function == "sum":
            out[nonempty] = state.sums[nonempty]
        elif function == "avg":
            out[nonempty] = state.sums[nonempty] / counts[nonempty]
        elif function in ("stddev", "var"):
            means = np.zeros(num_groups, dtype=np.float64)
            means[nonempty] = state.sums[nonempty] / counts[nonempty]
            deviations = state.vals - means[state.ids]
            ssq = np.bincount(state.ids, weights=deviations * deviations, minlength=num_groups)
            multi = counts > 1
            out[multi] = ssq[multi] / (counts[multi] - 1)
            out[counts == 1] = 0.0
            if function == "stddev":
                out[multi] = np.sqrt(out[multi])
        elif function in ("min", "max"):
            starts = np.zeros(num_groups, dtype=np.int64)
            starts[1:] = np.cumsum(counts)[:-1]
            reducer = np.minimum if function == "min" else np.maximum
            if nonempty.any():
                out[nonempty] = reducer.reduceat(state.sorted_vals, starts[nonempty])
        else:  # pragma: no cover - SUPPORTED_AGGREGATES guards this
            raise ExecutionError(f"unsupported aggregate function {function!r}")

        # An all-NULL group yields NULL; a NaN produced from genuine values
        # keeps validity True, exactly like the old per-group
        # ``float(np.sum([...nan...]))`` path.
        out[~nonempty] = np.nan
        return Column(DataType.FLOAT64, out, nonempty.copy())

    @staticmethod
    def _aggregate_one(spec: AggregateSpec, column: Column | None, group_size: int) -> Any:
        function = spec.function.lower()
        if column is None:
            if function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
            return group_size
        if function == "count":
            return group_size - column.null_count
        if not column.dtype.is_numeric:
            raise ExecutionError(f"aggregate {function!r} requires a numeric argument")
        return compute_aggregate(function, column.nonnull_numpy().astype(np.float64))
