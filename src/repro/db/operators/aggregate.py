"""Group-by / aggregate operator.

Supports the aggregate functions the paper's queries and the TPC-DS-lite
benchmark need: COUNT, COUNT(*), SUM, AVG, MIN, MAX, STDDEV and VAR.

Grouping is vectorised: the key columns are factorised into dense integer
group codes (NULL-aware — NULL keys form their own group, as the hash-based
implementation always did), and every aggregate is computed per group with
``np.bincount`` / ``ufunc.at`` scatter reductions instead of a per-row python
loop — no sort of the rows anywhere.  Groups are emitted in first-occurrence
order, matching the original dict-based implementation; that order is applied
to the per-group results, not to the rows.

A global aggregate over a scan that answered blocks from their synopses
(:class:`~repro.db.operators.scan.ScannedRows`) reduces the rows read and
folds the answered ones in (:meth:`SynopsisAnswer.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.db.column import Column
from repro.db.expressions import ColumnRef, Expression
from repro.db.operators.base import Operator
from repro.db.operators.codes import dense_key_codes
from repro.db.operators.scan import ScannedRows, SynopsisAnswer
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.lazy import lazy_attribute

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
    """Per-aggregation shared state: the rows' group codes and the group order.

    ``group_ids`` are :func:`dense_key_codes`' codes (numbered by key rank).
    Every per-group reduction is computed by code; ``order`` lists the codes
    by first occurrence, so a result is emitted as ``reduction[order]`` — a
    gather of ``num_groups`` results, not a renumbering of the input rows.
    """

    __slots__ = ("group_ids", "num_groups", "order", "first_rows", "counts")

    def __init__(self, key_columns: list[Column], num_rows: int) -> None:
        self.group_ids, first_rows, self.num_groups = dense_key_codes(key_columns, num_rows)
        self.order = np.argsort(first_rows, kind="stable")
        #: One representative row per group, in output order.
        self.first_rows = first_rows[self.order]
        #: Rows per group code — ``COUNT(*)``, and the non-NULL count of every
        #: input that has no NULL.
        self.counts = np.bincount(self.group_ids, minlength=self.num_groups).astype(np.int64)


class _InputState:
    """Lazy per-input-column reductions shared by every aggregate over it.

    All per-group arrays are indexed by group *code* (see
    :class:`_GroupContext`).  An input without NULLs (``valid is None``) is
    reduced as it stands: no row is dropped, so nothing is gathered.
    """

    def __init__(self, column: Column, context: _GroupContext) -> None:
        self.column = column
        self.context = context
        validity = column.validity
        self.valid: np.ndarray | None = None if validity.all() else validity

    @lazy_attribute
    def ids(self) -> np.ndarray:
        """Group code of every non-NULL row of this input."""
        ids = self.context.group_ids
        return ids if self.valid is None else ids[self.valid]

    @lazy_attribute
    def vals(self) -> np.ndarray:
        """Non-NULL values as float64, aligned with :attr:`ids`."""
        values = self.column.stored
        if self.valid is None:
            return values.astype(np.float64, copy=False)
        return values[self.valid].astype(np.float64)

    @lazy_attribute
    def counts(self) -> np.ndarray:
        """Non-NULL row count per group."""
        if self.valid is None:
            return self.context.counts
        return np.bincount(self.ids, minlength=self.context.num_groups).astype(np.int64)

    @lazy_attribute
    def sums(self) -> np.ndarray:
        """Per-group sum of non-NULL values."""
        return np.bincount(self.ids, weights=self.vals, minlength=self.context.num_groups)

    @lazy_attribute
    def m2(self) -> np.ndarray:
        """Per-group sum of squared deviations about the group's mean."""
        means = self.sums / np.maximum(self.counts, 1)
        deviations = self.vals - means[self.ids]
        return np.bincount(self.ids, weights=deviations * deviations, minlength=self.context.num_groups)

    @lazy_attribute
    def mins(self) -> np.ndarray:
        """Per-group minimum of non-NULL values (+inf for a group without one)."""
        return self._scatter(np.minimum, np.inf)

    @lazy_attribute
    def maxs(self) -> np.ndarray:
        """Per-group maximum of non-NULL values (-inf for a group without one)."""
        return self._scatter(np.maximum, -np.inf)

    def _scatter(self, reducer: np.ufunc, identity: float) -> np.ndarray:
        out = np.full(self.context.num_groups, identity, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # a NaN value makes its group NaN, quietly
            reducer.at(out, self.ids, self.vals)
        return out


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
            answer = table.answer if isinstance(table, ScannedRows) else None
            return self._global_aggregate(table, agg_inputs, answer)
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

    def _global_aggregate(
        self, table: Table, agg_inputs: list[Column | None], answer: SynopsisAnswer | None
    ) -> Table:
        """One row of aggregates over ``table``, with the rows its scan
        answered from block synopses folded in (``answer``)."""
        values: dict[str, list[Any]] = {}
        defs: list[ColumnDef] = []
        for spec, column in zip(self.aggregates, agg_inputs):
            result = self._aggregate_one(spec, column, table.num_rows)
            if answer is not None:
                name = spec.expression.name if isinstance(spec.expression, ColumnRef) else None
                result = answer.fold(spec.function.lower(), name, result)
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
        context = _GroupContext(key_columns, table.num_rows)

        key_names = [e.name if isinstance(e, ColumnRef) else e.output_name() for e in self.group_by]
        defs = []
        columns = {}
        for name, key_column in zip(key_names, key_columns):
            # One representative row per group carries the key value (and its
            # NULL-ness) into the output with the original dtype.
            columns[name] = key_column.take(context.first_rows)
            defs.append(ColumnDef(name, key_column.dtype))

        counts_star = context.counts[context.order]
        # Per-input shared state: aggregates over the same column reuse one
        # validity split, one per-group count, sum, minimum and maximum.
        states: dict[int, _InputState] = {}
        for spec, column in zip(self.aggregates, agg_inputs):
            state = None
            if column is not None:
                state = states.get(id(column))
                if state is None:
                    state = _InputState(column, context)
                    states[id(column)] = state
            columns[spec.name] = self._grouped_one(spec, state, counts_star)
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        return Table("aggregate", Schema(defs), columns)

    @staticmethod
    def _grouped_one(
        spec: AggregateSpec, state: "_InputState | None", counts_star: np.ndarray
    ) -> Column:
        """Compute one aggregate for every group, in output (first-occurrence) order."""
        function = spec.function.lower()
        if state is None:
            if function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
            return Column(DataType.INT64, counts_star.copy())
        num_groups = state.context.num_groups
        if num_groups == 0:
            return Column.empty(spec.output_dtype)
        if function != "count" and not state.column.dtype.is_numeric:
            raise ExecutionError(f"aggregate {function!r} requires a numeric argument")

        # NULL handling matches the row-at-a-time path: aggregates consume
        # the validity-masked values of the input column.
        order = state.context.order
        counts = state.counts
        if function == "count":
            return Column(DataType.INT64, counts[order])

        nonempty = counts > 0
        out = np.full(num_groups, np.nan, dtype=np.float64)

        if function == "sum":
            out[nonempty] = state.sums[nonempty]
        elif function == "avg":
            out[nonempty] = state.sums[nonempty] / counts[nonempty]
        elif function in ("stddev", "var"):
            multi = counts > 1
            out[multi] = state.m2[multi] / (counts[multi] - 1)
            out[counts == 1] = 0.0
            if function == "stddev":
                out[multi] = np.sqrt(out[multi])
        elif function in ("min", "max"):
            extremes = state.mins if function == "min" else state.maxs
            out[nonempty] = extremes[nonempty]
        else:  # pragma: no cover - SUPPORTED_AGGREGATES guards this
            raise ExecutionError(f"unsupported aggregate function {function!r}")

        # An all-NULL group yields NULL (``out`` keeps its NaN there); a NaN
        # produced from genuine values keeps validity True, exactly like the
        # old per-group ``float(np.sum([...nan...]))`` path.
        return Column(DataType.FLOAT64, out[order], nonempty[order])

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
        return compute_aggregate(function, column.nonnull_numpy().astype(np.float64, copy=False))
