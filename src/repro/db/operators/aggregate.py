"""Group-by / aggregate operator, and the one definition of every aggregate.

Supports the aggregate functions the paper's queries and the TPC-DS-lite
benchmark need: COUNT, COUNT(*), SUM, AVG, MIN, MAX, STDDEV and VAR.

An aggregate is written once, as three steps over one mergeable state
(:class:`AggregateState`: the representative key rows, ``COUNT(*)`` and per
input column its non-NULL count, sum, M2, min and max, per group):

* :meth:`Aggregate.reduce` turns rows into a state.  Grouping is vectorised:
  the key columns are factorised into dense integer group codes (NULL-aware
  — NULL keys form their own group) and every reduction is an
  ``np.bincount`` / ``ufunc.at`` scatter by code, with no sort of the rows.
  A global aggregate is the one-group case: it allocates no per-row code and
  reduces with NumPy's own ``sum`` / ``min`` / ``max`` / ``sum(d*d)``.
* :meth:`Aggregate.merge` combines states: counts, sums and extremes add up
  group by group, M2 by the pairwise formula of Chan et al.
* :meth:`Aggregate.finalize` turns a state into the result table.

A serial execution is ``finalize(merge([reduce(rows)]))``, with the blocks a
scan answered from synopses (:class:`~repro.db.operators.scan.ScannedRows`)
as one more state; the partitioned engine reduces in its worker tasks and
merges and finalises on the coordinator.  Groups are emitted in
first-occurrence order; that order is applied to the per-group results, not
to the rows.  This module runs inside worker threads and must stay free of
observability imports (``tools/check_module_state.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Sequence

import numpy as np

from repro.db.column import Column
from repro.db.expressions import ColumnRef, Expression
from repro.db.operators.base import Operator
from repro.db.operators.codes import dense_key_codes, factorize_keys
from repro.db.operators.scan import ScannedRows, SynopsisAnswer
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.lazy import lazy_attribute

__all__ = ["AggregateSpec", "Aggregate", "AggregateState", "InputPartial", "SUPPORTED_AGGREGATES"]

SUPPORTED_AGGREGATES = {"count", "sum", "avg", "min", "max", "stddev", "var"}

#: The per-group reductions of an input that each function finalises from,
#: besides the non-NULL count.
_NEEDS = MappingProxyType(
    {
        "count": (),
        "sum": ("sums",),
        "avg": ("sums",),
        "stddev": ("sums", "m2"),
        "var": ("sums", "m2"),
        "min": ("mins",),
        "max": ("maxs",),
    }
)
#: The optional reductions of an :class:`InputPartial`, in field order.
_PARTS = ("sums", "m2", "mins", "maxs")


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


@dataclass
class InputPartial:
    """Mergeable per-group reductions of one aggregate input column.

    ``m2`` is the sum of squared deviations about the group's mean — the
    quantity Chan et al.'s pairwise formula combines without the catastrophic
    cancellation a sum-of-squares merge would suffer.  ``mins`` / ``maxs``
    hold ±inf for a group without a value.  A reduction no aggregate over
    the input needs is None.
    """

    counts: np.ndarray
    sums: np.ndarray | None = None
    m2: np.ndarray | None = None
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None


@dataclass
class AggregateState:
    """An aggregate's mergeable state, per group in first-occurrence order.

    ``key_columns`` hold one representative row per group (none for a global
    aggregate, which has one group); ``inputs`` are keyed by the position of
    the first aggregate over each distinct input expression.
    """

    key_columns: list[Column]
    counts_star: np.ndarray
    inputs: dict[int, InputPartial] = field(default_factory=dict)


class _GroupContext:
    """Per-reduction shared state: the rows' group codes and the group order.

    ``group_ids`` are :func:`dense_key_codes`' codes (numbered by key rank),
    None for a global aggregate's one group.  Every per-group reduction is
    computed by code; ``order`` lists the codes by first occurrence, so a
    result is stored as ``reduction[order]`` — a gather of ``num_groups``
    results, not a renumbering of the input rows.
    """

    __slots__ = ("group_ids", "num_groups", "order", "first_rows", "counts")

    def __init__(self, key_columns: list[Column], num_rows: int) -> None:
        if not key_columns:
            self.group_ids, self.num_groups, self.order, self.first_rows = None, 1, slice(None), None
            self.counts = np.array([num_rows], dtype=np.int64)
            return
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
        self.one_group = context.group_ids is None
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
        if self.one_group:
            return np.array([np.count_nonzero(self.valid)], dtype=np.int64)
        return np.bincount(self.ids, minlength=self.context.num_groups).astype(np.int64)

    @lazy_attribute
    def sums(self) -> np.ndarray:
        """Per-group sum of non-NULL values."""
        if self.one_group:
            return np.array([np.sum(self.vals)])
        return np.bincount(self.ids, weights=self.vals, minlength=self.context.num_groups)

    @lazy_attribute
    def m2(self) -> np.ndarray:
        """Per-group sum of squared deviations about the group's mean."""
        means = self.sums / np.maximum(self.counts, 1)
        if self.one_group:
            deviations = self.vals - means[0]
            return np.array([np.sum(deviations * deviations)])
        deviations = self.vals - means[self.ids]
        return np.bincount(self.ids, weights=deviations * deviations, minlength=self.context.num_groups)

    @lazy_attribute
    def mins(self) -> np.ndarray:
        """Per-group minimum of non-NULL values (+inf for a group without one)."""
        return self._extremes(np.minimum, np.inf)

    @lazy_attribute
    def maxs(self) -> np.ndarray:
        """Per-group maximum of non-NULL values (-inf for a group without one)."""
        return self._extremes(np.maximum, -np.inf)

    def _extremes(self, reducer: np.ufunc, identity: float) -> np.ndarray:
        if self.one_group:
            return np.array([reducer.reduce(self.vals) if len(self.vals) else identity])
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
        states = [self.reduce(table)]
        if isinstance(table, ScannedRows):
            states.append(self.answered(table.answer))
        return self.finalize(self.merge(states))

    def output_schema(self, input_schema: Schema) -> Schema:
        """The result schema, with group keys keeping their real dtypes.

        Key dtypes are resolved by probing each key expression against an
        empty table with ``input_schema``, so computed keys (``year + 1``)
        get exactly the dtype execution will produce.
        """
        probe = Table("_schema_probe", input_schema)
        defs = [ColumnDef(name, e.evaluate(probe).dtype) for name, e in zip(self._key_names(), self.group_by)]
        return Schema(defs + [ColumnDef(spec.name, spec.output_dtype) for spec in self.aggregates])

    # -- the three steps -----------------------------------------------------

    def reduce(self, table: Table) -> AggregateState:
        """The mergeable state of ``table``'s rows.

        Only the reductions some aggregate over an input finalises from are
        computed; equal input expressions share one entry.
        """
        key_columns = [expr.evaluate(table) for expr in self.group_by]
        agg_inputs = [
            None if spec.expression is None else spec.expression.evaluate(table) for spec in self.aggregates
        ]
        for spec, column in zip(self.aggregates, agg_inputs):
            function = spec.function.lower()
            if column is None and function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
            # A grouped aggregate over no row has no group to type-check.
            if column is not None and function != "count" and not column.dtype.is_numeric:
                if table.num_rows or not key_columns:
                    raise ExecutionError(f"aggregate {function!r} requires a numeric argument")

        context = _GroupContext(key_columns, table.num_rows)
        order = context.order
        state = AggregateState(
            [key.take(context.first_rows) for key in key_columns], context.counts[order]
        )
        for slot, needed in self._needs().items():
            reduced = _InputState(agg_inputs[slot], context)
            state.inputs[slot] = InputPartial(
                reduced.counts[order],
                *(getattr(reduced, part)[order] if part in needed else None for part in _PARTS),
            )
        return state

    def merge(self, states: Sequence[AggregateState]) -> AggregateState:
        """One state for the rows of all ``states``, groups in first-occurrence
        order over the states taken in turn."""
        if len(states) == 1:  # as it stands: a serial result keeps its reductions' bits
            return states[0]
        if self.group_by:
            # One "row" per (state, group): re-factorising the stacked
            # representative keys numbers the merged groups by first occurrence.
            stacked = [Column.stack([s.key_columns[k] for s in states]) for k in range(len(self.group_by))]
            group_ids, first_rows, num_groups = factorize_keys(stacked, len(stacked[0]))
            key_columns = [key.take(first_rows) for key in stacked]
        else:
            group_ids, num_groups, key_columns = np.zeros(len(states), dtype=np.int64), 1, []
        # Per merged group, in the order the states come (bincount adds float64).
        counts_star = np.bincount(
            group_ids, weights=np.concatenate([s.counts_star for s in states]), minlength=num_groups
        )
        merged = AggregateState(key_columns, counts_star.astype(np.int64))
        for slot in states[0].inputs:
            merged.inputs[slot] = _merge_input([s.inputs[slot] for s in states], group_ids, num_groups)
        return merged

    def finalize(self, state: AggregateState) -> Table:
        """The result table: the key columns, then one column per aggregate."""
        defs = [ColumnDef(name, key.dtype) for name, key in zip(self._key_names(), state.key_columns)]
        columns = dict(zip(self._key_names(), state.key_columns))
        for spec, slot in zip(self.aggregates, self._slots()):
            entry = None if slot is None else state.inputs[slot]
            columns[spec.name] = _finalize(spec.function.lower(), entry, state.counts_star)
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        return Table("aggregate", Schema(defs), columns)

    # -- helpers -------------------------------------------------------------

    def _key_names(self) -> list[str]:
        return [e.name if isinstance(e, ColumnRef) else e.output_name() for e in self.group_by]

    def _slots(self) -> list[int | None]:
        """Per aggregate, the position of the first one over an equal input
        expression — where its reductions are kept (None for ``COUNT(*)``)."""
        expressions = [spec.expression for spec in self.aggregates]
        return [None if e is None else expressions.index(e) for e in expressions]

    def _needs(self) -> dict[int, set[str]]:
        """The reductions to keep per input slot."""
        needs: dict[int, set[str]] = {}
        for spec, slot in zip(self.aggregates, self._slots()):
            if slot is not None:
                needs.setdefault(slot, set()).update(_NEEDS[spec.function.lower()])
        return needs

    def answered(self, answer: SynopsisAnswer) -> AggregateState:
        """The blocks a scan answered from synopses, as one more one-group state.

        Every answered row counts for ``COUNT(*)`` and ``COUNT(col)`` alike
        and an extreme is the answer's own; a scan answers blocks only for a
        global ``COUNT`` / ``MIN`` / ``MAX`` of bare columns.
        """
        rows = np.array([answer.rows], dtype=np.int64)
        state = AggregateState([], rows)
        for slot, needed in self._needs().items():
            name = self.aggregates[slot].expression.name
            state.inputs[slot] = InputPartial(
                rows,
                mins=np.array([answer.mins[name]]) if "mins" in needed else None,
                maxs=np.array([answer.maxs[name]]) if "maxs" in needed else None,
            )
        return state


def _merge_input(partials: list[InputPartial], ids: np.ndarray, num_groups: int) -> InputPartial:
    """Merge one input's reductions; ``ids`` maps the partials' groups, taken
    in turn, to merged groups.

    M2 is the pairwise formula of Chan et al. applied once over all parts:
    every part's own M2 plus its count times the squared offset of its mean
    from the merged mean.
    """

    def gathered(part: str) -> np.ndarray:
        return np.concatenate([getattr(partial, part) for partial in partials])

    first, counts = partials[0], gathered("counts")
    merged = InputPartial(np.bincount(ids, weights=counts, minlength=num_groups).astype(np.int64))
    if first.sums is not None:
        sums = gathered("sums")
        merged.sums = np.bincount(ids, weights=sums, minlength=num_groups)
    if first.m2 is not None:
        means = merged.sums / np.maximum(merged.counts, 1)
        offsets = sums / np.maximum(counts, 1) - means[ids]
        weights = gathered("m2") + counts * offsets * offsets
        merged.m2 = np.bincount(ids, weights=weights, minlength=num_groups)
    with np.errstate(invalid="ignore"):  # a NaN extreme stays NaN, quietly
        if first.mins is not None:
            merged.mins = np.full(num_groups, np.inf)
            np.minimum.at(merged.mins, ids, gathered("mins"))
        if first.maxs is not None:
            merged.maxs = np.full(num_groups, -np.inf)
            np.maximum.at(merged.maxs, ids, gathered("maxs"))
    return merged


def _finalize(function: str, entry: InputPartial | None, counts_star: np.ndarray) -> Column:
    """One aggregate for every group of a state.

    A group without a non-NULL value yields NULL; a NaN produced from genuine
    values stays a valid NaN.  STDDEV and VAR divide by ``n - 1`` and are 0.0
    over one value.
    """
    if entry is None:
        return Column(DataType.INT64, counts_star.copy())
    counts = entry.counts
    if function == "count":
        return Column(DataType.INT64, counts.copy())
    nonempty = counts > 0
    out = np.full(len(counts), np.nan, dtype=np.float64)
    if function == "sum":
        out[nonempty] = entry.sums[nonempty]
    elif function == "avg":
        out[nonempty] = entry.sums[nonempty] / counts[nonempty]
    elif function in ("stddev", "var"):
        multi = counts > 1
        out[multi] = entry.m2[multi] / (counts[multi] - 1)
        out[counts == 1] = 0.0
        if function == "stddev":
            out[multi] = np.sqrt(out[multi])
    else:
        out[nonempty] = (entry.mins if function == "min" else entry.maxs)[nonempty]
    return Column(DataType.FLOAT64, out, nonempty)
