"""Group-by / aggregate operator, and the one definition of every aggregate.

Supports the aggregate functions the paper's queries and the TPC-DS-lite
benchmark need: COUNT, COUNT(*), SUM, AVG, MIN, MAX, STDDEV and VAR.

An aggregate is written once, as three steps over one mergeable state
(:class:`AggregateState`: the representative key rows, ``COUNT(*)`` and per
input column its non-NULL count, sum, M2, min and max, per group):

* :meth:`Aggregate.reduce` turns rows into a state a morsel at a time
  (:mod:`repro.db.operators.morsel`).  The key columns are coded once per
  execution by one dictionary each (:class:`~repro.db.operators.codes.GroupCodes`:
  dense integer codes, NULL-aware — NULL keys form their own group); each
  morsel's rows then reduce by code with ``np.bincount`` / ``ufunc.at``, with
  no sort of the rows, into a G-sized state that is merged into the one
  running state.  A global aggregate is the one-group case: it allocates no
  per-row code and reduces with NumPy's own ``sum`` / ``min`` / ``max``.
* :meth:`Aggregate.merge` combines states: counts, sums and extremes add up
  group by group, M2 by the pairwise formula of Chan et al.  Merging a
  morsel into the running state is the same step, with the groups aligned.
* :meth:`Aggregate.finalize` turns a state into the result table.

A serial execution is ``finalize(merge([reduce(rows)]))``, with the blocks a
scan answered from synopses (:class:`~repro.db.operators.scan.ScannedRows`)
as one more state; the partitioned engine reduces in its worker tasks and
merges and finalises on the coordinator.  Groups are emitted in
first-occurrence order; that order is applied to the per-group results, not
to the rows.

Numerics: COUNT, MIN and MAX are exact.  SUM and AVG add in a defined
order — row order within a morsel (NumPy's pairwise ``sum`` for a global
aggregate), then morsel by morsel, then state by state.  VAR and STDDEV
keep each group's deviations scaled by its largest magnitude ``max |x|``
before they are squared, in :meth:`reduce` and in the merge, so they stay
finite wherever the true value is finite and the group's sum does not
overflow (forty copies of ``1e200`` have variance 0, not ``inf``).

This module runs inside worker threads and must stay free of observability
imports (``tools/check_module_state.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.expressions import ColumnRef, Expression
from repro.db.operators.base import Operator
from repro.db.operators.codes import FirstRows, GroupCodes, factorize_keys
from repro.db.operators.morsel import morsels
from repro.db.operators.scan import ScannedRows, SynopsisAnswer
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError

__all__ = ["AggregateSpec", "Aggregate", "AggregateState", "InputPartial", "SUPPORTED_AGGREGATES"]

SUPPORTED_AGGREGATES = {"count", "sum", "avg", "min", "max", "stddev", "var"}

#: The per-group reductions of an input that each function finalises from,
#: besides the non-NULL count.
_NEEDS = MappingProxyType(
    {
        "count": (),
        "sum": ("sums",),
        "avg": ("sums",),
        "stddev": ("m2",),
        "var": ("m2",),
        "min": ("mins",),
        "max": ("maxs",),
    }
)

#: Every reduction of a group without a row.
_EMPTY = MappingProxyType(
    {"counts": 0, "sums": 0.0, "m2": 0.0, "mins": np.inf, "maxs": -np.inf, "mean": 0.0, "scale": 0.0}
)


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

    ``scale`` is the group's largest magnitude ``max |x|``; ``mean`` and
    ``m2`` — the group's mean and its sum of squared deviations about it,
    the quantities Chan et al.'s pairwise formula combines without the
    cancellation a sum-of-squares merge would suffer — are kept in units of
    ``scale`` (of ``scale**2`` for ``m2``), so no deviation is squared at a
    magnitude that could overflow.  ``mins`` / ``maxs`` hold ±inf for a
    group without a value.  A reduction no aggregate over the input needs
    is None; ``mean`` and ``scale`` are kept with ``m2``.
    """

    counts: np.ndarray
    sums: np.ndarray | None = None
    m2: np.ndarray | None = None
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    def take(self, order) -> "InputPartial":
        """These reductions with the groups in ``order`` (views for a slice)."""
        return InputPartial(**{name: None if part is None else part[order] for name, part in vars(self).items()})

    def placed(self, window: slice, size: int) -> "InputPartial":
        """These reductions as groups ``window`` of ``size`` groups, every
        other group empty."""
        out = {}
        for name, part in vars(self).items():
            if part is not None:
                out[name] = np.full(size, _EMPTY[name], dtype=part.dtype)
                out[name][window] = part
        return InputPartial(**out)

    def put(self, window: slice, merged: "InputPartial") -> None:
        """Overwrite groups ``window`` with ``merged``'s reductions."""
        for name, part in vars(self).items():
            if part is not None:
                part[window] = getattr(merged, name)


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


class _Groups:
    """How one reduction's rows fall into groups: ``ids`` per row (None for
    a global aggregate's one group) over ``size`` groups."""

    __slots__ = ("ids", "size")

    def __init__(self, ids: np.ndarray | None, size: int) -> None:
        self.ids = ids
        self.size = size

    def total(self, values: np.ndarray) -> np.ndarray:
        """Per-group sum of ``values`` (aligned with :attr:`ids`)."""
        if self.ids is None:
            return np.array([np.sum(values)])
        return np.bincount(self.ids, weights=values, minlength=self.size)

    def extreme(self, reducer: np.ufunc, values: np.ndarray, identity: float) -> np.ndarray:
        """Per-group ``reducer`` of ``values``; ``identity`` for a group without one."""
        if self.ids is None:
            return np.array([reducer.reduce(values) if len(values) else identity])
        out = np.full(self.size, identity, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # a NaN value makes its group NaN, quietly
            reducer.at(out, self.ids, values)
        return out

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        """Each row's group's value of ``per_group``."""
        return per_group[0] if self.ids is None else per_group[self.ids]

    def only(self, valid: np.ndarray | None) -> "_Groups":
        """The rows ``valid`` keeps (every row when None)."""
        if valid is None or self.ids is None:
            return self
        return _Groups(self.ids[valid], self.size)


def _reduce_input(
    column: Column, groups: _Groups, counts_star: np.ndarray, needed: set[str]
) -> InputPartial:
    """One morsel's reductions of an input column: ``needed`` of them, and
    the non-NULL counts.  An input without NULLs is reduced as it stands."""
    valid = None if column.null_free() else column.validity
    groups = groups.only(valid)
    if valid is None:
        counts = counts_star
    elif groups.ids is None:
        counts = np.array([np.count_nonzero(valid)], dtype=np.int64)
    else:
        counts = np.bincount(groups.ids, minlength=groups.size)
    partial = InputPartial(counts)
    if not needed:  # COUNT(col): the values themselves are never read
        return partial
    values = column.stored if valid is None else column.stored[valid]
    values = values.astype(np.float64, copy=False)
    if "sums" in needed:
        partial.sums = groups.total(values)
    if "m2" in needed:
        partial.scale = groups.extreme(np.maximum, np.abs(values), 0.0)
        with np.errstate(invalid="ignore"):  # inf / inf: a group with an inf is NaN
            scaled = values / groups.spread(np.where(partial.scale > 0, partial.scale, 1.0))
        partial.mean = groups.total(scaled) / np.maximum(counts, 1)
        deviations = scaled - groups.spread(partial.mean)
        partial.m2 = groups.total(deviations * deviations)
    if "mins" in needed:
        partial.mins = groups.extreme(np.minimum, values, np.inf)
    if "maxs" in needed:
        partial.maxs = groups.extreme(np.maximum, values, -np.inf)
    return partial


def _source(expression: Expression, table: Table) -> Callable[[int, int], Column]:
    """Reads ``expression`` over rows ``start:stop`` of ``table`` — a slice
    of the column itself for a bare column reference."""
    if isinstance(expression, ColumnRef):
        return expression.evaluate(table).slice
    return lambda start, stop: expression.evaluate(table.slice(start, stop))


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
        """The mergeable state of ``table``'s rows, reduced a morsel at a time.

        The group codes' dictionaries are built once, over every row; each
        morsel then reduces over the window of codes it holds and is merged
        into that window of the one running state, and the first rows of
        the groups are found from the codes of a growing prefix.  Only the
        reductions some aggregate over an input finalises from are computed;
        equal input expressions share one entry.
        """
        num_rows = table.num_rows
        empty = table.slice(0, 0)
        for spec in self.aggregates:
            function = spec.function.lower()
            if spec.expression is None:
                if function != "count":
                    raise ExecutionError(f"aggregate {function!r} requires an argument")
            # A grouped aggregate over no row has no group to type-check.
            elif function != "count" and not spec.expression.evaluate(empty).dtype.is_numeric:
                if num_rows or not self.group_by:
                    raise ExecutionError(f"aggregate {function!r} requires a numeric argument")

        needs = self._needs()
        inputs = {slot: _source(self.aggregates[slot].expression, table) for slot in needs}
        codes = GroupCodes([_source(e, table) for e in self.group_by], num_rows) if self.group_by else None
        size = 1 if codes is None else codes.size
        first = None if codes is None else FirstRows(size)
        counts_star = np.zeros(size, dtype=np.int64)
        partials: dict[int, InputPartial] = {}
        for start, stop in morsels([(0, num_rows)]):
            if codes is None:
                low, groups = 0, _Groups(None, 1)
                morsel_counts = np.array([stop - start], dtype=np.int64)
            else:
                # A morsel reduces over the window of codes it holds: on a
                # clustered key, a few groups out of many.
                ids = codes.codes(start, stop)
                first.see(ids, start)
                low, high = (int(ids.min()), int(ids.max()) + 1) if len(ids) else (0, 0)
                groups = _Groups(ids - low if low else ids, high - low)
                morsel_counts = np.bincount(groups.ids, minlength=groups.size)
            window = slice(low, low + groups.size)
            counts_star[window] += morsel_counts
            for slot, needed in needs.items():
                partial = _reduce_input(inputs[slot](start, stop), groups, morsel_counts, needed)
                running = partials.get(slot)
                if running is None:
                    partials[slot] = partial.placed(window, size)
                else:
                    running.put(window, _merge_input([running.take(window), partial], None, groups.size))

        if first is None:
            order, key_columns = slice(None), []
        else:
            order = np.argsort(first.rows, kind="stable")
            representatives = table.take(first.rows[order])
            key_columns = [expr.evaluate(representatives) for expr in self.group_by]
        inputs = {slot: partial.take(order) for slot, partial in partials.items()}
        return AggregateState(key_columns, counts_star[order], inputs)

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


def _merge_input(partials: list[InputPartial], ids: np.ndarray | None, num_groups: int) -> InputPartial:
    """Merge one input's reductions; ``ids`` maps the partials' groups, taken
    in turn, to merged groups — None when every partial already holds the
    merged groups in order (the morsels of one reduction).

    M2 is the pairwise formula of Chan et al. applied once over all parts,
    in units of the merged group's scale: every part's own M2 plus its count
    times the squared offset of its mean from the merged mean.
    """
    parts = len(partials)
    if ids is None:
        total = lambda values: values.reshape(parts, num_groups).sum(axis=0)  # noqa: E731
        spread = lambda per_group: np.tile(per_group, parts)  # noqa: E731

        def extreme(reducer: np.ufunc, values: np.ndarray, identity: float) -> np.ndarray:
            return reducer.reduce(values.reshape(parts, num_groups), axis=0)

    else:
        total = lambda values: np.bincount(ids, weights=values, minlength=num_groups)  # noqa: E731
        spread = lambda per_group: per_group[ids]  # noqa: E731

        def extreme(reducer: np.ufunc, values: np.ndarray, identity: float) -> np.ndarray:
            out = np.full(num_groups, identity)
            reducer.at(out, ids, values)
            return out

    def gathered(part: str) -> np.ndarray:
        return np.concatenate([getattr(partial, part) for partial in partials])

    first, counts = partials[0], gathered("counts")
    merged = InputPartial(total(counts).astype(np.int64))
    if first.sums is not None:
        merged.sums = total(gathered("sums"))
    with np.errstate(invalid="ignore"):  # a NaN stays NaN, quietly
        if first.m2 is not None:
            scales = gathered("scale")
            merged.scale = extreme(np.maximum, scales, 0.0)
            ratios = scales / spread(np.where(merged.scale > 0, merged.scale, 1.0))
            means = gathered("mean") * ratios
            merged.mean = total(counts * means) / np.maximum(merged.counts, 1)
            offsets = means - spread(merged.mean)
            merged.m2 = total(gathered("m2") * ratios * ratios + counts * offsets * offsets)
        if first.mins is not None:
            merged.mins = extreme(np.minimum, gathered("mins"), np.inf)
        if first.maxs is not None:
            merged.maxs = extreme(np.maximum, gathered("maxs"), -np.inf)
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
        # In units of the group's scale until the last step, which overflows
        # only where the true value does.
        multi = counts > 1
        unit_var, scale = entry.m2[multi] / (counts[multi] - 1), entry.scale[multi]
        out[multi] = np.sqrt(unit_var) * scale if function == "stddev" else unit_var * scale * scale
        out[counts == 1] = 0.0
    else:
        out[nonempty] = (entry.mins if function == "min" else entry.maxs)[nonempty]
    return Column(DataType.FLOAT64, out, nonempty)
