"""Per-partition worker kernels.

Everything in this module runs *inside* worker threads.  It must stay free
of observability imports at module scope (enforced by
``tools/check_module_state.py``): workers report nothing themselves — spans,
metrics and journal entries are the coordinator's job.

The only numerics here are the *partial* aggregate states.  Everything else
(filters, joins, projections, expression evaluation) reuses the existing
operator implementations verbatim on a partition slice, so the per-shard
semantics are the single-partition semantics by construction.

A grouped partial carries, per group of its shard: the representative key
values, ``COUNT(*)``, and per input column the non-NULL count, sum, sum of
squared deviations (M2, for the parallel variance merge), min and max.
These states merge associatively (``merge.py``), which is what makes
partitioned GROUP BY exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.column import Column
from repro.db.operators.aggregate import Aggregate, _GroupContext, _InputState
from repro.db.table import Table
from repro.errors import ExecutionError

__all__ = ["GroupedPartial", "GlobalPartial", "InputPartial", "partial_aggregate"]


@dataclass
class InputPartial:
    """Mergeable per-group reductions of one aggregate input column.

    ``m2`` is the within-shard sum of squared deviations about the shard's
    per-group mean — the quantity Chan's parallel update combines without
    the catastrophic cancellation a sum-of-squares merge would suffer.
    ``mins``/``maxs`` use ±inf as the identity for empty groups.
    """

    counts: np.ndarray
    sums: np.ndarray | None = None
    m2: np.ndarray | None = None
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None


@dataclass
class GroupedPartial:
    """Partial GROUP BY state of one partition."""

    key_columns: list[Column]
    counts_star: np.ndarray
    inputs: dict[int, InputPartial] = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return int(len(self.counts_star))


@dataclass
class GlobalPartial:
    """Partial no-GROUP-BY aggregate state of one partition.

    ``stats`` holds per aggregate position either ``None`` (COUNT — derived
    from the counts) or ``(count, total, m2, min, max)`` over non-NULL values.
    """

    num_rows: int
    counts: list[int]
    stats: list[tuple[int, float, float, float, float] | None]


def _input_needs(aggregate: Aggregate) -> dict[int, set[str]]:
    """Which reductions each aggregate-input position requires.

    Positions sharing an identical input expression object are deduplicated
    onto the first position, mirroring the oracle's by-identity reuse.
    """
    needs: dict[int, set[str]] = {}
    canonical: dict[int, int] = {}
    for index, spec in enumerate(aggregate.aggregates):
        if spec.expression is None:
            continue
        slot = canonical.setdefault(id(spec.expression), index)
        bucket = needs.setdefault(slot, set())
        function = spec.function.lower()
        if function in ("sum", "avg"):
            bucket.add("sum")
        elif function in ("stddev", "var"):
            bucket.update(("sum", "m2"))
        elif function in ("min", "max"):
            bucket.add(function)
    return needs


def input_slot(aggregate: Aggregate, index: int) -> int:
    """The canonical input position ``index``'s reductions are stored under."""
    canonical: dict[int, int] = {}
    for position, spec in enumerate(aggregate.aggregates):
        if spec.expression is not None:
            canonical.setdefault(id(spec.expression), position)
    spec = aggregate.aggregates[index]
    assert spec.expression is not None
    return canonical[id(spec.expression)]


def partial_aggregate(aggregate: Aggregate, table: Table) -> GroupedPartial | GlobalPartial:
    """Reduce one partition slice to a mergeable partial aggregate state."""
    agg_inputs: list[Column | None] = [
        None if spec.expression is None else spec.expression.evaluate(table)
        for spec in aggregate.aggregates
    ]
    for spec, column in zip(aggregate.aggregates, agg_inputs):
        function = spec.function.lower()
        if column is None:
            if function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
        elif function != "count" and not column.dtype.is_numeric:
            raise ExecutionError(f"aggregate {function!r} requires a numeric argument")

    if not aggregate.group_by:
        return _global_partial(aggregate, table, agg_inputs)
    return _grouped_partial(aggregate, table, agg_inputs)


def _global_partial(
    aggregate: Aggregate, table: Table, agg_inputs: list[Column | None]
) -> GlobalPartial:
    """Only the reductions :func:`_input_needs` lists are computed; the other
    positions of a ``stats`` tuple hold the merge's identities."""
    needs = _input_needs(aggregate)
    counts: list[int] = []
    stats: list[tuple[int, float, float, float, float] | None] = []
    for index, (spec, column) in enumerate(zip(aggregate.aggregates, agg_inputs)):
        if column is None:
            counts.append(table.num_rows)
            stats.append(None)
            continue
        counts.append(table.num_rows - column.null_count)
        if spec.function.lower() == "count":
            stats.append(None)
            continue
        values = column.nonnull_numpy().astype(np.float64, copy=False)
        n = int(len(values))
        total, m2, low, high = 0.0, 0.0, np.inf, -np.inf
        needed = needs[input_slot(aggregate, index)] if n else ()
        if "sum" in needed:
            total = float(np.sum(values))
        if "m2" in needed:
            deviations = values - total / n
            m2 = float(np.dot(deviations, deviations))
        if "min" in needed:
            low = float(np.min(values))
        if "max" in needed:
            high = float(np.max(values))
        stats.append((n, total, m2, low, high))
    return GlobalPartial(num_rows=table.num_rows, counts=counts, stats=stats)


def _grouped_partial(
    aggregate: Aggregate, table: Table, agg_inputs: list[Column | None]
) -> GroupedPartial:
    key_columns = [expr.evaluate(table) for expr in aggregate.group_by]
    context = _GroupContext(key_columns, table.num_rows)
    # Per-group arrays are reduced by code and stored in first-occurrence
    # order, the order the merge re-factorises the representative keys in.
    order = context.order
    partial = GroupedPartial(
        key_columns=[key.take(context.first_rows) for key in key_columns],
        counts_star=context.counts[order],
    )
    for slot, needed in _input_needs(aggregate).items():
        column = agg_inputs[slot]
        assert column is not None
        state = _InputState(column, context)
        entry = InputPartial(counts=state.counts[order])
        if "sum" in needed:
            entry.sums = state.sums[order]
        if "m2" in needed:
            entry.m2 = state.m2[order]
        if "min" in needed:
            entry.mins = state.mins[order]
        if "max" in needed:
            entry.maxs = state.maxs[order]
        partial.inputs[slot] = entry
    return partial
