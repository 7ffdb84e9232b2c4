"""Associative merges of per-partition partials.

Partials arrive in partition order (partitions are contiguous, ordered row
ranges), so:

* plain row streams merge by concatenation, which reproduces base-table row
  order — and, for joins partitioned on the probe side, the oracle's
  left-row-major output order;
* grouped aggregates merge by re-factorising the concatenated per-partial
  key rows — first-occurrence numbering over partition-major rows is
  exactly the oracle's first-occurrence numbering over the original rows;
* count/sum/min/max states combine by ``bincount``-style scatter reductions,
  and variance states via Chan's parallel update on (count, mean, M2).

Finalisation replicates ``Aggregate._grouped_one`` / ``compute_aggregate``
branch for branch (empty-group NULLs, ``ddof=1``, single-row variance 0.0),
so the merged table is schema- and semantics-identical to the oracle's.
Floating-point sums may round differently than a single-pass reduction —
the differential suite compares float aggregates with a tolerance.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from repro.db.column import Column
from repro.db.expressions import ColumnRef
from repro.db.operators.aggregate import Aggregate
from repro.db.operators.codes import factorize_keys
from repro.db.operators.scan import SynopsisAnswer
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.parallel.kernels import GlobalPartial, GroupedPartial, input_slot

__all__ = ["merge_tables", "merge_grouped", "merge_global", "answered_partial"]


def merge_tables(partials: Sequence[Table]) -> Table:
    """Concatenate per-partition row streams in partition order."""
    if not partials:
        raise ExecutionError("no partition results to merge")
    return reduce(lambda acc, piece: acc.concat(piece), partials)


def _key_names(aggregate: Aggregate) -> list[str]:
    return [
        expr.name if isinstance(expr, ColumnRef) else expr.output_name()
        for expr in aggregate.group_by
    ]


def merge_grouped(aggregate: Aggregate, partials: Sequence[GroupedPartial]) -> Table:
    """Merge grouped partials into the final GROUP BY result table."""
    if not partials:
        raise ExecutionError("no partition results to merge")
    num_keys = len(aggregate.group_by)
    # One "row" per (partition, group): concatenating the representative key
    # rows and re-factorising assigns merged group ids in first-occurrence
    # order, which is the oracle's group order.
    combined_keys = [
        reduce(lambda a, b: a.concat(b), (p.key_columns[k] for p in partials))
        for k in range(num_keys)
    ]
    total_partial_groups = sum(p.num_groups for p in partials)
    group_ids, first_rows, num_groups = factorize_keys(combined_keys, total_partial_groups)

    defs: list[ColumnDef] = []
    columns: dict[str, Column] = {}
    for name, key_column in zip(_key_names(aggregate), combined_keys):
        columns[name] = key_column.take(first_rows)
        defs.append(ColumnDef(name, key_column.dtype))

    counts_star = np.zeros(num_groups, dtype=np.int64)
    offsets: list[int] = []
    offset = 0
    for partial in partials:
        offsets.append(offset)
        span = partial.num_groups
        ids = group_ids[offset : offset + span]
        np.add.at(counts_star, ids, partial.counts_star)
        offset += span

    merged_inputs: dict[int, dict[str, np.ndarray]] = {}
    for index, spec in enumerate(aggregate.aggregates):
        if spec.expression is None:
            continue
        slot = input_slot(aggregate, index)
        if slot not in merged_inputs:
            merged_inputs[slot] = _merge_input(slot, partials, group_ids, offsets, num_groups)

    for spec_index, spec in enumerate(aggregate.aggregates):
        columns[spec.name] = _finalize_grouped(
            spec.function.lower(),
            None if spec.expression is None else merged_inputs[input_slot(aggregate, spec_index)],
            counts_star,
            num_groups,
            spec.output_dtype,
        )
        defs.append(ColumnDef(spec.name, spec.output_dtype))
    return Table("aggregate", Schema(defs), columns)


def _merge_input(
    slot: int,
    partials: Sequence[GroupedPartial],
    group_ids: np.ndarray,
    offsets: Sequence[int],
    num_groups: int,
) -> dict[str, np.ndarray]:
    """Scatter-merge one input column's per-partition reductions.

    Within one partial, distinct groups map to distinct merged ids, so the
    fancy-indexed updates are duplicate-free; only variance state needs the
    sequential Chan update across partials.
    """
    first = partials[0].inputs[slot]
    counts = np.zeros(num_groups, dtype=np.int64)
    sums = np.zeros(num_groups, dtype=np.float64) if first.sums is not None else None
    mins = np.full(num_groups, np.inf) if first.mins is not None else None
    maxs = np.full(num_groups, -np.inf) if first.maxs is not None else None
    has_m2 = first.m2 is not None
    mean = np.zeros(num_groups, dtype=np.float64) if has_m2 else None
    m2 = np.zeros(num_groups, dtype=np.float64) if has_m2 else None
    chan_count = np.zeros(num_groups, dtype=np.float64) if has_m2 else None

    for partial, offset in zip(partials, offsets):
        entry = partial.inputs[slot]
        span = partial.num_groups
        ids = group_ids[offset : offset + span]
        if has_m2:
            # Chan's parallel variance update, vectorised over this
            # partial's non-empty groups.
            mask = entry.counts > 0
            if mask.any():
                idx = ids[mask]
                nb = entry.counts[mask].astype(np.float64)
                mb = entry.sums[mask] / nb
                na = chan_count[idx]
                delta = mb - mean[idx]
                total = na + nb
                m2[idx] += entry.m2[mask] + delta * delta * na * nb / total
                mean[idx] += delta * nb / total
                chan_count[idx] = total
        counts[ids] += entry.counts
        if sums is not None:
            sums[ids] += entry.sums
        if mins is not None:
            np.minimum.at(mins, ids, entry.mins)
        if maxs is not None:
            np.maximum.at(maxs, ids, entry.maxs)

    merged: dict[str, np.ndarray] = {"counts": counts}
    if sums is not None:
        merged["sums"] = sums
    if has_m2:
        merged["m2"] = m2
    if mins is not None:
        merged["mins"] = mins
    if maxs is not None:
        merged["maxs"] = maxs
    return merged


def _finalize_grouped(
    function: str,
    state: dict[str, np.ndarray] | None,
    counts_star: np.ndarray,
    num_groups: int,
    output_dtype: DataType,
) -> Column:
    """Finalise one merged aggregate; branches mirror ``Aggregate._grouped_one``."""
    if state is None:
        return Column(DataType.INT64, counts_star.copy())
    if num_groups == 0:
        return Column.empty(output_dtype)
    counts = state["counts"]
    if function == "count":
        return Column(DataType.INT64, counts.copy())

    nonempty = counts > 0
    out = np.full(num_groups, np.nan, dtype=np.float64)
    if function == "sum":
        out[nonempty] = state["sums"][nonempty]
    elif function == "avg":
        out[nonempty] = state["sums"][nonempty] / counts[nonempty]
    elif function in ("stddev", "var"):
        multi = counts > 1
        out[multi] = state["m2"][multi] / (counts[multi] - 1)
        out[counts == 1] = 0.0
        if function == "stddev":
            out[multi] = np.sqrt(out[multi])
    elif function == "min":
        out[nonempty] = state["mins"][nonempty]
    elif function == "max":
        out[nonempty] = state["maxs"][nonempty]
    else:  # pragma: no cover - SUPPORTED_AGGREGATES guards this
        raise ExecutionError(f"unsupported aggregate function {function!r}")
    out[~nonempty] = np.nan
    return Column(DataType.FLOAT64, out, nonempty.copy())


def merge_global(aggregate: Aggregate, partials: Sequence[GlobalPartial]) -> Table:
    """Merge global (no GROUP BY) partials; mirrors ``compute_aggregate``."""
    if not partials:
        raise ExecutionError("no partition results to merge")
    defs: list[ColumnDef] = []
    columns: dict[str, Column] = {}
    for index, spec in enumerate(aggregate.aggregates):
        function = spec.function.lower()
        if function == "count":
            result: object = int(sum(p.counts[index] for p in partials))
        else:
            n, total, m2, mean = 0, 0.0, 0.0, 0.0
            mn, mx = np.inf, -np.inf
            for partial in partials:
                stats = partial.stats[index]
                assert stats is not None
                nb, tb, m2b, mnb, mxb = stats
                if nb == 0:
                    continue
                mb = tb / nb
                delta = mb - mean
                combined = n + nb
                m2 += m2b + delta * delta * n * nb / combined
                mean += delta * nb / combined
                n = combined
                total += tb
                # np.minimum / np.maximum keep a NaN extreme, as np.min does.
                mn, mx = np.minimum(mn, mnb), np.maximum(mx, mxb)
            if n == 0:
                result = None
            elif function == "sum":
                result = float(total)
            elif function == "avg":
                result = float(total / n)
            elif function == "min":
                result = float(mn)
            elif function == "max":
                result = float(mx)
            elif function in ("stddev", "var"):
                variance = m2 / (n - 1) if n > 1 else 0.0
                result = float(np.sqrt(variance)) if function == "stddev" else float(variance)
            else:  # pragma: no cover - SUPPORTED_AGGREGATES guards this
                raise ExecutionError(f"unsupported aggregate function {function!r}")
        columns[spec.name] = Column.from_values(spec.output_dtype, [result])
        defs.append(ColumnDef(spec.name, spec.output_dtype))
    return Table("aggregate", Schema(defs), columns)


def answered_partial(aggregate: Aggregate, answer: SynopsisAnswer) -> GlobalPartial:
    """The blocks a scan answered from synopses, as one more global partial.

    Every answered row counts for ``COUNT(*)`` and ``COUNT(col)`` alike and
    an extreme is the answer's own; the sum and M2 positions hold the merge's
    identities (an answering scan serves no SUM, AVG, STDDEV or VAR).
    """
    stats: list[tuple[int, float, float, float, float] | None] = []
    for spec in aggregate.aggregates:
        column = spec.expression
        if spec.function.lower() == "count" or not isinstance(column, ColumnRef):
            stats.append(None)
        else:
            stats.append((answer.rows, 0.0, 0.0, answer.mins[column.name], answer.maxs[column.name]))
    return GlobalPartial(
        num_rows=answer.rows, counts=[answer.rows] * len(aggregate.aggregates), stats=stats
    )
