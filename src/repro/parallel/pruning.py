"""Partition pruning against per-partition min/max statistics.

The WHERE clause is decomposed by :func:`extract_constraints` into
per-column interval/pinned-value constraints, each a *necessary* top-level
conjunct — so a partition whose value range provably cannot satisfy any one
of them cannot contribute a row, regardless of the residual predicate.
Pruning happens on the coordinator before a single worker is dispatched or
a single simulated page is charged.

This is the coarse case of the mechanism scans use on blocks: the decision
is :meth:`ColumnConstraint.admits_ranges` either way, fed here from the
partition map's ``{min, max, null_count}`` statistics and there from the
column buffers' block synopses (:func:`repro.db.operators.scan.kept_rows`,
which the engine then applies inside each shard this module keeps).

Per constrained column:

* ``min``/``max`` both ``None`` means the partition is all-NULL in that
  column; every extracted constraint form (comparison, BETWEEN, IN) rejects
  NULL, so the partition is prunable.
* Otherwise the partition goes when ``[min, max]`` misses every pinned value
  or lies outside the interval; literals the comparison kernels would coerce
  or reject are inconclusive and keep it.
* A column missing from the stats dict (tail partition, unknown schema) or
  with only one extremum known is inconclusive: the partition is kept.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.db.constraints import ColumnConstraint

__all__ = ["prune_partitions", "partition_admits"]


def _column_admits(constraint: ColumnConstraint, stats: Mapping[str, Any]) -> bool:
    """Could any row of a partition with ``stats`` satisfy ``constraint``?"""
    part_min = stats.get("min")
    part_max = stats.get("max")
    if part_min is None or part_max is None:
        # All-NULL (or unknown-extremum) partition: no NULL satisfies an
        # extracted constraint, so only an all-NULL column is prunable.
        return not (part_min is None and part_max is None)
    return bool(
        constraint.admits_ranges(
            np.array([part_min]), np.array([part_max]), np.zeros(1, dtype=bool)
        )[0]
    )


def partition_admits(
    entry: Mapping[str, Any],
    constraints: Mapping[str, ColumnConstraint],
    prunable_columns: Iterable[str],
) -> bool:
    """True unless some constraint proves ``entry`` contributes no rows."""
    columns: Mapping[str, Any] = entry.get("columns") or {}
    for name in prunable_columns:
        constraint = constraints.get(name)
        stats = columns.get(name)
        if constraint is None or stats is None:
            continue
        if not _column_admits(constraint, stats):
            return False
    return True


def prune_partitions(
    entries: list[dict[str, Any]],
    constraints: Mapping[str, ColumnConstraint],
    prunable_columns: Iterable[str],
) -> tuple[list[dict[str, Any]], int]:
    """Split ``entries`` into (kept, pruned_count) under ``constraints``.

    ``prunable_columns`` restricts which constraint columns may prune: the
    caller passes base-table columns whose bare names are unambiguous in
    the query (not shadowed by a join right table), because
    :func:`extract_constraints` works on unqualified names.
    """
    names = set(prunable_columns)
    if not constraints or not names:
        return list(entries), 0
    kept = [e for e in entries if partition_admits(e, constraints, names)]
    return kept, len(entries) - len(kept)
