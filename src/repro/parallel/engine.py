"""The partitioned-execution coordinator.

:class:`ParallelQueryEngine` sits in front of the SQL executor's normal
root execution.  A partitioned query is the serial scan, fanned out:

1. **Decompose** the fixed planner pipeline into *uppers* (Project / TopN,
   Sort or Limit / Distinct / HAVING-Filter and the Aggregate) and the
   *lower* scan→join→WHERE pipeline that is partition-local.
2. **Pin** the base table (the scan's pin-aware binding) and validate the
   committed partition map against the pinned row count — MVCC snapshots
   see the map of their commit, so the partition list is consistent with
   the data for the whole query.
3. **Prune** with the serial scan's own :meth:`TableScan.bind` — the one
   :func:`kept_rows` call over the pinned, projected table — and cut the
   surviving rows at shard boundaries; a shard no kept block reaches gets
   no task.
4. **Gate**: the planner's cost model says whether the dispatch overhead is
   paid for.  If not, return ``None`` — the serial scan skips exactly the
   same blocks, so there is nothing the partitioned path would save.
5. **Read** through the scan's own :meth:`TableScan.read`, which charges
   simulated IO for the kept rows once (on the coordinator thread: IO scopes
   are thread-local, so worker-thread charges would never reach the
   query's scope).
6. **Fan out** the partition-local pipeline over the worker pool, traced or
   not; each task times itself and the coordinator records one
   ``parallel.partition`` span per task from those wall times.
7. **Merge** partials associatively and run the uppers once on the merged
   table — each upper operator's own :meth:`Operator.apply` on the table
   in hand, the way every task applied the plan's joins and WHERE filter;
   no node is copied or rebound.

Anything the decomposition does not recognise — no partition map, a stale
map, subqueries of unexpected shape — returns ``None`` and the executor
falls through to the standard path, so the engine can never change
semantics, pages read or blocks skipped, only execution strategy.
"""

from __future__ import annotations

import time
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.db.operators.aggregate import Aggregate
from repro.db.operators.filter import Filter
from repro.db.operators.join import HashJoin
from repro.db.operators.limit import Limit
from repro.db.operators.project import Project
from repro.db.operators.scan import KeptRows, MaterializedInput, TableScan
from repro.db.operators.sort import Sort
from repro.db.operators.topn import TopN
from repro.db.sql.planner import PlannedQuery, _Distinct
from repro.db.table import Table
from repro.parallel.kernels import GroupedPartial, partial_aggregate
from repro.parallel.merge import merge_global, merge_grouped, merge_tables
from repro.parallel.partition import PARTITION_META_KEY, partition_entries
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel.pool import WorkerPool

__all__ = ["ParallelQueryEngine"]

_UPPER_OPS = (Limit, Sort, TopN, _Distinct, Project)


class _Decomposed:
    """A planned query split at the partition boundary."""

    __slots__ = ("uppers", "aggregate", "where", "joins", "scan")

    def __init__(self) -> None:
        self.uppers: list[Any] = []
        self.aggregate: Aggregate | None = None
        self.where: Filter | None = None
        self.joins: list[HashJoin] = []
        self.scan: TableScan | None = None


def _decompose(planned: PlannedQuery) -> _Decomposed | None:
    """Split the fixed pipeline; None if the tree has an unexpected shape."""
    out = _Decomposed()
    op = planned.root
    while isinstance(op, _UPPER_OPS):
        out.uppers.append(op)
        op = op.child
    if isinstance(op, Filter) and isinstance(op.child, Aggregate):
        out.uppers.append(op)  # HAVING runs on the merged aggregate
        op = op.child
    if isinstance(op, Aggregate):
        out.aggregate = op
        op = op.child
    if isinstance(op, Filter):
        out.where = op
        op = op.child
    while isinstance(op, HashJoin):
        right = op.right.child if isinstance(op.right, Filter) else op.right
        if not isinstance(right, (TableScan, MaterializedInput)):
            return None
        out.joins.append(op)
        op = op.left
    if not isinstance(op, TableScan):
        return None
    out.scan = op
    return out


def _shard_offsets(kept: KeptRows, entries: list[dict[str, Any]], num_rows: int) -> np.ndarray:
    """Where each shard starts in the kept table, plus the kept-row total.

    The kept rows below a shard boundary are that boundary's offset into
    ``kept.take_from(table)``; consecutive equal offsets mean no kept block
    reaches the shard.
    """
    bounds = np.array([int(e["start"]) for e in entries] + [num_rows], dtype=np.int64)
    starts, stops = np.array(kept.ranges, dtype=np.int64).reshape(-1, 2).T
    return np.clip(bounds[:, None] - starts, 0, stops - starts).sum(axis=1)


class ParallelQueryEngine:
    """Partition-parallel execution strategy for planned SELECTs.

    ``planner`` owns the cost model (``planner.cost_model``); the fan-out gate
    reads it per query, so a recalibrated or restored model installed through
    ``set_cost_model`` is the one consulted.  ``tracer`` gets one
    ``parallel.partition`` span per task, ``metrics`` the task and pruning
    counters.
    """

    def __init__(
        self, catalog, planner, pool: WorkerPool, *, tracer: Tracer, metrics: MetricsRegistry
    ) -> None:
        self.catalog = catalog
        self.planner = planner
        self.pool = pool
        self.enabled = True
        self.tracer = tracer
        self.metrics = metrics

    # -- execution ----------------------------------------------------------

    def try_execute(self, planned: PlannedQuery) -> Table | None:
        """Execute ``planned`` partition-parallel, or None to fall through."""
        if not self.enabled:
            return None
        parts = _decompose(planned)
        if parts is None:
            return None
        scan = parts.scan
        catalog = scan.catalog if scan.catalog is not None else self.catalog
        payload = catalog.table_meta(scan.table.name, PARTITION_META_KEY)
        if not payload:
            return None
        base, kept = scan.bind()
        entries = partition_entries(payload, base.num_rows)
        if entries is None or len(entries) < 2:
            return None

        # Whether the rows that survive are worth a dispatch is the gate's call.
        offsets = _shard_offsets(kept, entries, base.num_rows)
        shards = [
            (entry, int(lo), int(hi))
            for entry, lo, hi in zip(entries, offsets, offsets[1:])
            if hi > lo
        ]
        workers = self.planner.cost_model.parallel_fanout(int(offsets[-1]), len(shards))
        if workers is None:
            return None

        self.metrics.inc("partitions_pruned_total", float(len(entries) - len(shards)))
        self.metrics.inc("partition_tasks_total", float(len(shards)))

        # The scan's own read: simulated IO for the rows that remain, charged
        # once, on the coordinator thread so the query's thread-local IO
        # scope sees it.
        table = scan.read(base, kept)

        # Join build sides materialise once, on the coordinator (charging
        # their scan IO once, exactly like the serial plan).
        rights = [join.right.execute() for join in parts.joins]

        tasks = [self._make_task(parts, table.slice(lo, hi), rights) for _, lo, hi in shards]
        timed = self.pool.run_tasks(tasks, workers=workers)
        if self.tracer.active:
            # Spans are thread-local, so each task timed itself and the
            # thread that owns the trace records it.
            for (entry, _, _), (_, started_at, seconds) in zip(shards, timed):
                self.tracer.record(
                    "parallel.partition",
                    started_at,
                    seconds,
                    partition=int(entry["id"]),
                    start=int(entry["start"]),
                    rows=int(entry["rows"]),
                )
        partials = [partial for partial, _, _ in timed]

        if parts.aggregate is not None:
            if parts.aggregate.group_by:
                merged = merge_grouped(parts.aggregate, partials)
            else:
                merged = merge_global(parts.aggregate, partials)
        else:
            merged = merge_tables(partials)

        for op in reversed(parts.uppers):
            merged = op.apply(merged)
        return merged

    def _make_task(
        self,
        parts: _Decomposed,
        piece: Table,
        rights: list[Table],
    ) -> Callable[[], tuple[GroupedPartial | Table, float, float]]:
        """One partition's task: its kept rows -> joins -> WHERE -> partial.

        Returns ``(partial, started_at, elapsed_seconds)`` — the task's own
        wall time, which the coordinator turns into its span.
        """
        aggregate = parts.aggregate
        where = parts.where
        joins = parts.joins

        def task():
            started_at, started = time.time(), perf_counter()
            current = piece
            for join, right_table in zip(reversed(joins), reversed(rights)):
                current = join.apply(current, right_table)
            if where is not None:
                current = where.apply(current)
            if aggregate is not None:
                current = partial_aggregate(aggregate, current)
            return current, started_at, perf_counter() - started

        return task
