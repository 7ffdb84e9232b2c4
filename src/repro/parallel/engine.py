"""The partitioned-execution coordinator.

:class:`ParallelQueryEngine` sits in front of the SQL executor's normal
root execution.  Given a planned SELECT it decides, per query, whether the
partitioned path applies and pays:

1. **Decompose** the fixed planner pipeline into *uppers* (Project / TopN,
   Sort or Limit / Distinct / HAVING-Filter and the Aggregate) and the
   *lower* scan→join→WHERE pipeline that is partition-local.
2. **Pin** the base table (the scan's pin-aware binding) and validate the
   committed partition map against the pinned row count — MVCC snapshots
   see the map of their commit, so the partition list is consistent with
   the data for the whole query.
3. **Prune** partitions whose per-shard min/max statistics provably cannot
   satisfy the scan's WHERE constraints, then — with the very helper a
   serial scan uses — the blocks inside each kept shard whose synopses
   cannot either (or, under a scan's top bound, cannot hold one of the
   table's best rows), and charge simulated IO for the rows that remain (on the
   coordinator thread: IO scopes are thread-local, so worker-thread charges
   would never reach the query's scope).
4. **Fan out** the partition-local pipeline to the worker pool when the
   planner cost model says the dispatch overhead is paid for, serially
   otherwise (pruning alone can justify the partitioned path).
5. **Merge** partials associatively and run the uppers once on the merged
   table — upper operators are reused verbatim on a rebound shallow copy.

Anything the decomposition does not recognise — no partition map, a stale
map, subqueries of unexpected shape — returns ``None`` and the executor
falls through to the standard path, so the engine can never change
semantics, only execution strategy.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.core.planner.cost import CostModel
from repro.db.operators.aggregate import Aggregate
from repro.db.operators.filter import Filter
from repro.db.operators.join import HashJoin
from repro.db.operators.limit import Limit
from repro.db.operators.project import Project
from repro.db.operators.scan import MaterializedInput, TableScan, kept_rows
from repro.db.operators.sort import Sort
from repro.db.operators.topn import TopN
from repro.db.sql.planner import PlannedQuery, _Distinct
from repro.db.table import Table
from repro.parallel.kernels import GroupedPartial, partial_aggregate
from repro.parallel.merge import merge_global, merge_grouped, merge_tables
from repro.parallel.partition import PARTITION_META_KEY, partition_entries
from repro.parallel.pool import WorkerPool
from repro.parallel.pruning import prune_partitions

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


class ParallelQueryEngine:
    """Partition-parallel execution strategy for planned SELECTs."""

    def __init__(
        self,
        catalog,
        io_model=None,
        cost_model: CostModel | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.catalog = catalog
        self.io_model = io_model
        self.cost_model = cost_model or CostModel()
        self.pool = pool or WorkerPool()
        self.enabled = True
        # Injected by the owning system (all optional).
        self.tracer = None
        self.metrics = None
        self.journal = None

    # -- helpers ------------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount, **labels)

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
        base = scan._bind_table()
        entries = partition_entries(payload, base.num_rows)
        if entries is None or len(entries) < 2:
            return None

        # The planner already restricted the scan's constraints to columns
        # the WHERE can only mean the base table by.  Shards first, then —
        # inside each kept shard — the blocks a serial scan would skip too.
        # A top-bounded scan has no WHERE, so no shard goes; whether the few
        # blocks it keeps are worth a dispatch is the gate's call below.
        constraints = scan.constraints
        kept, pruned_count = prune_partitions(entries, constraints, constraints)
        if scan.projected_columns is not None:
            base = base.select(scan.projected_columns)
        shards = [
            kept_rows(base, constraints, int(e["start"]), int(e["start"]) + int(e["rows"]), scan.top)
            for e in kept
        ]
        rows = sum(stop - start for shard in shards for start, stop in shard.ranges)
        fanout = self.cost_model.parallel_fanout(rows, len(kept))
        if pruned_count == 0 and fanout is None:
            return None  # nothing saved, nothing sped up
        workers, backend = fanout if fanout is not None else (1, "thread")

        self._count("partitions_pruned_total", float(pruned_count))
        self._count("partition_tasks_total", float(len(kept)))

        # Simulated IO for the rows that remain, charged on the coordinator
        # thread so the query's thread-local IO scope sees it.  Pruned shards
        # and blocks are never charged — that is the pruning win.
        pieces = [shard.take_from(base) for shard in shards]
        if self.io_model is not None:
            blocks_pruned = sum(shard.blocks_pruned for shard in shards)
            if blocks_pruned:
                self.io_model.skip_blocks(blocks_pruned)
            for piece in pieces:
                self.io_model.charge_scan(piece)

        # Join build sides materialise once, on the coordinator (charging
        # their scan IO once, exactly like the serial plan).
        rights = [join.right.execute() for join in parts.joins]

        if not kept:
            # All shards pruned: one empty partial keeps aggregate semantics
            # (COUNT(*) -> 0, SUM -> NULL) without special cases.
            kept = [{"id": -1, "start": 0, "rows": 0}]
            pieces = [base.slice(0, 0)]

        tasks = [self._make_task(parts, piece, rights) for piece in pieces]
        tracer = self.tracer
        if tracer is not None and tracer.active:
            # Diagnostic mode: spans are thread-local, so traced queries run
            # their partitions serially under per-partition spans.
            partials = []
            for entry, task in zip(kept, tasks):
                with tracer.span(
                    "parallel.partition",
                    partition=int(entry["id"]),
                    start=int(entry["start"]),
                    rows=int(entry["rows"]),
                ):
                    partials.append(task())
        else:
            partials = self.pool.run_tasks(tasks, workers=workers, backend=backend)

        if parts.aggregate is not None:
            if parts.aggregate.group_by:
                merged = merge_grouped(parts.aggregate, partials)
            else:
                merged = merge_global(parts.aggregate, partials)
        else:
            merged = merge_tables(partials)

        node: Any = MaterializedInput(merged)
        for op in reversed(parts.uppers):
            rebound = copy.copy(op)
            rebound.child = node
            node = rebound
        return node.execute()

    def _make_task(
        self,
        parts: _Decomposed,
        piece: Table,
        rights: list[Table],
    ) -> Callable[[], GroupedPartial | Table]:
        """Build one partition's task: its kept rows -> joins -> WHERE -> partial."""
        aggregate = parts.aggregate
        where = parts.where
        joins = parts.joins

        def task():
            current = piece
            for join, right_table in zip(reversed(joins), reversed(rights)):
                current = HashJoin(
                    MaterializedInput(current),
                    MaterializedInput(right_table),
                    join.left_keys,
                    join.right_keys,
                ).execute()
            if where is not None:
                current = Filter(MaterializedInput(current), where.predicate).execute()
            if aggregate is not None:
                return partial_aggregate(aggregate, current)
            return current

        return task
