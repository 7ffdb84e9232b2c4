"""Partitioned parallel execution.

Tables are sharded into contiguous row-range partitions (the PR-5 ``.npz``
segment manifest doubles as the partition map), the plan's own joins,
filters and :meth:`~repro.db.operators.aggregate.Aggregate.reduce` run per
partition on a worker pool, and the coordinator combines the results — the
aggregate states with the same ``Aggregate.merge`` / ``finalize`` a serial
execution uses, joins and plain row streams by concatenation in partition
order — which reproduces the single-partition operator semantics exactly
(group first-occurrence order, left-row-major join order).

Pruning is the serial scan's: the coordinator makes the one
:func:`repro.db.operators.scan.kept_rows` call over the pinned table and cuts
the surviving rows at shard boundaries, so a partitioned query reads exactly
the pages — and skips exactly the blocks — its serial run would.
"""

from repro.parallel.engine import ParallelQueryEngine
from repro.parallel.partition import (
    PARTITION_META_KEY,
    build_partition_map,
    partition_map_from_segments,
    partition_entries,
)
from repro.parallel.pool import WorkerPool

__all__ = [
    "PARTITION_META_KEY",
    "ParallelQueryEngine",
    "WorkerPool",
    "build_partition_map",
    "partition_map_from_segments",
    "partition_entries",
]
