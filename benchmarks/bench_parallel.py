"""Partitioned parallel-execution benchmarks.

Measures the two partition-parallel hot paths (scan+filter and grouped
aggregation) plus partition pruning, and emits ``BENCH_parallel.json``.

Per-task kernel times are measured by running the engine's *real* partition
task closures through an instrumented pool; wall-clock for W workers is then
modeled as the LPT (longest-processing-time) critical path over those task
times plus the measured coordinator overhead (prune + dispatch + merge +
upper operators) and the measured per-task pool overhead.  CI containers
are single-CPU, so measured multi-worker wall time says nothing about the
schedule the engine produces — the emitted entries carry ``"modeled": true``
and ``host_cpus`` so nobody mistakes them for measured elapsed time.  On a
multi-core host the entries additionally carry
``measured_seconds_by_workers`` / ``measured_speedup_by_workers`` — real
wall clock with an actual pool of each size — but the regression-gate keys
stay on the modeled figures so CI baselines are host-independent.  The
pruning page-IO reduction, by contrast, is measured directly from the IO
model's page accounting.

Usage::

    python benchmarks/bench_parallel.py [--rows 1000000] [--output BENCH_parallel.json]

The emitted JSON is the committed perf baseline; CI re-runs this script and
fails when ``speedup_vs_seed`` of any hot path regresses more than 2x
(see ``benchmarks/check_hotpath_regression.py``).  The ``parallel`` block
is the calibration payload understood by
``OperatorCosts.from_bench_payload`` (task-dispatch overheads for the
planner's fan-out threshold).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import LawsDatabase  # noqa: E402
from repro.parallel.pool import WorkerPool, _fork_available  # noqa: E402

ROUNDS = 3
PARTITIONS = 8
PRUNE_PARTITIONS = 16
WORKER_COUNTS = (1, 2, 4)


def _best(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


class TimingPool(WorkerPool):
    """Runs the engine's real partition tasks serially, recording each one."""

    def __init__(self) -> None:
        super().__init__(max_workers=1)
        self.task_seconds: list[float] = []

    def run_tasks(self, tasks, workers=None, backend=None):  # noqa: ARG002
        results = []
        for task in tasks:
            started = perf_counter()
            results.append(task())
            self.task_seconds.append(perf_counter() - started)
        return results


def lpt_makespan(task_seconds: list[float], workers: int) -> float:
    """Critical path of a greedy longest-first schedule on ``workers``."""
    loads = [0.0] * max(1, workers)
    for seconds in sorted(task_seconds, reverse=True):
        loads[loads.index(min(loads))] += seconds
    return max(loads)


def _build_db(rows: int, seed: int = 42) -> LawsDatabase:
    rng = np.random.default_rng(seed)
    db = LawsDatabase(observability=False)
    db.load_dict(
        "t",
        {
            "k": rng.integers(0, 100, rows).tolist(),
            "x": rng.normal(10.0, 3.0, rows).tolist(),
            "y": np.sort(rng.integers(0, 1000, rows)).tolist(),
        },
    )
    return db


def _measure_task_overheads() -> tuple[float, float | None]:
    """Measured per-task dispatch cost of each pool backend."""
    tasks = [lambda: None for _ in range(64)]
    pool = WorkerPool(max_workers=4)
    thread_overhead = _best(lambda: pool.run_tasks(tasks)) / len(tasks)
    process_overhead = None
    if _fork_available():
        small = [lambda: None for _ in range(8)]
        proc_pool = WorkerPool(max_workers=2, backend="process")
        process_overhead = _best(lambda: proc_pool.run_tasks(small), rounds=2) / len(small)
    return thread_overhead, process_overhead


def _bench_hot_path(db: LawsDatabase, sql: str, rows: int, task_overhead: float) -> dict:
    engine = db.parallel
    real_pool = engine.pool

    engine.enabled = False
    serial_seconds = _best(lambda: db.database.sql(sql).rows())
    engine.enabled = True

    # Best-of-N over the whole partitioned run; keep the task breakdown of
    # the best round so coordinator overhead and makespan stay consistent.
    best = None
    try:
        for _ in range(ROUNDS):
            timing = TimingPool()
            engine.pool = timing
            started = perf_counter()
            db.database.sql(sql).rows()
            wall = perf_counter() - started
            if not timing.task_seconds:
                raise RuntimeError(f"engine did not fan out for: {sql}")
            if best is None or wall < best[0]:
                best = (wall, list(timing.task_seconds))
    finally:
        engine.pool = real_pool

    serial_partitioned_seconds, task_seconds = best
    coordinator_seconds = max(0.0, serial_partitioned_seconds - sum(task_seconds))

    modeled = {}
    for workers in WORKER_COUNTS:
        makespan = lpt_makespan(task_seconds, workers)
        dispatch = task_overhead * math.ceil(len(task_seconds) / workers)
        modeled[str(workers)] = coordinator_seconds + makespan + dispatch
    modeled_best = modeled[str(max(WORKER_COUNTS))]

    # On a multi-core host, also measure *real* wall clock per worker count
    # by swapping in an actual pool of that size.  These are informational
    # alongside the modeled numbers — the regression gate keys (``seconds``,
    # ``speedup_vs_seed``) stay on the modeled figures so single-CPU CI
    # containers produce stable baselines.
    measured: dict[str, float] = {}
    host_cpus = os.cpu_count() or 1
    if host_cpus > 1:
        try:
            for workers in WORKER_COUNTS:
                engine.pool = WorkerPool(max_workers=workers)
                measured[str(workers)] = _best(lambda: db.database.sql(sql).rows())
        finally:
            engine.pool = real_pool

    entry = {
        "sql": sql,
        "rows_in": rows,
        "partitions": len(task_seconds),
        "modeled": True,
        "host_cpus": os.cpu_count(),
        "reference": "non-partitioned vectorized execution (engine disabled)",
        "reference_seconds": serial_seconds,
        "serial_partitioned_seconds": serial_partitioned_seconds,
        "task_seconds": task_seconds,
        "coordinator_seconds": coordinator_seconds,
        "modeled_seconds_by_workers": modeled,
        "seconds": modeled_best,
        "rows_per_second": rows / modeled_best,
        "speedup_vs_seed": serial_seconds / modeled_best,
    }
    if measured:
        entry["measured_seconds_by_workers"] = measured
        entry["measured_speedup_by_workers"] = {
            workers: serial_seconds / seconds for workers, seconds in measured.items()
        }
    return entry


def _bench_pruning(db: LawsDatabase, rows: int) -> dict:
    sql = "SELECT count(*) AS n, sum(x) AS s FROM t WHERE y BETWEEN 100 AND 140"
    io_model = db.database.io_model

    # The reference reads every block of both columns.  (The serial plan of
    # ``sql`` itself no longer does: its scan prunes blocks on its own.)
    with io_model.scope() as unpruned:
        db.database.sql("SELECT count(y) AS n, sum(x) AS s FROM t").rows()
    unpruned_pages = unpruned.snapshot()["pages_read"]

    pruned_seconds = _best(lambda: db.database.sql(sql).rows())
    with io_model.scope() as pruned:
        db.database.sql(sql).rows()
    pruned_pages = pruned.snapshot()["pages_read"]

    return {
        "sql": sql,
        "rows_in": rows,
        "partitions": PRUNE_PARTITIONS,
        "pages_full_scan": unpruned_pages,
        "pages_after_pruning": pruned_pages,
        "seconds": pruned_seconds,
        "rows_per_second": rows / pruned_seconds,
        "reference": "full-table page reads without partition pruning",
        # The gated "speedup" for this entry is the page-IO reduction
        # factor — it is measured (simulated page accounting), not modeled.
        "speedup_vs_seed": unpruned_pages / pruned_pages,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--output", type=Path, default=Path("BENCH_parallel.json"))
    args = parser.parse_args(argv)

    thread_overhead, process_overhead = _measure_task_overheads()

    db = _build_db(args.rows)
    db.partition_table("t", partitions=PARTITIONS)
    hot_paths = {
        "parallel_scan_filter": _bench_hot_path(
            db,
            "SELECT count(*) AS n, sum(x) AS s FROM t WHERE x > 10.0",
            args.rows,
            thread_overhead,
        ),
        "parallel_group_by": _bench_hot_path(
            db,
            "SELECT k, count(*) AS n, sum(x) AS s, avg(x) AS m, stddev(x) AS sd "
            "FROM t GROUP BY k",
            args.rows,
            thread_overhead,
        ),
    }

    prune_db = _build_db(args.rows, seed=7)
    prune_db.partition_table("t", partitions=PRUNE_PARTITIONS)
    hot_paths["partition_pruning"] = _bench_pruning(prune_db, args.rows)

    payload = {
        "benchmark": "bench_parallel",
        "generated_by": "benchmarks/bench_parallel.py",
        "schema_version": 1,
        "rows": args.rows,
        "rounds": ROUNDS,
        "host_cpus": os.cpu_count(),
        "hot_paths": hot_paths,
        "parallel": {
            "task_overhead_seconds": thread_overhead,
            **(
                {"process_task_overhead_seconds": process_overhead}
                if process_overhead is not None
                else {}
            ),
            "max_workers": max(WORKER_COUNTS),
        },
    }
    args.output.write_text(json.dumps(payload, indent=1) + "\n")

    for name, entry in hot_paths.items():
        print(
            f"{name:<22} speedup_vs_seed={entry['speedup_vs_seed']:.1f}x "
            f"rate={entry['rows_per_second']:,.0f} rows/s"
            + (" (modeled)" if entry.get("modeled") else " (measured)")
        )
        for workers, speedup in entry.get("measured_speedup_by_workers", {}).items():
            print(f"{'':<22} measured {workers} worker(s): {speedup:.2f}x wall-clock")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
