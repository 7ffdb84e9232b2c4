"""The planner's cost model.

Every unified plan carries a predicted cost per candidate node.  The
per-operator unit costs start from the constants below — the rates the
hot-path bench (``benchmarks/bench_hotpaths.py``) measured on the baseline
machine — and are the *prior* of the adaptive calibrator
(:class:`repro.obs.calibration.CostCalibrator`), which replaces them with
rates observed on this very process.  One model per database: the planner
owns it and the partitioned engine's fan-out gate reads the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from repro.db.sql.ast import SelectStatement

__all__ = ["OperatorCosts", "CostModel", "TableSize"]


class TableSize(NamedTuple):
    """What exact costing reads of a table: its rows and nominal bytes."""

    row_count: int
    byte_size: int


@dataclass(frozen=True)
class OperatorCosts:
    """Per-operator unit costs, in seconds (defaults: 100k-row hot paths on
    the baseline machine)."""

    scan_seconds_per_row: float = 1.0 / 12_611_838.632478088
    group_by_seconds_per_row: float = 1.0 / 15_756_681.541670367
    join_seconds_per_row: float = 1.0 / 12_341_353.443447724
    #: One captured-model evaluation over one domain point (a small numpy
    #: expression over fitted parameters) — not measured by the hot-path
    #: bench; validated by ``benchmarks/bench_planner.py``.
    model_eval_seconds: float = 2.0e-5
    #: Fixed per-query overhead of a plan-cached execution (from the
    #: ``repeated_query`` hot path: ~2500 queries/second end to end).
    query_fixed_seconds: float = 1.0 / 2563.7506728888584
    #: Simulated storage bandwidth (matches :class:`IOParameters`' default
    #: SSD model): exact execution pays this for every base-table byte it
    #: scans, model routes read no pages at all — the paper's zero-IO
    #: argument, made visible to the cost-based route choice.
    io_bytes_per_second: float = 500e6
    #: Fixed cost of dispatching one partition task to a pool thread
    #: (submit + future wakeup + partial-state merge share).
    parallel_task_overhead_seconds: float = 2.5e-4
    #: Pool width the fan-out decision plans for.
    parallel_max_workers: int = 4


class CostModel:
    """Predicts execution cost (seconds) for unified-plan candidates.

    ``source`` is the calibration provenance — where the per-operator rates
    came from — rendered by ``explain()`` so every plan discloses whether it
    was costed against the built-in constants, rates the adaptive calibrator
    observed on this very process, or a checkpoint's restored calibration.
    """

    def __init__(self, costs: OperatorCosts | None = None, source: str = "builtin-defaults") -> None:
        self.costs = costs or OperatorCosts()
        self.source = source

    # -- predictions ----------------------------------------------------------

    def exact_seconds(self, statement: SelectStatement, sizes: Mapping[str, TableSize]) -> float:
        """Predicted cost of exact vectorized execution of ``statement``."""
        costs = self.costs
        base_rows = 0
        scanned_bytes = 0
        if statement.table is not None:
            base = sizes.get(statement.table.name)
            if base is not None:
                base_rows = base.row_count
                scanned_bytes = base.byte_size
        seconds = costs.query_fixed_seconds + base_rows * costs.scan_seconds_per_row
        for join in statement.joins:
            right = sizes.get(join.table.name)
            if right is not None:
                seconds += (base_rows + right.row_count) * costs.join_seconds_per_row
                scanned_bytes += right.byte_size
            else:
                seconds += base_rows * costs.join_seconds_per_row
        if statement.group_by:
            seconds += base_rows * costs.group_by_seconds_per_row
        return seconds + scanned_bytes / costs.io_bytes_per_second

    def parallel_fanout(self, rows: int, num_partitions: int) -> int | None:
        """Decide whether fanning a ``rows``-row scan across partitions pays.

        Returns the worker count when the modelled parallel critical path —
        the per-worker row share plus one dispatch overhead per partition
        task — beats single-threaded row cost, ``None`` otherwise.  Small
        tables lose to dispatch overhead and stay serial.  Deliberately *not*
        clamped to ``os.cpu_count()``: on single-core CI the thread pool must
        still be exercised.
        """
        costs = self.costs
        workers = min(costs.parallel_max_workers, num_partitions)
        if workers < 2 or rows <= 0:
            return None
        serial_seconds = rows * costs.scan_seconds_per_row
        tasks_per_worker = -(-num_partitions // workers)  # ceil
        parallel_seconds = (
            serial_seconds / workers
            + tasks_per_worker * costs.parallel_task_overhead_seconds
        )
        return workers if parallel_seconds < serial_seconds else None

    def exact_fill_seconds(
        self, uncovered_rows: float, fill_scan_rows: float | None = None
    ) -> float:
        """The exact fill-in half of a hybrid plan: a scan of
        ``fill_scan_rows`` (the whole base table — the membership filter
        happens after the scan) and grouped aggregation over the
        ``uncovered_rows`` that survive it.  No per-query fixed charge: the
        fill-in runs inside the same query."""
        costs = self.costs
        scanned = uncovered_rows if fill_scan_rows is None else fill_scan_rows
        return (
            scanned * costs.scan_seconds_per_row
            + uncovered_rows * costs.group_by_seconds_per_row
        )

    def model_route_seconds(
        self,
        est_points: int,
        uncovered_rows: float = 0.0,
        fill_scan_rows: float | None = None,
    ) -> float:
        """Predicted cost of serving from models: ``est_points`` model
        evaluations plus — for hybrid plans — the exact fill-in, with the
        per-query fixed overhead charged exactly once."""
        costs = self.costs
        seconds = costs.query_fixed_seconds + est_points * costs.model_eval_seconds
        if uncovered_rows > 0:
            seconds += self.exact_fill_seconds(uncovered_rows, fill_scan_rows)
        return seconds
