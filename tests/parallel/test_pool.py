"""Worker-pool semantics: task order, retry-once, degrade-to-serial chaos."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import InjectedFault
from repro.obs import EventJournal, MetricsRegistry
from repro.parallel.pool import WorkerPool
from repro.resilience.faults import FaultInjector, FaultSpec


def make_pool(faults: FaultInjector | None = None, **kwargs) -> WorkerPool:
    """A pool reporting to collectors of its own (the façade passes the hub's)."""
    return WorkerPool(journal=EventJournal(), metrics=MetricsRegistry(), faults=faults, **kwargs)


class TestWorkerPool:
    def test_results_in_task_order(self) -> None:
        pool = make_pool(max_workers=4)
        assert pool.run_tasks([lambda i=i: i * i for i in range(10)]) == [
            i * i for i in range(10)
        ]

    def test_retry_once_recovers_without_degrading(self) -> None:
        pool = make_pool(
            FaultInjector([FaultSpec("parallel.worker.task", "exception", hit=1)]),
            max_workers=2,
            deadline_seconds=5.0,
        )
        assert pool.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        assert pool.metrics.counter_value("parallel_retries_total") == 1.0
        assert pool.metrics.counter_value("parallel_degraded_total") == 0.0
        assert pool.journal.events(kind="parallel-degraded") == []

    def test_repeat_exception_degrades_to_serial(self) -> None:
        pool = make_pool(
            FaultInjector(
                [
                    FaultSpec("parallel.worker.task", "exception", hit=1),
                    FaultSpec("parallel.worker.task", "exception", hit=2),
                ]
            ),
            max_workers=2,
            deadline_seconds=5.0,
        )
        assert pool.run_tasks([lambda: 7]) == [7]  # degraded run still answers
        assert pool.metrics.counter_value("parallel_degraded_total") == 1.0
        events = pool.journal.events(kind="parallel-degraded")
        assert len(events) == 1
        assert "InjectedFault" in events[0].fields["error"]

    def test_hang_past_deadline_degrades(self) -> None:
        pool = make_pool(
            FaultInjector(
                [
                    FaultSpec("parallel.worker.task", "latency", hit=1, latency_seconds=0.5),
                    FaultSpec("parallel.worker.task", "latency", hit=2, latency_seconds=0.5),
                ]
            ),
            max_workers=2,
            deadline_seconds=0.05,
        )
        assert pool.run_tasks([lambda: "ok"]) == ["ok"]
        assert pool.metrics.counter_value("parallel_degraded_total") == 1.0
        assert "TimeoutError" in pool.journal.events(kind="parallel-degraded")[0].fields["error"]

    def test_genuine_error_still_raises_after_degrade(self) -> None:
        pool = make_pool(max_workers=2, deadline_seconds=5.0)

        def bad() -> None:
            raise ValueError("task bug, not a fault")

        with pytest.raises(ValueError):
            pool.run_tasks([bad])


class TestOneExecutionPath:
    @pytest.mark.parametrize("observability", [True, False])
    def test_query_runs_its_tasks_through_the_pool(self, observability: bool) -> None:
        """Traced or not, a partitioned ``query()`` reaches ``run_tasks`` once;
        only the spans differ, recorded from each task's own wall time."""
        rows, partitions = 400_000, 8
        rng = np.random.default_rng(9)
        db = LawsDatabase(observability=observability)
        schema = Schema.of(k=DataType.INT64, x=DataType.FLOAT64)
        arrays = {"k": rng.integers(0, 10, rows), "x": rng.normal(1.0, 2.0, rows)}
        db.register_table(Table.from_numpy("t", schema, arrays))
        db.partition_table("t", partitions=partitions)

        with mock.patch.object(db.parallel.pool, "run_tasks", wraps=db.parallel.pool.run_tasks) as run:
            answer = db.query(
                "SELECT k, count(*) FROM t GROUP BY k ORDER BY k", AccuracyContract(mode="exact")
            )
        assert answer.rows() == [(k, int(n)) for k, n in enumerate(np.bincount(arrays["k"]))]
        assert run.call_count == 1
        assert len(run.call_args.args[0]) == partitions

        trace = db.last_trace()
        if not observability:
            assert trace is None
            return
        spans = [span for span in trace.walk() if span.name == "parallel.partition"]
        entries = db.partition_map("t")["partitions"]
        assert [span.attributes for span in spans] == [
            {"partition": e["id"], "start": e["start"], "rows": e["rows"]} for e in entries
        ]
        assert all(span.elapsed_seconds > 0 and span.started_at > 0 for span in spans)


class TestChaosPartitionedQuery:
    @pytest.mark.parametrize("entry", ["query", "database.sql"])
    def test_worker_faults_degrade_but_query_answers_correctly(self, entry: str) -> None:
        """Chaos coverage of ``parallel.worker.task``.

        Two scheduled worker faults force retry-then-degrade in the middle
        of a partitioned GROUP BY; the query must still return the oracle
        answer, journal the degrade and bump ``parallel_degraded_total`` —
        through ``query()`` under default observability (a trace is open)
        as well as through the bare SQL front end.
        """
        # 8 partition tasks arrive as hits 1-8; the single first-pass fault
        # (hit 2) forces one retry, which arrives as hit 9 and faults again,
        # forcing the degrade path.
        injector = FaultInjector(
            [
                FaultSpec("parallel.worker.task", "exception", hit=2),
                FaultSpec("parallel.worker.task", "exception", hit=9),
            ]
        )
        rng = np.random.default_rng(5)
        rows = 120_000
        data = {
            "k": rng.integers(0, 10, rows).tolist(),
            "x": rng.normal(1.0, 2.0, rows).tolist(),
        }
        sql = "SELECT k, count(*), sum(x) FROM t GROUP BY k ORDER BY k"

        oracle_db = LawsDatabase(observability=False)
        oracle_db.load_dict("t", data)
        oracle_db.parallel.enabled = False
        oracle = oracle_db.database.sql(sql).rows()

        db = LawsDatabase(fault_injector=injector)
        db.load_dict("t", data)
        db.partition_table("t", partitions=8)
        if entry == "query":
            result = db.query(sql, AccuracyContract(mode="exact")).rows()
        else:
            result = db.database.sql(sql).rows()

        assert [r[:2] for r in result] == [r[:2] for r in oracle]
        for got, want in zip(result, oracle):
            assert got[2] == pytest.approx(want[2], rel=1e-9)
        assert any(event.point == "parallel.worker.task" for event in injector.fired())
        counters = db.metrics()["counters"]
        assert "parallel_degraded_total" in counters
        assert len(db.events(kind="parallel-degraded")) == 1
