"""One pruning rule: a partitioned query reads what its serial run reads."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.db.column import BLOCK_ROWS

EXACT = AccuracyContract(mode="exact")

PREDICATES = [
    "y < 50",
    "y >= 990",
    "y BETWEEN 300 AND 310",
    "y > 1000000",
    "y IN (5, 500, 995)",
    "y = 123",
    "y < 100 AND x > 0.0",
    "y >= 10 AND y <= 20 AND k = 3",
]

#: Beyond PREDICATES: an all-NULL column (every complete block goes, the tail
#: stays), a residual-only predicate (nothing goes) and no predicate at all.
EXTRA_PREDICATES = ["s = 1", "y + y < 10", "y >= 0"]

TOP_BOUNDED = "SELECT y, x FROM t ORDER BY x DESC, y LIMIT 10 OFFSET 3"


def _build(partitions: int) -> LawsDatabase:
    """Five blocks' worth of rows clustered on ``y``, partitioned, with a cost
    model under which every dispatch is free — so whatever has two live shards
    fans out (the default gate keeps a table this small serial)."""
    rng = np.random.default_rng(42)
    rows = 4 * BLOCK_ROWS + 904
    db = LawsDatabase()
    db.load_dict(
        "t",
        {
            "k": rng.integers(0, 8, rows).tolist(),
            "x": rng.normal(0, 1, rows).tolist(),
            "y": np.sort(rng.integers(0, 1000, rows)).tolist(),
            "s": [None] * rows,
        },
    )
    db.partition_table("t", partitions=partitions)
    free_dispatch = OperatorCosts(parallel_task_overhead_seconds=0.0)
    db.planner.set_cost_model(CostModel(free_dispatch, source="test:free-dispatch"))
    return db


def _run(db: LawsDatabase, sql: str, parallel: bool) -> dict:
    """What a query returns, reads and skips — and how many tasks it took."""
    counters = ("scan_blocks_pruned_total", "partition_tasks_total")
    before = [db.obs.metrics.counter_total(name) for name in counters]
    db.parallel.enabled = parallel
    try:
        answer = db.query(sql, EXACT)
    finally:
        db.parallel.enabled = True
    pruned, tasks = (db.obs.metrics.counter_total(n) - b for n, b in zip(counters, before))
    return {
        "rows": answer.rows(),
        "pages_read": answer.io["pages_read"],
        "blocks_pruned": pruned,
        "tasks": tasks,
    }


def _assert_strategy_independent(db: LawsDatabase, sql: str) -> float:
    """Serial and partitioned runs agree *exactly*; returns the tasks fanned out."""
    serial = _run(db, sql, parallel=False)
    partitioned = _run(db, sql, parallel=True)
    assert serial.pop("tasks") == 0
    tasks = partitioned.pop("tasks")
    assert partitioned == serial, sql
    return tasks


def _queries(predicate: str) -> list[str]:
    # Rows merge by concatenation and integer sums are exact in any order, so
    # both shapes compare with ``==`` (a float sum would round per shard).
    return [
        f"SELECT k, x, y FROM t WHERE {predicate}",
        f"SELECT count(*), sum(k), min(x), max(x) FROM t WHERE {predicate}",
        f"SELECT k, count(*), sum(y) FROM t WHERE {predicate} GROUP BY k ORDER BY k",
    ]


class TestStrategyIndependence:
    @pytest.mark.parametrize("predicate", PREDICATES + EXTRA_PREDICATES)
    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_partitioned_equals_serial(self, predicate: str, partitions: int) -> None:
        db = _build(partitions)
        for sql in _queries(predicate):
            _assert_strategy_independent(db, sql)

    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_fan_out_is_the_planner_cost_models_call(self, partitions: int) -> None:
        """The gate consults ``planner.cost_model``: the free-dispatch model
        fans out one task per shard, the default one keeps 5 000 rows serial."""
        db = _build(partitions)
        sql = _queries("y >= 0")[1]
        assert _assert_strategy_independent(db, sql) == partitions
        db.planner.set_cost_model(CostModel())
        assert _assert_strategy_independent(db, sql) == 0

    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_shards_no_kept_block_reaches_get_no_task(self, partitions: int) -> None:
        db = _build(partitions)
        before = db.obs.metrics.counter_total("partitions_pruned_total")
        # Block 0 and the always-kept tail survive: only the shards those two
        # row ranges overlap get a task, the ones in between are counted.
        tasks = _assert_strategy_independent(db, _queries("y < 50")[1])
        assert tasks == {2: 2, 7: 4, 16: 7}[partitions]
        pruned = db.obs.metrics.counter_total("partitions_pruned_total") - before
        assert pruned == partitions - tasks

    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_top_bounded_scan(self, partitions: int) -> None:
        db = _build(partitions)
        assert _assert_strategy_independent(db, TOP_BOUNDED) > 0

    @pytest.mark.parametrize("partitions", [2, 7, 16])
    def test_rows_appended_past_built_rows(self, partitions: int) -> None:
        """The implicit tail shard is one more shard of the same kept rows."""
        db = _build(partitions)
        db.insert_rows("t", [(3, 0.5, 5, None)] * (BLOCK_ROWS + 200))
        for predicate in ("y = 5", "y >= 990", "s = 1"):
            for sql in _queries(predicate):
                _assert_strategy_independent(db, sql)
        assert _assert_strategy_independent(db, _queries("y = 5")[1]) > 0
        assert db.query(_queries("y = 5")[1], EXACT).rows()[0][0] >= BLOCK_ROWS + 200


class TestPageIOReduction:
    def test_selective_range_predicate_saves_5x_pages(self) -> None:
        """ISSUE acceptance: >=5x page-IO reduction on a selective range scan."""
        rng = np.random.default_rng(3)
        rows = 200_000
        db = LawsDatabase(observability=False)
        db.load_dict(
            "t",
            {
                "y": np.sort(rng.integers(0, 1000, rows)).tolist(),
                "x": rng.normal(0, 1, rows).tolist(),
            },
        )
        db.partition_table("t", partitions=16)
        sql = "SELECT count(*), sum(x) FROM t WHERE y BETWEEN 100 AND 140"

        # The unpruned baseline is a scan that reads every block of both
        # columns.  Disabling the parallel engine no longer gives one: a
        # serial scan skips blocks on its own synopses, so on this clustered
        # column it must show the same >=5x saving by itself.
        db.parallel.enabled = False
        with db.database.io_model.scope() as unpruned_scope:
            db.database.sql("SELECT count(y), sum(x) FROM t")
        with db.database.io_model.scope() as serial_scope:
            oracle = db.database.sql(sql).rows()
        db.parallel.enabled = True
        with db.database.io_model.scope() as pruned_scope:
            result = db.database.sql(sql).rows()

        assert result[0][0] == oracle[0][0]
        unpruned_pages = unpruned_scope.snapshot()["pages_read"]
        for label, scope in (("partitioned", pruned_scope), ("serial", serial_scope)):
            pruned_pages = scope.snapshot()["pages_read"]
            assert pruned_pages > 0
            assert unpruned_pages / pruned_pages >= 5.0, (
                f"{label} page-IO reduction {unpruned_pages}/{pruned_pages} below 5x"
            )
