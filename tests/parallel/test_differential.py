"""Differential property suite: partitioned execution equals the oracle.

Every query runs twice on identical data — once through the partitioned
path, once with the engine disabled (the single-partition oracle) — across
partition counts {1, 2, 7, 16}.  Row membership, group keys and integer
aggregates must match exactly; float aggregates (sum/avg/var/stddev) are
compared with a tolerance because partitioned partial sums legitimately
round differently than one single-pass reduction.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts

PARTITION_COUNTS = (1, 2, 7, 16)

QUERIES = [
    "SELECT id, k, x, y FROM facts WHERE y >= 250 AND y < 700",
    "SELECT count(*) FROM facts WHERE x > 10",
    "SELECT count(*), count(x), sum(x), avg(x), min(x), max(x), stddev(x), var(x) FROM facts",
    "SELECT count(*), sum(x) FROM facts WHERE y > 100000",  # empty result
    "SELECT k, count(*), count(x), sum(x), avg(x), min(y), max(y), stddev(x), var(x) "
    "FROM facts GROUP BY k ORDER BY k",
    "SELECT k, avg(x) AS m FROM facts WHERE y BETWEEN 50 AND 400 GROUP BY k "
    "HAVING count(*) > 3 ORDER BY m DESC, k LIMIT 7",
    "SELECT DISTINCT k FROM facts WHERE y < 500 ORDER BY k",
    "SELECT label, count(*), sum(x), stddev(x) FROM facts JOIN dim ON facts.k = dim.k "
    "WHERE y < 600 GROUP BY label ORDER BY label",
    "SELECT id, label FROM facts JOIN dim ON facts.k = dim.k WHERE y < 40 ORDER BY id LIMIT 25",
    "SELECT k, y, count(*) FROM facts GROUP BY k, y ORDER BY k, y LIMIT 40",
    # ORDER BY ... LIMIT without WHERE: the base scan is top-bounded (fully ordered,
    # so re-clustered tables agree too; NULL x sorts last in both directions).
    "SELECT id, x, y FROM facts ORDER BY y DESC, id LIMIT 12",
    "SELECT id, x FROM facts ORDER BY x LIMIT 10 OFFSET 5",
    "SELECT id, k FROM facts ORDER BY x DESC, id LIMIT 2000 OFFSET 1990",
    # ... and with one: a plain TopN over the pruned, filtered shards.
    "SELECT id, y FROM facts WHERE y < 300 ORDER BY y DESC, id LIMIT 9 OFFSET 2",
    "SELECT id, x FROM facts WHERE y BETWEEN 50 AND 400 AND x > 15 ORDER BY x DESC LIMIT 10",
]


#: Dispatch costs nothing, so every query with two live shards fans out — the
#: default gate would keep tables this small serial and the suite would
#: compare the serial path with itself.
FREE_DISPATCH = OperatorCosts(parallel_task_overhead_seconds=0.0)


def build_db(seed: int = 7, rows: int = 4000) -> LawsDatabase:
    rng = np.random.default_rng(seed)
    db = LawsDatabase(observability=False)
    db.obs.metrics.enabled = True  # the one switch: every layer holds this registry
    db.planner.set_cost_model(CostModel(FREE_DISPATCH, source="test:free-dispatch"))
    x = rng.normal(20.0, 6.0, rows)
    x[rng.random(rows) < 0.08] = np.nan  # NULL-bearing aggregate input
    db.load_dict(
        "facts",
        {
            "id": list(range(rows)),
            "k": rng.integers(0, 13, rows).tolist(),
            "x": [None if math.isnan(v) else float(v) for v in x],
            "y": rng.integers(0, 1000, rows).tolist(),
        },
    )
    db.load_dict("dim", {"k": list(range(13)), "label": [f"g{i:02d}" for i in range(13)]})
    return db


def run_query(db: LawsDatabase, sql: str, parallel: bool) -> list[tuple]:
    db.parallel.enabled = parallel
    try:
        return db.database.sql(sql).rows()
    finally:
        db.parallel.enabled = True


def assert_rows_equal(expected: list[tuple], actual: list[tuple], context: str) -> None:
    assert len(expected) == len(actual), f"{context}: row count {len(actual)} != {len(expected)}"
    for row_index, (want, got) in enumerate(zip(expected, actual)):
        assert len(want) == len(got)
        for want_value, got_value in zip(want, got):
            where = f"{context} row {row_index}: {got!r} != {want!r}"
            if isinstance(want_value, float) and isinstance(got_value, float):
                assert got_value == pytest.approx(want_value, rel=1e-9, abs=1e-9, nan_ok=True), where
            else:
                assert got_value == want_value, where


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
def test_differential_against_oracle(partitions: int) -> None:
    db = build_db()
    oracle = {sql: run_query(db, sql, parallel=False) for sql in QUERIES}
    db.partition_table("facts", partitions=partitions)
    for sql in QUERIES:
        assert_rows_equal(oracle[sql], run_query(db, sql, parallel=True), f"p={partitions} {sql}")
    fanned_out = db.parallel.metrics.counter_value("partition_tasks_total") > 0
    assert fanned_out == (partitions > 1)


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
@pytest.mark.parametrize("scheme", ["range", "hash"])
def test_differential_after_physical_reclustering(partitions: int, scheme: str) -> None:
    """Re-clustered tables reorder rows; set semantics must be preserved."""
    db = build_db(seed=11)
    oracle = {sql: run_query(db, sql, parallel=False) for sql in QUERIES}
    db.partition_table("facts", partitions=partitions, by="y", scheme=scheme)
    for sql in QUERIES:
        # Re-clustering changed base-row order, so compare as ordered only
        # when the query orders fully; otherwise compare as multisets.
        expected, actual = oracle[sql], run_query(db, sql, parallel=True)
        expected_sorted = sorted(expected, key=repr)
        actual_sorted = sorted(actual, key=repr)
        assert_rows_equal(expected_sorted, actual_sorted, f"{scheme} p={partitions} {sql}")


def test_tail_partition_covers_appended_rows() -> None:
    """Rows appended after the map was built land in the implicit tail shard."""
    db = build_db(rows=1000)
    db.partition_table("facts", partitions=7)
    db.insert_rows("facts", [(10_000 + i, 3, 5.0, 999) for i in range(50)])
    got = run_query(db, "SELECT count(*) FROM facts WHERE y = 999", parallel=True)
    want = run_query(db, "SELECT count(*) FROM facts WHERE y = 999", parallel=False)
    assert got == want
    assert got[0][0] >= 50


def test_partition_map_visible_after_cached_query() -> None:
    """Publishing a map is a versioned commit: it must invalidate memoized
    snapshots and cached plans from queries run before ``partition_table``."""
    rng = np.random.default_rng(3)
    db = LawsDatabase(observability=False)
    db.obs.metrics.enabled = True  # the one switch: every layer holds this registry
    db.planner.set_cost_model(CostModel(FREE_DISPATCH))
    db.load_dict(
        "facts",
        {
            "y": np.sort(rng.integers(0, 1000, 4000)).tolist(),
            "x": rng.normal(0, 1, 4000).tolist(),
        },
    )
    sql = "SELECT count(*) FROM facts WHERE y BETWEEN 10 AND 30"
    before = db.database.sql(sql).rows()  # memoizes a pre-map snapshot
    assert db.parallel.metrics.counter_value("partition_tasks_total") == 0
    db.partition_table("facts", partitions=8)
    assert db.database.sql(sql).rows() == before
    # Block 0 and the tail block survive: the five shards they overlap get a
    # task, the three in between are counted as pruned.
    assert db.parallel.metrics.counter_value("partition_tasks_total") == 5
    assert db.parallel.metrics.counter_value("partitions_pruned_total") == 3


def test_replace_invalidates_partition_map() -> None:
    """A replaced table must not be sharded by the old incarnation's map."""
    db = build_db(rows=500)
    db.partition_table("facts", partitions=4)
    replacement = db.table("facts")
    db.register_table(replacement.slice(0, 100), replace=True)
    assert db.partition_map("facts") is None
