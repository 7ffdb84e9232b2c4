"""Partitioned queries under concurrent ingest: snapshot-consistent shards.

The partition map commits as catalog table-metadata, so a pinned snapshot
pairs the map with the table rows of the same commit; rows appended after
the map form the implicit tail shard for fresh queries only.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts

pytestmark = pytest.mark.concurrency


def _make_db(rows: int = 4096, batch: int = 256) -> LawsDatabase:
    rng = np.random.default_rng(17)
    db = LawsDatabase(ingest_batch_size=batch, observability=False)
    db.load_dict(
        "readings",
        {
            "t": list(range(rows)),
            "v": rng.normal(10.0, 2.0, rows).tolist(),
        },
    )
    db.partition_table("readings", partitions=8)
    # Free dispatch: the default gate would keep a table this small serial.
    db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
    return db


def test_pinned_partitioned_query_is_repeatable_across_ingest() -> None:
    db = _make_db()
    snap = db.snapshot()
    sql = "SELECT count(v) AS c, sum(v) AS s FROM readings"
    before = db.query(sql, snapshot=snap).rows()

    db.ingest("readings", [(10_000 + i, 5.0) for i in range(512)], flush=True)

    pinned = db.query(sql, snapshot=snap).rows()
    fresh = db.query(sql).rows()
    assert pinned == before, "a held snapshot must not observe the ingest commit"
    assert fresh[0][0] == before[0][0] + 512, "a fresh query must see the tail shard"


def test_partitioned_query_during_ingest_sees_batch_boundaries() -> None:
    """Concurrent partitioned aggregates only ever observe whole batches."""
    batch = 256
    db = _make_db(rows=4096, batch=batch)
    base_rows = 4096
    total_appends = 2048
    stop = threading.Event()
    observed: list[int] = []
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                count = db.query("SELECT count(t) AS c FROM readings").rows()[0][0]
                observed.append(count)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        for i in range(total_appends):
            db.ingest("readings", [(100_000 + i, 1.0)])
        db.flush_ingest("readings")
    finally:
        stop.set()
        thread.join(timeout=30)

    assert not errors, errors
    assert observed, "reader thread never completed a query"
    valid = {base_rows + k * batch for k in range(total_appends // batch + 1)}
    torn = [count for count in observed if count not in valid]
    assert not torn, f"partitioned reads observed non-batch-boundary counts: {torn[:5]}"
    assert db.query("SELECT count(t) AS c FROM readings").rows()[0][0] == base_rows + total_appends


def test_partitioned_query_during_archive_returns_consistent_rows() -> None:
    """A snapshot held across an archive operation keeps its shard list."""
    db = _make_db()
    snap = db.snapshot()
    sql = "SELECT count(v) AS c FROM readings WHERE t < 2048"
    before = db.query(sql, snapshot=snap).rows()
    with db.database.catalog.reading(snap.catalog):
        assert db.partition_map("readings") is not None

    db.ingest("readings", [(50_000 + i, 2.0) for i in range(256)], flush=True)
    after = db.query(sql, snapshot=snap).rows()
    assert after == before
