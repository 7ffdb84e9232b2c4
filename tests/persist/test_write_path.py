"""The one durable write definition: apply → redo → roll back → notify.

Every front door (``insert_rows``, SQL DML, the ingest flush, create /
replace / drop, ``partition_table``) commits through the same
``catalog.writing()`` critical section, and WAL replay goes back through the
same ``LawsDatabase`` methods — so a failed redo record leaves memory as it
was, and a recovered database *is* the live one.
"""

from __future__ import annotations

import errno
import json
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.db.archived import archived_segments
from repro.db.table import Table
from repro.errors import ReproError
from repro.persist import store as store_module
from repro.persist.wal import BODY_KEY, WriteAheadLog
from repro.resilience import FaultInjector, FaultSpec

EXACT = AccuracyContract(mode="exact")


def _open(root, faults=None):
    return LawsDatabase.open(root, ingest_batch_size=8, verify_seed=0, fault_injector=faults)


# ---------------------------------------------------------------------------
# Atomicity: a write whose redo record fails is not in memory either
# ---------------------------------------------------------------------------

DOORS = {
    "insert_rows": lambda db, rows: db.insert_rows("t", rows),
    "sql": lambda db, rows: db.query(
        "INSERT INTO t VALUES " + ", ".join(f"({k}, {v})" for k, v in rows)
    ),
    "ingest": lambda db, rows: db.ingest("t", rows, flush=True),
    # A created table's rows, in its one frame.
    "load_dict": lambda db, rows: db.load_dict("u", {"k": [k for k, _ in rows], "v": [v for _, v in rows]}),
    # At LARGE_CREATE_SNAPSHOT_ROWS (patched to the batch's size below): pool
    # segments first, then the one frame naming them.
    "insert_rows_pooled": lambda db, rows: db.insert_rows("t", rows),
}
FAULTS = {
    "oserror": FaultSpec("persist.wal.append", "oserror", errno_code=errno.EROFS),
    "torn_write": FaultSpec("persist.wal.append", "torn_write", fraction=0.5),
}


def _keys(db):
    return sorted(k for name in db.table_names() for k in db.table(name).column("k").to_pylist())


def _state(db):
    return (
        _keys(db),
        db.database.fingerprint(),
        sum(db.database.stats(name).row_count for name in db.table_names()),
    )


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("door", sorted(DOORS))
def test_failed_redo_record_leaves_memory_as_it_was(tmp_path, monkeypatch, door, fault):
    root = tmp_path / "db"
    with _open(root) as db:
        db.load_dict("t", {"k": list(range(20)), "v": [float(k) for k in range(20)]})
    write, rows = DOORS[door], [(100 + i, 0.5 * i) for i in range(5)]
    if door == "insert_rows_pooled":
        monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", len(rows))

    # Reopened, the injector's first ``persist.wal.append`` arrival is the write's.
    db = _open(root, FaultInjector([FAULTS[fault]], sleep=lambda _s: None))
    before = _state(db)
    try:
        write(db, rows)
        raised = False
    except ReproError:
        raised = True
    assert db.resilience.faults.fired(), "the fault never reached the write"
    if fault == "oserror":
        assert raised, "a non-transient WAL error must surface"
    if raised:
        assert _state(db) == before
    else:  # the retrier absorbed it
        assert len(_keys(db)) == len(before[0]) + len(rows)
    live = db.database.fingerprint()
    db.close()

    db = _open(root)
    assert db.database.fingerprint() == live
    if raised:
        write(db, rows)  # the fault is spent: the repeated call applies once
    assert _keys(db) == list(range(20)) + [100 + i for i in range(5)]
    assert _state(db)[2] == 25
    live = db.database.fingerprint()
    db.close()
    reopened = _open(root)
    assert reopened.database.fingerprint() == live
    reopened.close()


def _tier_state(db):
    stats = db.database.stats("t")
    return (
        db.table("t").num_rows,
        bool(archived_segments(db.database.catalog, "t")),
        (stats.row_count, stats.byte_size),
        db.query("SELECT count(*) FROM t WHERE k >= 10", EXACT).rows(),
        db.database.fingerprint(),
    )


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("move", ["archive", "recall"])
def test_failed_archive_redo_record_leaves_memory_as_it_was(tmp_path, move, fault):
    """The tier writes its redo record inside its own critical section, before
    anything in memory flips: rows a failed ``archive()`` left live are not
    shed by a crash, rows a failed ``recall_archive()`` left archived stay so."""
    root = tmp_path / "db"
    with _open(root) as db:
        db.load_dict("t", {"k": list(range(20)), "v": [float(k) for k in range(20)]})
        if move == "recall":
            db.archive("t", "k < 10")

    # ``archive()`` checkpoints first and the WAL reset stamps its epoch through
    # the same fault point: the archive record is the second arrival, a
    # recall's (no checkpoint) the first.
    spec = replace(FAULTS[fault], hit=2 if move == "archive" else 1)
    def move_rows(db):
        return db.archive("t", "k < 10") if move == "archive" else db.recall_archive("t")

    db = _open(root, FaultInjector([spec], sleep=lambda _s: None))
    before = _tier_state(db)
    try:
        move_rows(db)
        raised = False
    except ReproError:
        raised = True
    assert [event.point for event in db.resilience.faults.fired()] == ["persist.wal.append"]
    assert raised == (fault == "oserror"), "EROFS must surface, a torn write is retried"
    if raised:
        assert _tier_state(db) == before
        assert db.events(kind="archive") == db.events(kind="archive-recall") == []
    else:
        assert bool(archived_segments(db.database.catalog, "t")) == (move == "archive")
    live = _tier_state(db)
    db.close()

    db = _open(root)
    assert _tier_state(db) == live
    if raised:
        move_rows(db)  # the fault is spent: the repeated call applies
        assert bool(archived_segments(db.database.catalog, "t")) == (move == "archive")
        live = _tier_state(db)
    db.close()
    reopened = _open(root)
    assert reopened.quarantine_report()["count"] == 0
    assert _tier_state(reopened) == live
    reopened.close()


def test_a_redo_record_is_one_frame_and_a_large_one_names_pool_segments(tmp_path, monkeypatch):
    """A write is one WAL frame, its rows one segment: inside the frame, or —
    from ``LARGE_CREATE_SNAPSHOT_ROWS`` on — in pool files written before the
    frame that names them.  A fault on that one frame takes the write out of
    memory and the log; the files it orphaned go at the next checkpoint."""
    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", 8)
    root = tmp_path / "db"
    _open(root).close()
    faults = FaultInjector(
        [FaultSpec("persist.wal.append", "oserror", errno_code=errno.EROFS)]
    )
    db = _open(root, faults)
    data = {"k": list(range(10)), "v": [float(k) for k in range(10)]}
    with pytest.raises(ReproError):
        db.load_dict("t", data)
    assert db.table_names() == []
    orphaned = {path.name for path in (root / "segments").iterdir()}
    assert orphaned
    db.load_dict("t", data)  # the retry is the first registration, not a duplicate
    db.insert_rows("t", [(k, 0.0) for k in range(10, 20)])  # pool segments again
    db.insert_rows("t", [(k, 1.0) for k in range(20, 23)])  # inside its frame
    assert [event.point for event in faults.fired()] == ["persist.wal.append"]
    live = db.database.fingerprint()
    db.close()
    records = WriteAheadLog(root / "wal.log").replay().records
    assert [(r["op"], "segments" in r, BODY_KEY in r) for r in records] == [
        ("load_table", True, False),
        ("append", True, False),
        ("append", False, True),
    ]
    reopened = _open(root)
    assert reopened.quarantine_report()["count"] == 0
    assert reopened.last_recovery.wal_rows_replayed == 23
    assert reopened.database.fingerprint() == live
    reopened.checkpoint()
    assert not orphaned & {path.name for path in (root / "segments").iterdir()}
    reopened.close()


@pytest.mark.parametrize("op", ["register_replace", "drop_table", "partition_table"])
def test_failed_ddl_redo_record_rolls_back(tmp_path, op):
    root = tmp_path / "db"
    with _open(root) as db:
        db.load_dict("t", {"k": list(range(32)), "v": [float(-k) for k in range(32)]})
        db.fit("t", "v ~ linear(k)")
    db = _open(root, FaultInjector([FaultSpec("persist.wal.append", "oserror", errno_code=errno.EROFS)]))
    before = _state(db), db.partition_map("t"), [m.status for m in db.captured_models("t")]
    with pytest.raises(ReproError):
        if op == "register_replace":
            db.register_table(Table.from_dict("t", {"k": [1], "v": [1.0]}), replace=True)
        elif op == "drop_table":
            db.drop_table("t")
        else:
            db.partition_table("t", 4)
    assert (_state(db), db.partition_map("t"), [m.status for m in db.captured_models("t")]) == before
    db.close()


# ---------------------------------------------------------------------------
# Equivalence: what recovery rebuilds is what the live process held
# ---------------------------------------------------------------------------


def _observe(db):
    return {
        "tables": db.table_names(),
        "fingerprint": db.database.fingerprint(),
        "models": {m.model_id: m.status for m in db.captured_models()},
        "partition_maps": {name: db.partition_map(name) for name in db.table_names()},
        # Field for field: a reopened planner must cost routes from the numbers
        # the live one held (a checkpoint records them, the WAL tail merges in).
        "stats": {name: db.database.stats(name) for name in db.table_names()},
    }


def _line(n, seed, slope=3.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return {"t": t.tolist(), "g": [int(i % 4) for i in range(n)],
            "v": (slope * t + 7.0 + rng.normal(0, 0.05, n)).tolist()}


def test_recovered_state_equals_live_state_through_every_front_door(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", 512)
    rng = np.random.default_rng(11)
    root = tmp_path / "db"
    db = _open(root)
    db.checkpoint()

    # Tables and the models whose statuses the writes below will move.
    db.load_dict("parts", _line(2048, 1))  # >= the bulk threshold: load_table record
    db.partition_table("parts", 4)
    assert all(r.accepted for r in db.fit_partitioned("parts", "v ~ linear(t)"))
    db.load_dict("grouped", _line(400, 2))  # below it: create_table + append records
    assert db.fit("grouped", "v ~ linear(t)", group_by="g").accepted
    db.load_dict("replaced", _line(300, 3))
    assert db.fit("replaced", "v ~ linear(t)").accepted
    db.load_dict("doomed", _line(100, 4))
    assert db.fit("doomed", "v ~ linear(t)").accepted
    for name in ("parts", "grouped"):  # what costing a model route computes and caches
        db.database.stats(name)
    db.checkpoint()  # the warehouse persists models at checkpoints only
    recorded = json.loads((root / "MANIFEST.json").read_text())["tables"]
    assert {name for name, entry in recorded.items() if "stats" in entry} == {"parts", "grouped"}

    # Every front door, after the checkpoint: the WAL alone carries these.
    db.insert_rows("parts", [(3000.0, 0, 9007.0)])  # above every shard: all stay active
    db.query("INSERT INTO grouped VALUES (400.0, 0, 1207.0), (401.0, 1, 1210.0)")
    db.ingest("grouped", [(402.0 + i, int(i % 4), 3.0 * (402 + i) + 7.0) for i in range(20)], flush=True)
    db.register_table(Table.from_dict("replaced", _line(50, 5, slope=-2.0)), replace=True)
    db.drop_table("doomed")
    db.query("CREATE TABLE fresh (a INT, b FLOAT)")
    db.query("INSERT INTO fresh VALUES (1, 1.5), (2, 2.5)")
    db.create_table("empty", db.table("fresh").schema)
    db.load_dict("late", _line(int(rng.integers(600, 700)), 6))  # load_table record
    db.partition_table("late", 3, by="v", scheme="range")  # replace + map records
    db.load_dict("hashed", _line(64, 7))
    db.partition_table("hashed", 2, by="g", scheme="hash")
    db.insert_rows("late", [(9999.0, 1, 0.0)])

    live = _observe(db)
    assert set(live["models"].values()) == {"active", "stale", "retired"}
    assert live["partition_maps"]["late"]["scheme"]["kind"] == "range"
    db.close()  # no checkpoint

    recovered = _open(root)
    assert recovered.quarantine_report()["count"] == 0
    assert _observe(recovered) == live
    # ... and once more from the snapshot alone.
    recovered.checkpoint()
    live = _observe(recovered)
    recovered.close()
    again = _open(root)
    assert again.last_recovery.wal_records_replayed == 0
    assert _observe(again) == live
    again.close()


def test_rows_passed_as_an_iterator_survive_a_crash(tmp_path):
    """The redo record carries the batch as the table stored it, so rows the
    append consumed from an iterator are logged whole."""
    root = tmp_path / "db"
    db = LawsDatabase.open(root)
    db.load_dict("t", {"k": [0], "v": [0.0]})
    db.insert_rows("t", ((k, float(k)) for k in range(1, 6)))
    assert db.table("t").num_rows == 6
    live = _observe(db)
    db.durable.wal.close()  # crash: never checkpointed

    recovered = LawsDatabase.open(root)
    assert _observe(recovered) == live
    recovered.close()


def test_a_durable_store_takes_the_values_an_in_memory_one_stores(tmp_path):
    """A FLOAT64 column stores a ``Decimal`` or a ``Fraction`` as its float;
    the redo record logs that column, not the caller's objects."""
    root = tmp_path / "db"
    memory, durable = LawsDatabase(), LawsDatabase.open(root)
    for db in (memory, durable):
        db.load_dict("t", {"k": [0], "x": [0.0], "s": ["a"]})
        db.insert_rows("t", [(1, Decimal("1.5"), "b")])
        db.insert_rows("t", [(2, Fraction(1, 3), None)])
    assert durable.table("t").column("x").to_pylist() == [0.0, 1.5, 1 / 3]
    live = _observe(durable)
    assert live["fingerprint"] == memory.database.fingerprint()
    durable.durable.wal.close()  # crash: never checkpointed

    recovered = LawsDatabase.open(root)
    assert _observe(recovered) == live
    recovered.close()


def test_a_few_rows_too_wide_for_one_frame_go_to_the_pool(tmp_path, monkeypatch):
    """A write below ``LARGE_CREATE_SNAPSHOT_ROWS`` whose segment would not
    fit in one WAL frame is written to pool segments, as a large one is: the
    durable store takes what an in-memory one stores."""
    from repro.persist import wal as wal_module

    monkeypatch.setattr(wal_module, "_MAX_FRAME_BYTES", 64 * 1024)
    rng = np.random.default_rng(37)
    wide = [(k, rng.bytes(2000).hex()) for k in range(100)]
    root = tmp_path / "db"
    db = LawsDatabase.open(root)
    db.load_dict("t", {"k": [0], "s": ["a"]})
    db.insert_rows("t", wide)
    live = _observe(db)
    db.durable.wal.close()  # crash: never checkpointed
    records = WriteAheadLog(root / "wal.log").replay().records
    assert [(r["op"], "segments" in r) for r in records] == [("create_table", False), ("append", True)]

    recovered = LawsDatabase.open(root)
    assert recovered.table("t").column("s").to_pylist() == ["a"] + [s for _, s in wide]
    assert _observe(recovered) == live
    recovered.close()


def _whole_table_rescans(monkeypatch, rows):
    """Row counts of every column whose statistics are computed from here on,
    as long as a whole table of ``rows``."""
    from repro.db import stats as stats_module

    seen = []
    compute = stats_module.compute_column_stats

    def spy(name, column):
        if len(column) >= rows:
            seen.append((name, len(column)))
        return compute(name, column)

    monkeypatch.setattr(stats_module, "compute_column_stats", spy)
    return seen


@pytest.mark.parametrize("wal_tail", [False, True])
def test_first_answer_after_open_rescans_no_table(tmp_path, monkeypatch, wal_tail):
    """The checkpoint records the statistics the catalog held fresh, recovery
    publishes them before the WAL replays, and every replayed append merges
    its own batch in — as the live append did."""
    root = tmp_path / "db"
    db = _open(root)
    db.load_dict("t", _line(600, 9))
    assert db.fit("t", "v ~ linear(t)").accepted
    db.query("SELECT v FROM t WHERE t = 5")  # the live process computes them once
    db.ingest("t", [(600.0 + i, 0, 1807.0 + 3.0 * i) for i in range(16)], flush=True)
    db.checkpoint()
    if wal_tail:
        db.insert_rows("t", [(700.0, 1, 2107.0)])
        db.ingest("t", [(701.0 + i, 2, 2110.0 + 3.0 * i) for i in range(16)], flush=True)
    live = db.database.stats("t")
    assert db.database.catalog.fresh_stats("t") is not None
    db.close()

    rescans = _whole_table_rescans(monkeypatch, rows=600)
    reopened = _open(root)
    assert reopened.last_recovery.wal_rows_replayed == (17 if wal_tail else 0)
    answer = reopened.query("SELECT v FROM t WHERE t = 5")
    assert not answer.is_exact
    assert rescans == []
    assert reopened.database.stats("t") == live
    reopened.close()


def test_manifest_without_statistics_recomputes_on_demand(tmp_path, monkeypatch):
    """A v1 manifest, or a table whose statistics were stale at the
    checkpoint: nothing is published, the first reader computes."""
    root = tmp_path / "db"
    with _open(root) as db:
        db.load_dict("t", _line(600, 10))
        live = db.database.stats("t")
    manifest = root / "MANIFEST.json"
    payload = json.loads(manifest.read_text())
    assert payload["tables"]["t"].pop("stats")["row_count"] == 600
    manifest.write_text(json.dumps(payload))

    rescans = _whole_table_rescans(monkeypatch, rows=600)
    reopened = _open(root)
    assert reopened.database.catalog.fresh_stats("t") is None
    assert reopened.database.stats("t") == live
    assert [count for _, count in rescans] == [600, 600, 600]
    reopened.close()


def test_statistics_of_other_rows_are_not_published(tmp_path):
    """The guard of ``Catalog.restore_stats``: only statistics that count
    exactly the table's rows and cover exactly its columns."""
    from repro.db.stats import compute_table_stats

    db = LawsDatabase()
    table = db.load_dict("t", {"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
    catalog = db.database.catalog
    assert not catalog.restore_stats("t", compute_table_stats(table.slice(0, 2)))
    assert not catalog.restore_stats("t", compute_table_stats(table.select(["k"])))
    assert not catalog.restore_stats("missing", compute_table_stats(table))
    assert catalog.fresh_stats("t") is None
    assert catalog.restore_stats("t", compute_table_stats(table))
    assert catalog.fresh_stats("t") == compute_table_stats(table)


def test_statistics_computed_under_a_pin_survive_another_tables_commit(monkeypatch):
    """Statistics belong to a table's data generation, not to the catalog
    version: a commit to ``u`` after the pin leaves ``t``'s generation live,
    so what the pinned reader computed serves the live reader too."""
    db = LawsDatabase(observability=False)
    db.load_dict("t", _line(600, 11))
    db.load_dict("u", {"k": [1, 2]})
    catalog = db.database.catalog
    snapshot = catalog.snapshot()
    db.insert_rows("u", [(3,)])
    rescans = _whole_table_rescans(monkeypatch, rows=600)
    with catalog.reading(snapshot):
        pinned = catalog.stats("t")
    assert catalog.stats("t") is pinned
    assert [count for _, count in rescans] == [600, 600, 600]


def test_sql_insert_merges_its_batch_into_fresh_statistics(monkeypatch):
    """A SQL ``INSERT`` is an append like any other front door: statistics
    fresh before it have the batch's own merged in, and nothing rescans the
    table."""
    from repro.db.stats import compute_table_stats

    db = LawsDatabase(observability=False)
    db.load_dict("t", {"k": list(range(5000)), "v": [0.5 * i for i in range(5000)]})
    db.database.stats("t")
    computed = _whole_table_rescans(monkeypatch, rows=1)
    db.query("INSERT INTO t VALUES (5000, 1.5), (5001, 2.5)")
    merged = db.database.stats("t")
    assert [count for _, count in computed] == [2, 2]
    whole = compute_table_stats(db.table("t"))
    assert merged.row_count == whole.row_count == 5002
    for name in ("k", "v"):
        column, expected = merged.column(name), whole.column(name)
        assert (column.min_value, column.max_value) == (expected.min_value, expected.max_value)
        assert column.mean == pytest.approx(expected.mean, rel=1e-12)
        assert column.std == pytest.approx(expected.std, rel=1e-12)


def test_partition_map_survives_checkpoint_and_reopen(tmp_path):
    root = tmp_path / "db"
    db = _open(root)
    db.load_dict("t", _line(256, 8))
    committed = db.partition_table("t", 4, by="t", scheme="range")
    db.checkpoint()
    db.close()
    reopened = _open(root)
    assert reopened.partition_map("t") == committed
    reopened.close()


def test_replace_stales_the_replaced_tables_models(tmp_path):
    db = LawsDatabase(verify_seed=0)
    db.load_dict("t", {"x": [float(i) for i in range(200)], "y": [7.0 + 0.0001 * i for i in range(200)]})
    model = db.fit("t", "y ~ linear(x)").model
    db.register_table(
        Table.from_dict("t", {"x": [float(i) for i in range(200)], "y": [85.0 + 0.0001 * i for i in range(200)]}),
        replace=True,
    )
    assert db.models.get(model.model_id).status == "stale"
    answer = db.query("SELECT avg(y) FROM t", AccuracyContract(mode="approx", verify_fraction=0.0))
    assert not answer.is_exact and answer.approx.used_model_ids == [model.model_id]
    assert "stale model" in answer.approx.reason
