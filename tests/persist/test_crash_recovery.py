"""Crash-recovery property suite.

The protocol under test: checkpoint → WAL appends → simulated kill (the
process dies mid-write, leaving a truncated or corrupted WAL tail) → reopen
→ the recovered database answers a seeded query workload *identically* to a
never-killed oracle holding exactly the rows that survived.

Because WAL records are applied in order and a damaged frame discards the
tail behind it, the recovered table is always ``checkpoint rows + a prefix
of the post-checkpoint batches`` — the oracle is rebuilt from that prefix
and every query (exact and model-served) must agree.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.persist.wal import WriteAheadLog

BASE_ROWS = 600
BATCH = 64
POST_CHECKPOINT_ROWS = 640

QUERIES = [
    "SELECT source, AVG(intensity) FROM m GROUP BY source",
    "SELECT source, COUNT(intensity) FROM m GROUP BY source",
    "SELECT AVG(intensity) FROM m",
    "SELECT intensity FROM m WHERE source = 3 AND frequency = 0.15",
    "SELECT SUM(intensity) FROM m WHERE frequency BETWEEN 0.12 AND 0.16",
]


def generate_rows(seed: int, count: int, start: int = 0) -> list[tuple]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        source = int(rng.integers(0, 8))
        frequency = float(rng.choice([0.12, 0.15, 0.16, 0.18]))
        intensity = float(
            (2.0 + 0.3 * source) * frequency**-0.7 * (1.0 + 0.01 * rng.standard_normal())
        )
        rows.append((start + i, source, frequency, intensity))
    return rows


def build_system(db: LawsDatabase, rows: list[tuple]) -> None:
    db.load_dict(
        "m",
        {
            "seq": [r[0] for r in rows],
            "source": [r[1] for r in rows],
            "frequency": [r[2] for r in rows],
            "intensity": [r[3] for r in rows],
        },
    )
    db.fit("m", "intensity ~ powerlaw(frequency)", group_by="source")


def answers_for(db: LawsDatabase) -> list:
    out = []
    for sql in QUERIES:
        exact = db.query(sql, AccuracyContract(mode="exact"))
        approx = db.query(sql, AccuracyContract(mode="approx", verify_fraction=0.0))
        out.append((exact.table.to_pydict(), approx.route_taken, approx.table.to_pydict()))
    return out


def run_crash_cycle(tmp_path, seed: int, damage) -> None:
    """One full cycle with ``damage(path, tail_start)`` mangling the WAL."""
    root = tmp_path / f"store{seed}"
    base = generate_rows(seed, BASE_ROWS)
    stream = generate_rows(seed + 1000, POST_CHECKPOINT_ROWS, start=BASE_ROWS)

    db = LawsDatabase.open(root, ingest_batch_size=BATCH)
    build_system(db, base)
    db.checkpoint()
    wal_path = db.durable.wal.path
    tail_start = wal_path.stat().st_size
    db.ingest("m", stream, flush=True)
    db.durable.wal.close()  # the "kill": no checkpoint, no close protocol

    damage(wal_path, tail_start)

    recovered = LawsDatabase.open(root, ingest_batch_size=BATCH)
    report = recovered.last_recovery
    survivors = recovered.table("m").num_rows

    # Sanity on the recovery shape: nothing before the damage is lost, and
    # full batches survive intact.
    assert BASE_ROWS <= survivors <= BASE_ROWS + POST_CHECKPOINT_ROWS
    assert report.models_restored == 1
    surviving_stream = survivors - BASE_ROWS
    assert surviving_stream == report.wal_rows_replayed
    assert surviving_stream % BATCH == 0

    # The never-killed oracle: the same data that survived, never persisted.
    oracle = LawsDatabase(ingest_batch_size=BATCH)
    build_system(oracle, base)
    oracle.ingest("m", stream[:surviving_stream], flush=True)

    assert answers_for(recovered) == answers_for(oracle)


def truncate_at(offset_fraction: float):
    def damage(path, tail_start):
        size = path.stat().st_size
        cut = tail_start + int((size - tail_start) * offset_fraction)
        with open(path, "r+b") as handle:
            handle.truncate(cut)

    return damage


def corrupt_at(offset_fraction: float):
    def damage(path, tail_start):
        data = bytearray(path.read_bytes())
        index = tail_start + int((len(data) - 1 - tail_start) * offset_fraction)
        data[index] ^= 0x5A
        path.write_bytes(bytes(data))

    return damage


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.33, 0.66, 0.95, 1.0])
def test_truncated_tail_recovers_prefix(tmp_path, fraction):
    run_crash_cycle(tmp_path, seed=11, damage=truncate_at(fraction))


@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.9])
def test_corrupted_tail_recovers_prefix(tmp_path, fraction):
    run_crash_cycle(tmp_path, seed=23, damage=corrupt_at(fraction))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clean_kill_loses_nothing(tmp_path, seed):
    """A kill *between* batch writes (intact WAL) replays every row."""

    def no_damage(path, tail_start):
        pass

    run_crash_cycle(tmp_path, seed=100 + seed, damage=no_damage)


def test_double_crash_double_recovery(tmp_path):
    """Recovery is idempotent: crash, recover, crash again, recover again."""
    root = tmp_path / "store"
    base = generate_rows(5, BASE_ROWS)
    db = LawsDatabase.open(root, ingest_batch_size=BATCH)
    build_system(db, base)
    db.checkpoint()
    db.ingest("m", generate_rows(6, BATCH * 2, start=BASE_ROWS), flush=True)
    db.durable.wal.close()

    # First recovery replays the WAL but never checkpoints — and dies too.
    first = LawsDatabase.open(root, ingest_batch_size=BATCH)
    rows_after_first = first.table("m").num_rows
    first.durable.wal.close()

    second = LawsDatabase.open(root, ingest_batch_size=BATCH)
    assert second.table("m").num_rows == rows_after_first == BASE_ROWS + BATCH * 2


def test_crash_between_manifest_and_wal_reset_discards_stale_log(tmp_path):
    """The epoch guard: a WAL predating the manifest must not double-apply."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root, ingest_batch_size=BATCH)
    build_system(db, generate_rows(9, BASE_ROWS))
    db.checkpoint()
    db.ingest("m", generate_rows(10, BATCH, start=BASE_ROWS), flush=True)

    # Simulate the torn checkpoint: snapshot the pre-checkpoint WAL, run the
    # checkpoint (which includes the WAL'd rows in its segments), then put
    # the stale WAL back as if the process died before wal.reset().
    stale_wal = db.durable.wal.path.read_bytes()
    db.checkpoint()
    db.durable.wal.close()
    db.durable.wal.path.write_bytes(stale_wal)

    recovered = LawsDatabase.open(root, ingest_batch_size=BATCH)
    assert recovered.last_recovery.wal_discarded_epoch_mismatch
    assert recovered.last_recovery.wal_records_replayed == 0
    # No double-applied rows: the snapshot already holds them exactly once.
    assert recovered.table("m").num_rows == BASE_ROWS + BATCH


def test_stale_epoch_wal_with_no_records_is_restamped(tmp_path):
    """A record-free stale-epoch log must still be re-stamped on recovery,
    or writes accepted into it are discarded by the *next* recovery."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root, ingest_batch_size=BATCH)
    build_system(db, generate_rows(41, BASE_ROWS))
    db.checkpoint()  # checkpoint #1 stamps the WAL with epoch 1
    stale_wal = db.durable.wal.path.read_bytes()  # epoch-1 log, zero records
    db.checkpoint()  # checkpoint #2
    db.durable.wal.close()
    # Crash between manifest #2's rename and its wal.reset: the epoch-1,
    # record-free log is what the next process finds.
    db.durable.wal.path.write_bytes(stale_wal)

    recovered = LawsDatabase.open(root, ingest_batch_size=BATCH)
    recovered.ingest("m", generate_rows(42, BATCH, start=BASE_ROWS), flush=True)
    recovered.durable.wal.close()

    final = LawsDatabase.open(root, ingest_batch_size=BATCH)
    assert final.table("m").num_rows == BASE_ROWS + BATCH  # nothing discarded


def test_recovered_database_keeps_accepting_wal_appends(tmp_path):
    """Post-recovery writes land in the (repaired) WAL and survive again."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root, ingest_batch_size=BATCH)
    build_system(db, generate_rows(31, BASE_ROWS))
    db.checkpoint()
    db.durable.wal.close()

    again = LawsDatabase.open(root, ingest_batch_size=BATCH)
    again.ingest("m", generate_rows(32, BATCH, start=BASE_ROWS), flush=True)
    again.durable.wal.close()

    final = LawsDatabase.open(root, ingest_batch_size=BATCH)
    assert final.table("m").num_rows == BASE_ROWS + BATCH


def test_sql_insert_marks_models_stale_like_insert_rows(tmp_path):
    """DML through query() follows the same lifecycle contract as
    insert_rows() — and matches what replaying its WAL record does."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    build_system(db, generate_rows(55, BASE_ROWS))
    db.checkpoint()  # persist the model so recovery has a warehouse to load
    assert [m.status for m in db.captured_models()] == ["active"]
    db.query("INSERT INTO m VALUES (9999, 1, 0.15, 2.5)")
    assert [m.status for m in db.captured_models()] == ["stale"]
    db.durable.wal.close()

    recovered = LawsDatabase.open(root)
    assert recovered.table("m").num_rows == BASE_ROWS + 1
    assert [m.status for m in recovered.captured_models()] == ["stale"]


def test_sql_ddl_and_dml_survive_a_crash(tmp_path):
    """CREATE TABLE / INSERT through the SQL front-end reach the WAL too."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    db.query("CREATE TABLE readings (sensor INT, value FLOAT)")
    db.query("INSERT INTO readings VALUES (1, 10.5), (2, 20.5)")
    db.query("INSERT INTO readings VALUES (3, 30.5)")
    db.durable.wal.close()  # crash: never checkpointed

    recovered = LawsDatabase.open(root)
    result = recovered.query(
        "SELECT sensor, value FROM readings", AccuracyContract(mode="exact")
    )
    assert result.table.to_rows() == [(1, 10.5), (2, 20.5), (3, 30.5)]


def test_large_load_snapshots_instead_of_row_json_wal(tmp_path):
    """Bulk loads persist as columnar segments referenced by one WAL record
    — not as row-wise JSON, and not via a full checkpoint per load (which
    would re-snapshot every earlier table, quadratic across a burst)."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    n = 70_000  # >= LARGE_CREATE_SNAPSHOT_ROWS
    db.load_dict("big", {"x": [float(i) for i in range(n)]})
    db.load_dict("big2", {"x": [float(i) for i in range(n)]})
    assert db.durable.checkpoint_id == 0  # no checkpoint forced by the loads
    db.durable.wal.close()
    records = WriteAheadLog(root / "wal.log").replay().records
    loads = [record for record in records if record["op"] == "load_table"]
    named = {root / "segments" / entry["file"] for record in loads for entry in record["segments"]}
    assert len(loads) == 2 and all(path.is_file() for path in named)

    recovered = LawsDatabase.open(root)
    assert recovered.table("big").num_rows == n
    assert recovered.table("big2").num_rows == n
    assert recovered.last_recovery.wal_records_replayed == 2  # one per load
    assert recovered.last_recovery.wal_rows_replayed == 2 * n
    # The checkpoint that absorbs the loads names their segments; nothing
    # else is left behind in the pool.
    recovered.checkpoint()
    assert set((root / "segments").iterdir()) == named == _manifest_files(root)


def test_a_write_is_one_bounded_wal_frame(tmp_path, monkeypatch):
    """A write is one WAL record in one frame, and never a giant one (the
    frame cap would fire after the in-memory change succeeded): below
    ``LARGE_CREATE_SNAPSHOT_ROWS`` its rows ride in the frame as one segment,
    from it on in pool segments the record names."""
    from repro.persist import store as store_module

    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    n = 10_000
    db.load_dict("big", {"x": [float(i) for i in range(n)]})
    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", n)
    db.insert_rows("big", [(float(i),) for i in range(n)])
    live = db.database.fingerprint()
    db.durable.wal.close()
    records = WriteAheadLog(root / "wal.log").replay().records
    assert [(r["op"], r.get("row_count"), len(r.get("segments", []))) for r in records] == [
        ("create_table", n, 0),
        ("append", None, 1),
    ]
    assert (root / "wal.log").stat().st_size < 8 * n + 4096  # the floats, and little else

    recovered = LawsDatabase.open(root)
    assert recovered.table("big").num_rows == 2 * n
    assert recovered.last_recovery.wal_records_replayed == 2  # one per write
    assert recovered.last_recovery.wal_rows_replayed == 2 * n
    assert recovered.database.fingerprint() == live


def test_drop_table_survives_a_crash_and_retires_models(tmp_path):
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    build_system(db, generate_rows(61, BASE_ROWS))
    db.checkpoint()
    db.drop_table("m")
    assert not db.database.has_table("m")
    assert all(m.status == "retired" for m in db.captured_models())
    db.durable.wal.close()  # crash before the drop is checkpointed

    recovered = LawsDatabase.open(root)
    assert not recovered.database.has_table("m")
    assert all(m.status == "retired" for m in recovered.captured_models())


def test_crash_before_cleanup_does_not_leak_old_checkpoints(tmp_path):
    """A crash between the manifest rename and the old-checkpoint cleanup
    leaves orphans; the next successful checkpoint must sweep them."""
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    build_system(db, generate_rows(71, BASE_ROWS))
    db.checkpoint()
    # Simulate the un-cleaned crash: resurrect a fake older checkpoint's
    # segment in the pool and a legacy checkpoint directory.
    (root / "segments" / "000000_m__00000.npz").write_bytes(b"junk")
    stale_segments = root / "segments" / "ckpt00000"
    stale_segments.mkdir(parents=True)
    (stale_segments / "junk.npz").write_bytes(b"junk")
    (root / "warehouse" / "models-00000.json").write_text("{}")

    db.checkpoint()
    remaining_segments = set((root / "segments").iterdir())
    remaining_warehouse = {p.name for p in (root / "warehouse").iterdir()}
    assert remaining_segments == _manifest_files(root)
    assert remaining_warehouse == {"models-00002.json"}


def _manifest_files(root):
    """The pool files the checkpoint manifest names."""
    manifest = json.loads((root / "MANIFEST.json").read_text())
    return {root / "segments" / s["file"] for entry in manifest["tables"].values() for s in entry["segments"]}


def test_fresh_directory_then_copy_elsewhere(tmp_path):
    """A checkpointed store is a self-contained directory: copy = backup."""
    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        build_system(db, generate_rows(77, BASE_ROWS))
    # context-manager exit checkpointed + closed
    backup = tmp_path / "backup"
    shutil.copytree(root, backup)
    restored = LawsDatabase.open(backup)
    assert restored.table("m").num_rows == BASE_ROWS
    assert len(restored.captured_models()) == 1
