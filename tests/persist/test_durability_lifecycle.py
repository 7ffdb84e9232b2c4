"""Opt-in persistence, the context-manager protocol and cold-start serving."""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.errors import FormatVersionError, PersistenceError


def sensor_rows(n=400, seed=5):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 20.0, n)
    return {
        "x": [float(v) for v in x],
        "y": [float(v) for v in (3.0 + 2.0 * x + 0.01 * rng.standard_normal(n))],
    }


# ---------------------------------------------------------------------------
# Satellite: persistence is strictly opt-in — a plain LawsDatabase must
# behave exactly as the PR-1 streaming subsystem shipped it.
# ---------------------------------------------------------------------------


def test_in_memory_database_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any stray file write would land here
    db = LawsDatabase(ingest_batch_size=32)
    db.load_dict("s", sensor_rows())
    db.fit("s", "y ~ linear(x)")
    db.watch("s", "y", order_column="x")
    batches = db.ingest("s", [(21.0, 45.0)] * 64, flush=True)
    assert sum(b.num_rows for b in batches) == 64
    db.maintain()
    assert db.query("SELECT COUNT(y) FROM s", AccuracyContract(mode="exact")).scalar() == 464

    assert db.durable is None and db.archive_tier is None
    assert os.listdir(tmp_path) == []  # nothing written, ever


def test_in_memory_ingest_unchanged_vs_streaming_suite(tmp_path, monkeypatch):
    """The PR-1 regression: same batches, same stats, same row ranges."""
    monkeypatch.chdir(tmp_path)
    db = LawsDatabase(ingest_batch_size=10)
    db.load_dict("s", {"x": [0.0], "y": [0.0]})
    first = db.ingest("s", [(float(i), float(i)) for i in range(25)])
    assert [(b.start_row, b.end_row) for b in first] == [(1, 11), (11, 21)]
    assert db.ingestor.pending("s") == 5
    rest = db.flush_ingest("s")
    assert [(b.start_row, b.end_row) for b in rest] == [(21, 26)]
    stats = db.ingest_stats("s")
    assert stats.rows_ingested == 25 and stats.batches_flushed == 3
    assert os.listdir(tmp_path) == []


def test_persistence_calls_require_opt_in():
    db = LawsDatabase()
    with pytest.raises(PersistenceError, match="opt-in"):
        db.checkpoint()
    with pytest.raises(PersistenceError, match="opt-in"):
        db.recall_archive("s")
    db.close()  # close on an unopened database is a harmless no-op


def test_context_manager_on_memory_database_is_noop(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with LawsDatabase() as db:
        db.load_dict("s", sensor_rows(50))
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Satellite: context manager → checkpoint() + close()
# ---------------------------------------------------------------------------


def test_context_manager_checkpoints_and_closes(tmp_path):
    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        db.load_dict("s", sensor_rows())
        db.fit("s", "y ~ linear(x)")
        db.ingest("s", [(21.0, 45.0)] * 10)  # buffered, not yet flushed
        assert db.durable is not None
    assert db.durable is None  # closed on exit

    reopened = LawsDatabase.open(root)
    # The exit checkpoint flushed the buffered ingest rows first.
    assert reopened.table("s").num_rows == 410
    assert reopened.last_recovery.models_restored == 1
    assert reopened.last_recovery.wal_records_replayed == 0  # all in the snapshot


def test_context_manager_skips_checkpoint_on_exception(tmp_path):
    root = tmp_path / "store"
    with pytest.raises(RuntimeError):
        with LawsDatabase.open(root) as db:
            db.load_dict("s", sensor_rows())
            raise RuntimeError("boom")
    # No checkpoint happened, but the WAL carried the load.
    reopened = LawsDatabase.open(root)
    assert reopened.last_recovery.checkpoint_id == 0
    assert reopened.table("s").num_rows == 400


# ---------------------------------------------------------------------------
# Cold start: a reopened database serves from models immediately
# ---------------------------------------------------------------------------


def test_cold_start_serves_models_without_refitting(tmp_path):
    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        db.load_dict("s", sensor_rows())
        db.fit("s", "y ~ linear(x)")
        warm = db.query(
            "SELECT AVG(y) FROM s", AccuracyContract(mode="approx", verify_fraction=0.0)
        )

    cold = LawsDatabase.open(root)
    answer = cold.query(
        "SELECT AVG(y) FROM s", AccuracyContract(mode="approx", verify_fraction=0.0)
    )
    assert not answer.is_exact
    assert answer.table.to_pydict() == warm.table.to_pydict()
    assert [m.model_id for m in cold.captured_models()] == [
        m.model_id for m in db.captured_models()
    ]
    # New captures continue the id sequence instead of colliding.
    report = cold.fit("s", "y ~ poly(x, degree=2)")
    assert report.model.model_id > max(m.model_id for m in db.captured_models())


def test_numpy_typed_ingest_survives_the_wal(tmp_path):
    """Producers hand rows straight from NumPy; the WAL must frame them."""
    root = tmp_path / "store"
    rng = np.random.default_rng(1)
    db = LawsDatabase.open(root, ingest_batch_size=8)
    db.load_dict("s", sensor_rows(16))
    db.checkpoint()
    rows = [(np.float64(30.0 + i), np.float64(2.0 * i)) for i in range(16)]
    db.ingest("s", rows, flush=True)
    db.ingest("s", [(float(rng.standard_normal()), np.int64(4))], flush=True)
    db.durable.wal.close()

    reopened = LawsDatabase.open(root)
    assert reopened.table("s").num_rows == 16 + 16 + 1
    assert reopened.table("s").column("y")[-1] == 4.0


def test_planner_calibration_round_trips(tmp_path):
    """Costs come back with their types and provenance, installed on the one
    model the planner costs plans with *and* the fan-out gate consults."""
    root = tmp_path / "store"
    recalibrated = CostModel(
        replace(OperatorCosts(), scan_seconds_per_row=3.0e-8, parallel_max_workers=3),
        source="adaptive:gen2 (40 traced queries)",
    )
    with LawsDatabase.open(root) as db:
        db.load_dict("s", sensor_rows(60))
        db.planner.set_cost_model(recalibrated)

    sql = "SELECT count(*) FROM s"
    for _ in range(2):  # a second round trip restores the same thing
        with LawsDatabase.open(root) as reopened:
            model = reopened.planner.cost_model
            assert model.costs == recalibrated.costs
            assert type(model.costs.parallel_max_workers) is int
            assert model.source == "restored: adaptive:gen2 (40 traced queries)"
            assert f"Cost model: {model.source}" in reopened.explain(sql)
            reopened.partition_table("s", partitions=2)
            with mock.patch.object(model, "parallel_fanout", return_value=None) as gate:
                assert reopened.query(sql, AccuracyContract(mode="exact")).rows() == [(60,)]
            gate.assert_called_once_with(60, 2)


def test_calibration_of_an_older_checkpoint_restores_without_provenance(tmp_path):
    """Payloads written before ``source`` was persisted hold floats only."""
    from repro.persist.store import _restore_calibration

    db = LawsDatabase()
    _restore_calibration(db, {"scan_seconds_per_row": 3.0e-8, "parallel_max_workers": 4.0, "gone": 1.0})
    costs = db.planner.cost_model.costs
    assert costs == replace(OperatorCosts(), scan_seconds_per_row=3.0e-8)
    assert type(costs.parallel_max_workers) is int
    assert db.planner.cost_model.source == "restored: unrecorded"


def test_open_passes_constructor_kwargs_through(tmp_path):
    db = LawsDatabase.open(tmp_path / "store", ingest_batch_size=7, verify_seed=123)
    assert db.ingestor.batch_size == 7


def test_future_format_version_is_refused(tmp_path):
    """The build's own manifest opens, the next one is refused (the exit an
    older build takes when it meets a newer store; v1 and v2 stores open —
    see the v1 upgrade test and ``test_a_v2_store_opens_and_its_first_checkpoint_moves_it_into_the_pool``)."""
    from repro.persist.store import FORMAT_VERSION

    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        db.load_dict("s", sensor_rows(40))
    assert json.loads((root / "MANIFEST.json").read_text())["format_version"] == FORMAT_VERSION
    with LawsDatabase.open(root) as db:
        assert db.table("s").num_rows == 40
    _stamp_format_version(root, FORMAT_VERSION + 1)
    with pytest.raises(FormatVersionError, match=f"v{FORMAT_VERSION + 1}"):
        LawsDatabase.open(root)


def _stamp_format_version(root, version):
    manifest = root / "MANIFEST.json"
    payload = json.loads(manifest.read_text())
    payload["format_version"] = version
    manifest.write_text(json.dumps(payload))


def _rewrite_segments_as_v1(root):
    """Every segment file under ``root`` back to what a v1 build wrote, where
    it wrote it: a checkpoint's under ``segments/ckpt<N>/``, a bulk load's
    under the ``walseg/<k>/`` its record names, each column at its in-memory
    width with a validity mask, all of it deflated."""
    from repro.persist.wal import WriteAheadLog

    manifest = json.loads((root / "MANIFEST.json").read_text())
    checkpoint = f"segments/ckpt{manifest['checkpoint_id']:05d}"
    wal = WriteAheadLog(root / "wal.log")
    replay = wal.replay()
    loads = [record for record in replay.records if record["op"] == "load_table"]
    for directory, entries in [
        *((checkpoint, entry["segments"]) for entry in manifest["tables"].values()),
        *((f"walseg/{k:05d}", record["segments"]) for k, record in enumerate(loads, 1)),
    ]:
        (root / directory).mkdir(parents=True, exist_ok=True)
        for entry in entries:
            (root / "segments" / entry["file"]).rename(root / directory / entry["file"])
    for k, record in enumerate(loads, 1):
        record["dir"] = f"walseg/{k:05d}"
    wal.reset(replay.epoch)
    for record in replay.records:
        wal.append(record)
    wal.close()
    for path in sorted(root.rglob("*.npz")):
        with np.load(path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        for key in [k for k in arrays if k.startswith("v__")]:
            values = arrays[key]
            mask = arrays.setdefault("m__" + key[3:], np.ones(len(values), dtype=bool))
            if values.dtype.kind == "i":
                arrays[key] = np.where(mask, values.astype(np.int64), np.iinfo(np.int64).min)
        np.savez_compressed(path, **arrays)


def test_store_written_by_a_v1_build_opens_and_is_upgraded_by_its_next_checkpoint(tmp_path, monkeypatch):
    from repro.persist import store as store_module
    from repro.persist.store import FORMAT_VERSION

    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", 64)
    root = tmp_path / "store"
    rng = np.random.default_rng(4)

    def observe(db):
        return (
            db.database.fingerprint(),
            {m.model_id: m.status for m in db.captured_models()},
            {name: db.partition_map(name) for name in db.table_names()},
            {name: db.table(name).num_rows for name in db.table_names()},
        )

    db = LawsDatabase.open(root, rows_per_segment=50)
    k = rng.integers(0, 9, 120)
    db.load_dict("s", {"k": k.tolist(), "c": [None if i % 17 == 0 else 300 * i for i in range(120)],
                       "y": (3.0 * k + rng.normal(0, 0.01, 120)).tolist()})
    assert db.fit("s", "y ~ linear(k)").accepted
    db.checkpoint()  # three segments, and the partition map they imply
    db.load_dict("bulk", {"n": list(range(-40, 60))})  # a load_table record
    db.insert_rows("s", [(3, 7, 9.0), (4, None, 12.0)])  # the WAL tail
    live = observe(db)
    db.close()

    _rewrite_segments_as_v1(root)
    assert len(list(root.rglob("*.npz"))) == 5
    manifest = json.loads((root / "MANIFEST.json").read_text())
    for entry in manifest["tables"].values():
        entry.pop("stats", None)
    (root / "MANIFEST.json").write_text(json.dumps(manifest))
    _stamp_format_version(root, 1)

    reopened = LawsDatabase.open(root, rows_per_segment=50)
    assert reopened.quarantine_report()["count"] == 0
    assert reopened.last_recovery.wal_rows_replayed == 102
    assert observe(reopened) == live
    reopened.checkpoint()
    manifest = json.loads((root / "MANIFEST.json").read_text())
    assert manifest["format_version"] == FORMAT_VERSION
    with np.load(root / "segments" / manifest["tables"]["bulk"]["segments"][0]["file"]) as payload:
        assert payload.files == ["v__n"] and payload["v__n"].dtype == np.int8
    upgraded = observe(reopened)  # the checkpoint gave "bulk" its segments' map
    assert upgraded[0] == live[0] and upgraded[1] == live[1]
    reopened.close()
    again = LawsDatabase.open(root, rows_per_segment=50)
    assert observe(again) == upgraded
    again.close()


# ---------------------------------------------------------------------------
# fsync=True: what a manifest names is on stable storage before its rename
# ---------------------------------------------------------------------------


def test_fsync_syncs_every_file_the_manifest_names_and_its_directories_before_the_rename(
    tmp_path, monkeypatch
):
    root = tmp_path / "store"
    rng = np.random.default_rng(29)
    x = rng.uniform(0.0, 10.0, 2000)
    db = LawsDatabase.open(root, fsync=True)
    db.load_dict("t", {"x": x.tolist(), "y": (2.0 * x + rng.normal(0.0, 0.1, 2000)).tolist()})

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def spy_replace(source, target, *args, **kwargs):
        events.append(("replace", os.path.realpath(target)))
        return real_replace(source, target, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    assert db.archive("t", "x < 3").rows_archived > 0
    db.checkpoint()
    monkeypatch.undo()
    db.close()

    base = root.resolve()
    manifest = json.loads((base / "MANIFEST.json").read_text())
    rename = max(i for i, event in enumerate(events) if event == ("replace", str(base / "MANIFEST.json")))
    synced = {path for kind, path in events[:rename] if kind == "fsync"}
    segments = base / "segments"
    named = [segments / s["file"] for entry in manifest["tables"].values() for s in entry["segments"]]
    archived = [
        segments / s["file"]
        for entry in manifest["tables"].values()
        for record in entry["archived"]
        for s in record["segments"]
    ]
    assert archived
    named += archived
    warehouse = base / manifest["warehouse_file"]
    directories = {parent for path in [*named, warehouse] for parent in path.parents if base in parent.parents}
    expected = {str(path) for path in [*named, *directories]} | {f"{warehouse}.tmp"}
    assert sorted(expected - synced) == []


def test_a_reopen_with_fsync_syncs_every_file_the_manifest_names(tmp_path, monkeypatch):
    """A store written without fsync and reopened with it: the reopen syncs
    every pool file its manifest names, an archived table's segments too —
    the next checkpoint names them by reference and writes none again."""
    from repro.persist import files

    root = tmp_path / "store"
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 10.0, 2000)
    db = LawsDatabase.open(root)
    db.load_dict("t", {"x": x.tolist(), "y": (2.0 * x + rng.normal(0.0, 0.1, 2000)).tolist()})
    assert db.archive("t", "x < 3").rows_archived > 0
    db.checkpoint()
    db.close()

    base = root.resolve()
    manifest = json.loads((base / "MANIFEST.json").read_text())
    segments = base / "segments"
    named = {segments / s["file"] for entry in manifest["tables"].values() for s in entry["segments"]}
    archived = {
        segments / s["file"]
        for entry in manifest["tables"].values()
        for record in entry["archived"]
        for s in record["segments"]
    }
    assert archived

    synced = set()
    real_sync = files.sync

    def spy_sync(path, sync_root):
        synced.add(Path(path).resolve())
        real_sync(path, sync_root)

    monkeypatch.setattr(files, "sync", spy_sync)
    reopened = LawsDatabase.open(root, fsync=True)
    assert sorted(map(str, (named | archived) - synced)) == []
    reopened.close()


# ---------------------------------------------------------------------------
# A bulk-load record carries the format version its segments use
# ---------------------------------------------------------------------------


def test_a_load_table_record_from_a_newer_build_is_refused(tmp_path, monkeypatch):
    """A store holding only bulk-load segments has no manifest to stamp it:
    the ``load_table`` record is the stamp, and replay refuses a newer one
    the way the manifest check does."""
    from repro.persist import store as store_module
    from repro.persist.store import FORMAT_VERSION
    from repro.persist.wal import WriteAheadLog

    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", 64)
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    db.load_dict("bulk", {"n": list(range(100))})
    db.close()

    wal = WriteAheadLog(root / "wal.log")
    records = wal.replay().records
    (load,) = [record for record in records if record["op"] == "load_table"]
    assert not (root / "MANIFEST.json").exists()
    assert all((root / "segments" / entry["file"]).is_file() for entry in load["segments"])
    assert load["format_version"] == FORMAT_VERSION
    reopened = LawsDatabase.open(root)  # no exit checkpoint: the WAL stays the stamp
    assert reopened.table("bulk").num_rows == 100
    reopened.close()
    load["format_version"] = FORMAT_VERSION + 1
    wal.reset(0)
    for record in records:
        wal.append(record)
    wal.close()
    with pytest.raises(FormatVersionError, match=f"v{FORMAT_VERSION + 1}"):
        LawsDatabase.open(root)


# ---------------------------------------------------------------------------
# One segment pool: a checkpoint names the tables it did not change
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _observe(db):
    return (
        db.database.fingerprint(),
        {m.model_id: m.status for m in db.captured_models()},
        {name: db.partition_map(name) for name in db.table_names()},
    )


def _manifest(root):
    return json.loads((root / "MANIFEST.json").read_text())


def _named(manifest):
    return {name: [s["file"] for s in entry["segments"]] for name, entry in manifest["tables"].items()}


def test_a_checkpoint_rewrites_only_the_table_that_changed(tmp_path):
    root = tmp_path / "store"
    db = LawsDatabase.open(root, rows_per_segment=4)
    for i in range(50):
        db.load_dict(f"t{i:02d}", {"k": list(range(10)), "y": [2.0 * k + i for k in range(10)]})
    assert db.fit("t07", "y ~ linear(k)").accepted
    assert db.checkpoint().segment_files == 50 * 3
    before = _named(_manifest(root))

    db.insert_rows("t07", [(10, 27.0)])
    report = db.checkpoint()
    after = _named(_manifest(root))
    assert report.segment_files == len(after["t07"]) == 3 and report.tables == 50
    assert set(after["t07"]).isdisjoint(before["t07"])
    assert {n: f for n, f in after.items() if n != "t07"} == {n: f for n, f in before.items() if n != "t07"}
    pool = {path.name for path in (root / "segments").iterdir()}
    assert pool == {file for files in after.values() for file in files}
    live = _observe(db)
    db.close()

    reopened = LawsDatabase.open(root, rows_per_segment=4)
    assert reopened.quarantine_report()["count"] == 0
    assert _observe(reopened) == live
    assert reopened.checkpoint().segment_files == 0
    assert _named(_manifest(root)) == after
    reopened.close()


def test_a_bulk_loads_segments_become_the_next_checkpoints(tmp_path, monkeypatch):
    """A load above ``LARGE_CREATE_SNAPSHOT_ROWS`` writes its segments once:
    the checkpoint after it, and the checkpoint after a reopen — of a
    manifest table and of a WAL-tail bulk load — write no file for it."""
    from repro.persist import store as store_module
    from repro.persist.wal import WriteAheadLog

    monkeypatch.setattr(store_module, "LARGE_CREATE_SNAPSHOT_ROWS", 64)
    root = tmp_path / "store"
    db = LawsDatabase.open(root, rows_per_segment=50)
    db.load_dict("bulk", {"n": list(range(100))})
    assert db.checkpoint().segment_files == 0
    db.load_dict("tail", {"n": list(range(-100, 0))})
    live = _observe(db)
    db.close()
    (load,) = [r for r in WriteAheadLog(root / "wal.log").replay().records if r["op"] == "load_table"]

    reopened = LawsDatabase.open(root, rows_per_segment=50)
    assert reopened.last_recovery.wal_records_replayed == 1
    assert _observe(reopened) == live
    report = reopened.checkpoint()
    assert report.segment_files == 0 and report.rows == 200
    assert _named(_manifest(root))["tail"] == [s["file"] for s in load["segments"]]
    reopened.close()
    again = LawsDatabase.open(root, rows_per_segment=50)
    assert _observe(again)[0] == live[0]
    again.close()


def test_a_table_that_lost_a_segment_at_open_is_rewritten_not_referenced(tmp_path):
    root = tmp_path / "store"
    with LawsDatabase.open(root, rows_per_segment=100) as db:
        db.load_dict("t", {"k": list(range(300))})
        db.load_dict("other", {"k": list(range(250))})
    before = _named(_manifest(root))
    (root / "segments" / before["t"][1]).write_bytes(b"torn")

    db = LawsDatabase.open(root, rows_per_segment=100)
    assert db.quarantine_report()["count"] == 1
    assert db.table("t").num_rows == 200
    report = db.checkpoint()
    after = _named(_manifest(root))
    assert report.segment_files == len(after["t"]) == 2
    assert set(after["t"]).isdisjoint(before["t"]) and after["other"] == before["other"]
    live = _observe(db)
    db.close()
    reopened = LawsDatabase.open(root, rows_per_segment=100)
    assert reopened.quarantine_report()["count"] == 1  # the one record of the first open
    assert _observe(reopened) == live
    reopened.close()


def test_a_checkpoint_torn_mid_write_leaves_the_last_committed_references(tmp_path):
    """Only a committed checkpoint records what it wrote: after a failed one,
    the next rewrites every table changed since the last *committed*
    checkpoint and the store reopens to the live state."""
    from repro.errors import StorageIOError
    from repro.resilience import FaultInjector, FaultSpec, RetryPolicy

    root = tmp_path / "store"
    # Checkpoint 1 writes a, b, c (arrivals 1-3); the torn one is b's rewrite.
    faults = FaultInjector([FaultSpec("persist.snapshot.write", "torn_write", hit=5)])
    db = LawsDatabase.open(root, fault_injector=faults, retry_policy=RetryPolicy(max_attempts=1))
    for name in ("a", "b", "c"):
        db.load_dict(name, {"k": [1, 2, 3]})
    assert db.checkpoint().segment_files == 3
    committed = _named(_manifest(root))
    db.insert_rows("a", [(4,)])
    db.insert_rows("b", [(5,)])
    with pytest.raises(StorageIOError):
        db.checkpoint()
    assert _named(_manifest(root)) == committed
    report = db.checkpoint()
    assert report.segment_files == 2
    after = _named(_manifest(root))
    assert after["c"] == committed["c"]
    assert not {*after["a"], *after["b"]} & {*committed["a"], *committed["b"]}
    live = _observe(db)
    db.close()
    reopened = LawsDatabase.open(root)
    assert reopened.quarantine_report()["count"] == 0 and _observe(reopened) == live
    reopened.close()


def test_a_v2_store_opens_and_its_first_checkpoint_moves_it_into_the_pool(tmp_path):
    """``fixtures/v2_store`` is a store written by the last ``FORMAT_VERSION`` 2
    build of this package (the source tree at commit 2d5e869), with
    ``LARGE_CREATE_SNAPSHOT_ROWS`` set to 64 so 100-row loads log
    ``load_table`` records::

        db = LawsDatabase.open(root, rows_per_segment=50, observability=False)
        db.load_dict("s", {"k": [i % 9 for i in range(120)],
                           "c": [None if i % 17 == 0 else 300 * i for i in range(120)],
                           "y": [3.0 * (i % 9) + 0.001 * i for i in range(120)]})
        db.fit("s", "y ~ linear(k)")
        db.load_dict("a", {"ts": [float(i) for i in range(40)], "v": [0.5 * i for i in range(40)]})
        db.archive("a", "ts < 20")  # checkpoint 1, then the archive
        db.checkpoint()  # checkpoint 2: three segments of s, one of a, an archive record
        db.load_dict("bulk", {"n": list(range(-40, 60))})  # a load_table record over walseg/
        db.insert_rows("s", [(3, 7, 9.0), (4, None, 12.0)])  # WAL-tail appends
        db.insert_rows("bulk", [(61,)])
        db.close()

    ``fixtures/v2_store.json`` holds ``db.database.fingerprint()`` and the
    row counts taken just before ``close()``.
    """
    import shutil

    from repro.db.archived import archived_rows
    from repro.persist.store import FORMAT_VERSION

    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v2_store", root)
    expected = json.loads((FIXTURES / "v2_store.json").read_text())
    assert _manifest(root)["format_version"] == 2

    db = LawsDatabase.open(root)
    assert db.quarantine_report()["count"] == 0
    assert db.database.fingerprint() == expected["fingerprint"]
    assert {name: db.table(name).num_rows for name in db.table_names()} == expected["rows"]
    assert archived_rows(db.database.catalog, "a") == 20
    db.checkpoint()
    assert _manifest(root)["format_version"] == FORMAT_VERSION
    assert not (root / "walseg").exists() and not (root / "archive").exists()
    assert all(path.is_file() for path in (root / "segments").iterdir())
    db.close()

    reopened = LawsDatabase.open(root)
    assert reopened.quarantine_report()["count"] == 0
    assert reopened.database.fingerprint() == expected["fingerprint"]
    assert reopened.recall_archive("a") == 20
    reopened.close()


def test_a_v3_store_replays_its_json_row_tail_and_its_first_checkpoint_stamps_v4(tmp_path):
    """``fixtures/v3_store`` is a store written by the last ``FORMAT_VERSION`` 3
    build of this package (the source tree at commit a7ca022), whose WAL tail
    holds every row-bearing record shape that build wrote: a ``create_table``
    followed by JSON ``append`` chunks (``WAL_APPEND_CHUNK_ROWS`` set to 4),
    an ``sql`` INSERT and a ``load_table`` (``LARGE_CREATE_SNAPSHOT_ROWS`` set
    to 16)::

        db = LawsDatabase.open(root, rows_per_segment=50, observability=False)
        db.load_dict("s", {"k": [i % 9 for i in range(60)],
                           "y": [3.0 * (i % 9) + 0.001 * i for i in range(60)]})
        db.checkpoint()
        db.load_dict("mixed", {"i": [1, None, -3, 2**40, 0, None, 7, 8, -9, 10],
                               "f": [0.5, nan, None, -1e300, 2.0, inf, None, 0.0, -0.0, 3.25],
                               "s": ["a", None, "b\\x00", "", "été", "x" * 40, None, "a", "z", "q"],
                               "b": [True, False, None, True, True, None, False, False, True, False]})
        db.insert_rows("mixed", [(11, nan, "n", None), (None, None, None, None),
                                 (12, 1.5, "m", True), (13, -2.5, None, False),
                                 (14, nan, "o", True), (15, 9.0, "p", None)])
        db.query("INSERT INTO s VALUES (3, 9.5), (4, 12.25)")
        db.load_dict("bulk", {"n": list(range(-10, 30)),
                              "w": [None if n % 7 == 0 else n * 0.25 for n in range(40)]})
        db.insert_rows("bulk", [(99, None)])
        db.durable.wal.close()  # a crash: the tail stays in the WAL

    ``fixtures/v3_store.json`` holds the fingerprint, row counts and
    statistics that build recovered from the store.  (A JSON row turned a
    stored NaN into NULL, so its statistics count those NaNs as NULLs.)
    """
    import shutil

    from repro.persist.store import FORMAT_VERSION

    def observed(db):
        return (
            db.database.fingerprint(),
            {name: db.table(name).num_rows for name in db.table_names()},
            {name: json.dumps(db.database.stats(name).to_payload(), sort_keys=True) for name in db.table_names()},
        )

    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v3_store", root)
    recorded = json.loads((FIXTURES / "v3_store.json").read_text())
    # That build read the extremes of a FLOAT64 column holding a NaN as None;
    # they are those of the values that order (a NaN does not, ±inf do).
    recorded["stats"]["mixed"]["columns"]["f"].update(min_value=-1e300, max_value=float("inf"))
    expected = (
        recorded["fingerprint"],
        recorded["rows"],
        {name: json.dumps(stats, sort_keys=True) for name, stats in recorded["stats"].items()},
    )
    assert _manifest(root)["format_version"] == 3

    db = LawsDatabase.open(root)
    assert db.quarantine_report()["count"] == 0
    assert db.last_recovery.wal_records_replayed == 9
    assert observed(db) == expected
    db.checkpoint()
    assert _manifest(root)["format_version"] == FORMAT_VERSION == 4
    db.close()

    reopened = LawsDatabase.open(root)
    assert reopened.quarantine_report()["count"] == 0
    assert observed(reopened) == expected
    reopened.close()


def test_an_unreadable_legacy_archive_segment_stays_named_where_it_is(tmp_path):
    """The first checkpoint of a v2 store rewrites its archive segments into
    the pool; one it cannot read keeps its record and its file where they
    are — the checkpoint succeeds, the recall fails as it always would."""
    import shutil

    from repro.db.archived import archived_rows
    from repro.errors import ArchiveError

    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v2_store", root)
    expected = json.loads((FIXTURES / "v2_store.json").read_text())
    (legacy,) = (root / "archive").iterdir()
    legacy.write_bytes(b"not a zip")

    db = LawsDatabase.open(root)
    report = db.checkpoint()
    assert report.segment_files == 3  # a, s and bulk, one segment each; not the archive
    (record,) = _manifest(root)["tables"]["a"]["archived"]
    assert [s["file"] for s in record["segments"]] == [f"../archive/{legacy.name}"]
    assert legacy.is_file() and not (root / "walseg").exists()
    db.close()

    reopened = LawsDatabase.open(root)
    assert reopened.database.fingerprint() == expected["fingerprint"]
    assert archived_rows(reopened.database.catalog, "a") == 20
    with pytest.raises(ArchiveError):
        reopened.recall_archive("a")
    reopened.close()
