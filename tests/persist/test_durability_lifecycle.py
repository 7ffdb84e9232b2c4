"""Opt-in persistence, the context-manager protocol and cold-start serving."""

from __future__ import annotations

import json
import os
from dataclasses import replace
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
    """v2 changed how a segment stores its members, not what a manifest
    says: a v1 manifest opens, the build's own does, the next one is refused
    (the exit a v1 build takes when it meets a v2 store)."""
    from repro.persist.store import FORMAT_VERSION

    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        db.load_dict("s", sensor_rows(40))
    assert json.loads((root / "MANIFEST.json").read_text())["format_version"] == FORMAT_VERSION == 2
    _stamp_format_version(root, 1)
    with LawsDatabase.open(root) as db:
        assert db.table("s").num_rows == 40
    _stamp_format_version(root, 3)
    with pytest.raises(FormatVersionError, match="v3"):
        LawsDatabase.open(root)


def _stamp_format_version(root, version):
    manifest = root / "MANIFEST.json"
    payload = json.loads(manifest.read_text())
    payload["format_version"] = version
    manifest.write_text(json.dumps(payload))


def _rewrite_segments_as_v1(root):
    """Every segment file under ``root`` back to what a v1 build wrote: each
    column at its in-memory width with a validity mask, all of it deflated."""
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
    db.checkpoint()  # segments/ckpt*/, three of them, and the partition map they imply
    db.load_dict("bulk", {"n": list(range(-40, 60))})  # a load_table record over walseg/
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
    assert json.loads((root / "MANIFEST.json").read_text())["format_version"] == 2
    with np.load(sorted(root.rglob("bulk__00000.npz"))[0]) as payload:
        assert payload.files == ["v__n"] and payload["v__n"].dtype == np.int8
    upgraded = observe(reopened)  # the checkpoint gave "bulk" its segments' map
    assert upgraded[0] == live[0] and upgraded[1] == live[1]
    reopened.close()
    again = LawsDatabase.open(root, rows_per_segment=50)
    assert observe(again) == upgraded
    again.close()
