"""Recovery under injected and hand-made damage.

Satellite coverage:

* ENOSPC (or a crash) at any fault point *inside* ``checkpoint()`` leaves
  the previous manifest in charge and the WAL replayable — the tmp +
  fsync + rename pivot is the commit point.
* A torn WAL tail is truncated, quarantined, journaled as a
  ``wal-truncation`` event and counted in ``recovery_total{outcome}``.
* Flipped bytes in one warehouse model entry quarantine exactly that
  entry; every other model serves after reopen.
"""

import json

import pytest

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.errors import ReproError
from repro.resilience import FaultInjector
from repro.resilience.faults import FaultSpec

ROWS = 48
EXTRA = 16


def make_rows(start, count):
    return [(float(t), 2.0 * t + 3.0) for t in range(start, start + count)]


def populate(db):
    db.load_dict(
        "metrics",
        {
            "t": [float(t) for t in range(ROWS)],
            "v": [2.0 * t + 3.0 for t in range(ROWS)],
        },
    )
    db.fit("metrics", "v ~ t")


#: Fault points that fire somewhere inside ``checkpoint()``.
CHECKPOINT_POINTS = (
    "persist.snapshot.write",
    "persist.warehouse.store",
    "persist.manifest.write",
    "persist.wal.reset",
)


def _arrivals(injector, point):
    state = injector._points.get(point)
    return state.count if state is not None else 0


@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_enospc_mid_checkpoint_keeps_previous_manifest_and_wal(tmp_path, point):
    # Probe run: count arrivals at `point` up to (but not including) the
    # second checkpoint, so the fault can be pinned inside checkpoint #2
    # regardless of how many times the point fires during setup.
    probe = FaultInjector([FaultSpec(point, "latency", hit=1_000_000)])

    def run(root, faults):
        db = LawsDatabase.open(root, fault_injector=faults)
        populate(db)
        db.checkpoint()
        db.insert_rows("metrics", make_rows(ROWS, EXTRA))
        return db

    db = run(tmp_path / "probe", probe)
    arrivals_before_second = _arrivals(probe, point)
    db.checkpoint()
    arrivals_inside = _arrivals(probe, point) - arrivals_before_second
    db.close()
    assert arrivals_inside >= 1, f"{point} never fires during checkpoint()"

    faults = FaultInjector(
        [FaultSpec(point, "oserror", hit=arrivals_before_second + 1)],
    )
    db = run(tmp_path / "store", faults)
    try:
        db.checkpoint()
    except ReproError:
        pass  # a typed refusal is the expected shape for most points
    finally:
        db.close()
    assert [e.hit for e in faults.fired()] == [arrivals_before_second + 1]

    # The previous manifest + WAL must reconstruct every acknowledged row.
    reopened = LawsDatabase.open(tmp_path / "store")
    try:
        assert reopened.table("metrics").num_rows == ROWS + EXTRA
        assert reopened.quarantine_report()["count"] == 0
        assert reopened.resilience.health.failed_components() == []
    finally:
        reopened.close()


@pytest.mark.parametrize("damage", ["torn_tail", "bit_flip_in_body"])
def test_torn_wal_tail_is_truncated_quarantined_and_journaled(tmp_path, damage):
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    populate(db)
    db.checkpoint()
    db.insert_rows("metrics", make_rows(ROWS, EXTRA))
    db.insert_rows("metrics", make_rows(ROWS + EXTRA, EXTRA))
    db.close()

    wal_path = root / "wal.log"
    intact = wal_path.read_bytes()
    faults = None
    if damage == "torn_tail":
        wal_path.write_bytes(intact[:-7])  # tear the last frame mid-payload
        kept = 1
    else:
        # One bit of the first insert's rows (the binary body after its
        # header's NUL) flips as the reopen reads the log.
        body = intact.index(b"\0", intact.index(b'"op":"append"')) + 1
        faults = FaultInjector([FaultSpec("persist.wal.replay", "bit_flip", bit_index=8 * (body + 40))])
        kept = 0

    db = LawsDatabase.open(root, fault_injector=faults)
    try:
        # The damaged frame and everything after it are gone; everything
        # before it — checkpointed rows plus the intact WAL frames — serves.
        assert db.table("metrics").num_rows == ROWS + kept * EXTRA
        truncations = db.events(kind="wal-truncation")
        assert len(truncations) == 1
        assert truncations[0].fields["truncated_bytes"] > 0
        assert (
            db.obs.metrics.counter_value("recovery_total", outcome="wal-truncated")
            == 1
        )
        tails = db.durable.quarantine.records(artefact="wal-tail")
        assert len(tails) == 1
        assert tails[0].reason  # names why the tail was cut
        if damage == "bit_flip_in_body":  # the CRC cuts at the first insert's frame
            first_frame = intact.index(b'{"op":"append"') - 8
            assert truncations[0].fields["truncated_bytes"] == len(intact) - first_frame
            assert tails[0].reason == "frame checksum mismatch"
        # The torn tail is damage, not loss of acknowledged commits: the
        # file itself stays live and the store keeps accepting writes.
        db.insert_rows("metrics", make_rows(ROWS + 2 * EXTRA, EXTRA))
        db.checkpoint()
    finally:
        db.close()

    reopened = LawsDatabase.open(root)
    try:
        assert reopened.table("metrics").num_rows == ROWS + (kept + 1) * EXTRA
        assert (
            reopened.obs.metrics.counter_value("recovery_total", outcome="clean") == 1
        )
    finally:
        reopened.close()


def test_corrupt_warehouse_entry_quarantined_rest_serves(tmp_path):
    root = tmp_path / "store"
    db = LawsDatabase.open(root)
    db.load_dict(
        "metrics",
        {
            "t": [float(t) for t in range(ROWS)],
            "v": [2.0 * t + 3.0 for t in range(ROWS)],
            "w": [5.0 * t - 1.0 for t in range(ROWS)],
        },
    )
    db.fit("metrics", "v ~ t")
    db.fit("metrics", "w ~ t")
    db.checkpoint()
    db.close()

    manifest = json.loads((root / "MANIFEST.json").read_text())
    warehouse_path = root / manifest["warehouse_file"]
    payload = json.loads(warehouse_path.read_text())
    victims = [e for e in payload["models"] if e["coverage"]["output_column"] == "v"]
    assert len(victims) == 1
    victims[0]["fit"] = "\x00garbage\x00"  # the flipped bytes
    warehouse_path.write_text(json.dumps(payload))

    db = LawsDatabase.open(root)
    try:
        # Exactly the corrupt entry is quarantined and journaled...
        entries = db.durable.quarantine.records(artefact="warehouse-entry")
        assert len(entries) == 1
        assert db.events(kind="quarantine", artefact="warehouse-entry")
        assert db.resilience.health.state("warehouse") == "degraded"
        # ...while the surviving model still answers under contract.
        surviving = db.best_model("metrics", "w")
        assert surviving is not None
        answer = db.query(
            "SELECT avg(w) AS m FROM metrics",
            AccuracyContract(max_relative_error=0.1, verify_fraction=0.0),
        )
        exact = db.query(
            "SELECT avg(w) AS m FROM metrics", AccuracyContract(mode="exact")
        )
        assert float(answer.scalar()) == pytest.approx(float(exact.scalar()), rel=0.1)
        # The quarantined model is simply gone from the store.
        assert all(m.output_column != "v" for m in db.captured_models("metrics"))
    finally:
        db.close()
