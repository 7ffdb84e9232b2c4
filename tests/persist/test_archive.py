"""The model-only tier: archived segments served from warehouse models.

Acceptance shape (ISSUE 5): after ``archive()`` drops raw segments,
``db.query()`` under a permissive contract serves those segments purely
from warehouse models with zero simulated raw-page IO, while a contract it
cannot meet yields an explicit archived-data reason instead of a wrong
answer computed over the partial table.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.db.archived import archived_rows, archived_segments
from repro.errors import ApproximationError, ArchiveError, PersistenceError
from repro.resilience import FaultInjector, FaultSpec


def seeded_rows(n=1200, seed=3):
    rng = np.random.default_rng(seed)
    source = rng.integers(0, 6, size=n)
    ts = np.arange(n, dtype=np.float64)
    frequency = rng.choice([0.12, 0.15, 0.16, 0.18], size=n)
    intensity = (2.0 + 0.4 * source) * frequency**-0.7 * (
        1.0 + 0.01 * rng.standard_normal(n)
    )
    return {
        "ts": [float(v) for v in ts],
        "source": [int(v) for v in source],
        "frequency": [float(v) for v in frequency],
        "intensity": [float(v) for v in intensity],
    }


@pytest.fixture
def db(tmp_path):
    database = LawsDatabase.open(tmp_path / "store")
    database.load_dict("m", seeded_rows())
    database.fit("m", "intensity ~ powerlaw(frequency)", group_by="source")
    return database


GROUPED_SQL = "SELECT source, AVG(intensity) FROM m GROUP BY source"


def test_archive_serves_from_models_with_zero_raw_io(db):
    exact_before = db.query(GROUPED_SQL, AccuracyContract(mode="exact"))
    report = db.archive("m", "ts < 900")
    assert report.rows_archived == 900
    assert db.table("m").num_rows == 300

    answer = db.query(GROUPED_SQL, AccuracyContract(max_relative_error=0.5))
    assert answer.route_taken == "grouped-model"
    assert not answer.is_exact
    assert answer.approx.io.get("pages_read", 0.0) == 0.0  # zero raw-page IO
    # Model answers still describe the FULL logical table (within model
    # error), not the 300 surviving rows.
    by_source_model = dict(answer.table.to_rows())
    by_source_exact = dict(exact_before.table.to_rows())
    for source, value in by_source_exact.items():
        assert by_source_model[source] == pytest.approx(value, rel=0.05)


def test_count_over_archived_rows_uses_merged_statistics(db):
    exact_count = db.query(
        "SELECT source, COUNT(intensity) FROM m GROUP BY source",
        AccuracyContract(mode="exact"),
    )
    db.archive("m", "ts < 900")
    counted = db.query(
        "SELECT source, COUNT(intensity) FROM m GROUP BY source",
        AccuracyContract(mode="approx"),
    )
    # COUNTs come from the merged (live + archived) catalog statistics: the
    # archived rows are still counted, exactly.
    assert dict(counted.table.to_rows()) == dict(exact_count.table.to_rows())
    assert counted.approx.io.get("pages_read", 0.0) == 0.0


def test_exact_contract_refuses_with_archived_reason(db):
    db.archive("m", "ts < 900")
    with pytest.raises(ApproximationError, match="archived"):
        db.query(GROUPED_SQL, AccuracyContract(mode="exact"))


def test_unmeetable_budget_refuses_rather_than_lying(db):
    db.archive("m", "ts < 900")
    with pytest.raises(ApproximationError, match="archived"):
        db.query(GROUPED_SQL, AccuracyContract(max_relative_error=1e-9))


def test_query_without_any_model_refuses(db):
    db.archive("m", "ts < 900")
    # No captured model predicts ts; even auto mode has no honest route.
    with pytest.raises(ApproximationError, match="archived"):
        db.query("SELECT AVG(ts) FROM m")


def test_join_queries_never_prove_disjointness_by_bare_name(db, tmp_path):
    """Constraint analysis strips table qualifiers: in a join, a filter on
    one table's ``ts`` must not "prove" disjointness from *another* table's
    archived ``ts`` predicate — that served a silently wrong exact answer."""
    other = LawsDatabase.open(tmp_path / "join_store")
    other.load_dict("a", {"id": [1, 2, 3], "ts": [5000.0, 6000.0, 7000.0], "v": [1.0, 2.0, 3.0]})
    other.load_dict("b", {"id": [1, 2, 3], "ts": [10.0, 20.0, 30.0], "w": [9.0, 8.0, 7.0]})
    other.archive("b", "ts < 1000")
    with pytest.raises(ApproximationError, match="archived"):
        other.query(
            "SELECT v, w FROM a JOIN b ON a.id = b.id WHERE a.ts >= 5000",
            AccuracyContract(mode="exact"),
        )


def test_provably_disjoint_query_still_runs_exact(db):
    exact_before = db.query(
        "SELECT SUM(intensity) FROM m WHERE ts >= 900", AccuracyContract(mode="exact")
    )
    db.archive("m", "ts < 900")
    after = db.query(
        "SELECT SUM(intensity) FROM m WHERE ts >= 900", AccuracyContract(mode="exact")
    )
    assert after.is_exact
    assert after.table.to_pydict() == exact_before.table.to_pydict()


def test_explain_shows_unavailable_exact_candidate(db):
    db.archive("m", "ts < 900")
    text = db.explain(GROUPED_SQL)
    assert "UNAVAILABLE" in text
    assert "model-only tier" in text


def test_recall_restores_exact_answers(db):
    exact_before = db.query(GROUPED_SQL, AccuracyContract(mode="exact"))
    db.archive("m", "ts < 900")
    restored = db.recall_archive("m")
    assert restored == 900
    assert db.table("m").num_rows == 1200
    after = db.query(GROUPED_SQL, AccuracyContract(mode="exact"))
    assert dict(after.table.to_rows()) == {
        s: pytest.approx(v) for s, v in exact_before.table.to_rows()
    }
    with pytest.raises(ArchiveError):
        db.recall_archive("m")  # nothing left to recall


def test_archive_survives_checkpoint_and_reopen(db, tmp_path):
    db.archive("m", "ts < 900")
    db.checkpoint()
    db.close()

    reopened = LawsDatabase.open(tmp_path / "store")
    assert reopened.last_recovery.archived_tables == ["m"]
    assert reopened.table("m").num_rows == 300
    answer = reopened.query(GROUPED_SQL, AccuracyContract(max_relative_error=0.5))
    assert answer.route_taken == "grouped-model"
    assert answer.approx.io.get("pages_read", 0.0) == 0.0
    with pytest.raises(ApproximationError, match="archived"):
        reopened.query(GROUPED_SQL, AccuracyContract(mode="exact"))
    # ... and recall still works from the reopened process.
    assert reopened.recall_archive("m") == 900
    assert reopened.table("m").num_rows == 1200


def test_archive_accounting_in_storage_report(db):
    before = db.storage_report()
    assert before["total_archived_bytes"] == 0
    db.archive("m", "ts < 900")
    report = db.storage_report()
    assert report["tables"]["m"]["archived_bytes"] > 0
    assert report["total_archived_bytes"] == report["tables"]["m"]["archived_bytes"]
    assert report["tables"]["m"]["raw_bytes"] < before["tables"]["m"]["raw_bytes"]


def test_archive_requires_durable_store():
    memory_only = LawsDatabase()
    memory_only.load_dict("m", seeded_rows(60))
    with pytest.raises(PersistenceError, match="opt-in"):
        memory_only.archive("m", "ts < 30")


def test_archive_rejects_empty_selection(db):
    with pytest.raises(ArchiveError, match="selects no rows"):
        db.archive("m", "ts < -1")


def test_feedback_never_audits_archived_answers(db):
    """Verification re-runs "exact" over the partial live table — over an
    archived table that would record bogus evidence against a model that is
    answering correctly for the full logical table.  It must be skipped."""
    db.archive("m", "ts < 900")
    for _ in range(6):
        answer = db.query(
            GROUPED_SQL, AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)
        )
        assert answer.feedback is None  # sampling suppressed, nothing recorded
    for model in db.captured_models():
        assert model.observed_errors == []
        assert "planner_demoted" not in model.metadata


def test_recall_keeps_segment_files_until_a_checkpoint_persists_them(db, tmp_path):
    db.archive("m", "ts < 400")
    db.archive("m", "ts < 800")
    archived = [
        db.durable.pool / entry["file"]
        for segment in archived_segments(db.database.catalog, "m")
        for entry in segment.segment_entries
    ]
    assert len(archived) == 2 and all(path.is_file() for path in archived)
    db.checkpoint()  # the manifest now references both archive segments
    db.recall_archive("m")
    # Until the next checkpoint snapshots the recalled rows, the archive
    # segments are their only durable copy — the replayed recall record
    # reads them back on recovery.
    assert all(path.is_file() for path in archived)
    db.durable.wal.close()  # crash before any checkpoint
    crashed = LawsDatabase.open(tmp_path / "store")
    # The WAL-logged recall replays: the acknowledged state (everything
    # live) survives the crash.
    assert archived_rows(crashed.database.catalog, "m") == 0
    assert crashed.table("m").num_rows == 1200
    crashed.close()

    # The checkpoint that persists the recall purges the now-garbage files.
    db.checkpoint()
    assert not any(path.exists() for path in archived)
    assert db.table("m").num_rows == 1200


def test_archive_itself_survives_a_crash_via_the_wal(db, tmp_path):
    """An acknowledged archive() must not be silently undone by a crash —
    the user archived to shed memory; a restart must not reload the rows.
    No explicit checkpoint here: archive() itself persists the warehouse
    models about to serve in place of the raw rows, so the replayed archive
    record never leaves a model-less tier behind."""
    db.archive("m", "ts < 900")
    db.durable.wal.close()  # crash immediately after the archive

    crashed = LawsDatabase.open(tmp_path / "store")
    assert archived_rows(crashed.database.catalog, "m") == 900
    assert crashed.table("m").num_rows == 300
    assert crashed.last_recovery.models_restored >= 1  # models came with it
    answer = crashed.query(GROUPED_SQL, AccuracyContract(max_relative_error=0.5))
    assert answer.route_taken == "grouped-model"
    assert answer.approx.io.get("pages_read", 0.0) == 0.0
    with pytest.raises(ApproximationError, match="archived"):
        crashed.query(GROUPED_SQL, AccuracyContract(mode="exact"))


def test_dropping_an_archived_table_clears_the_tier(db):
    db.archive("m", "ts < 900")
    db.drop_table("m")
    assert not db.database.has_table("m")
    assert archived_rows(db.database.catalog, "m") == 0
    # A recreated table of the same name starts clean: no dead overlay, no
    # phantom archived rows, no blocked queries.
    db.load_dict("m", {"ts": [1.0, 2.0], "intensity": [5.0, 6.0]})
    assert db.database.stats("m").row_count == 2
    count = db.query("SELECT COUNT(intensity) FROM m", AccuracyContract(mode="exact"))
    assert count.scalar() == 2


def test_drop_of_archived_table_replays_cleanly(db, tmp_path):
    db.checkpoint()
    db.archive("m", "ts < 900")
    db.checkpoint()  # manifest now carries the archive payload
    db.drop_table("m")
    db.durable.wal.close()  # crash: the drop lives only in the WAL

    crashed = LawsDatabase.open(tmp_path / "store")
    assert not crashed.database.has_table("m")
    assert archived_rows(crashed.database.catalog, "m") == 0
    crashed.load_dict("m", {"ts": [1.0], "intensity": [5.0]})
    assert crashed.database.stats("m").row_count == 1


def test_maintenance_never_refits_over_an_archived_table(db):
    db.watch("m", "intensity", order_column="ts")
    db.archive("m", "ts < 900")
    db.ingest("m", [(1200.0 + i, 2, 0.15, 99.0) for i in range(600)], flush=True)
    before = {m.model_id: m.status for m in db.captured_models()}
    report = db.maintain()
    # The shifted stream would normally trigger a refit/segmentation; with
    # 900 rows archived that fit would see only the biased live remainder.
    assert report.actions_of_kind("refit") == []
    assert report.actions_of_kind("segmented") == []
    assert "archived" in report.actions[0].details
    assert {m.model_id: m.status for m in db.captured_models()} == before
    # Recalling the archive lifts the guard.
    db.recall_archive("m")
    lifted = db.maintain()
    assert all("archived" not in action.details for action in lifted.actions)


def test_on_demand_grouped_harvest_is_blocked_while_archived(db, tmp_path):
    other = LawsDatabase.open(tmp_path / "other")
    other.load_dict("m", seeded_rows())
    # Only an ungrouped capture exists: a GROUP BY normally triggers the
    # on-demand grouped harvest, which must refuse over an archived table.
    other.fit("m", "intensity ~ powerlaw(frequency)")
    other.archive("m", "ts < 900")
    with pytest.raises(ApproximationError, match="archived"):
        other.query(GROUPED_SQL, AccuracyContract(max_relative_error=0.5))
    assert all(not m.is_grouped for m in other.captured_models())


def test_direct_fit_is_blocked_while_archived(db):
    """Every capture path funnels through the harvester's guard: a fit over
    the predicate-biased live remainder would be served as describing the
    full logical table, with feedback verification disabled."""
    from repro.errors import HarvestError

    db.archive("m", "ts < 900")
    with pytest.raises(HarvestError, match="archived"):
        db.fit("m", "intensity ~ powerlaw(frequency)")
    with pytest.raises(HarvestError, match="archived"):
        db.strawman("m").fit("intensity ~ powerlaw(frequency)")
    # The pre-archive grouped model (fitted on the full data) still serves...
    existing = db.ensure_grouped_model("m", "intensity", ["source"])
    assert existing is not None and existing.fitted_row_count == 1200
    # ... but capturing a NEW grouping would fit the biased remainder: blocked.
    models_before = len(db.captured_models())
    assert (
        db.ensure_grouped_model(
            "m", "intensity", ["frequency"], formula="intensity ~ powerlaw(frequency)"
        )
        is None
    )
    assert len(db.captured_models()) == models_before
    db.recall_archive("m")
    # Guard lifted: the capture goes through again (acceptance is up to the
    # quality gate, not the archive guard).
    assert db.fit("m", "intensity ~ powerlaw(frequency)").model is not None


def test_replacing_an_archived_table_clears_the_tier(db, tmp_path):
    from repro.db.table import Table

    db.archive("m", "ts < 900")
    replacement = Table.from_dict("m", {"ts": [1.0, 2.0], "intensity": [5.0, 6.0]})
    db.register_table(replacement, replace=True)
    assert archived_rows(db.database.catalog, "m") == 0
    assert db.database.stats("m").row_count == 2
    count = db.query("SELECT COUNT(intensity) FROM m", AccuracyContract(mode="exact"))
    assert count.scalar() == 2

    # ... and the WAL replay of that replace behaves identically.
    db.durable.wal.close()
    crashed = LawsDatabase.open(tmp_path / "store")
    assert archived_rows(crashed.database.catalog, "m") == 0
    assert crashed.table("m").num_rows == 2


@pytest.mark.parametrize("rebuild", ["drop-then-register", "replace"])
def test_a_table_rebuilt_on_the_substrate_has_archived_nothing(tmp_path, rebuild):
    """What a table archived is its catalog metadata, so it goes with the
    table — also when the table is dropped or replaced through
    ``db.database``, past the façade.  Every reader then agrees that the new
    table has archived nothing."""
    from repro.db.table import Table

    rng = np.random.default_rng(28)

    def rows():
        x = rng.uniform(0.0, 10.0, 2000)
        return {"x": x.tolist(), "y": (2.0 * x + rng.normal(0.0, 0.1, 2000)).tolist()}

    db = LawsDatabase.open(tmp_path / "store")
    db.load_dict("t", rows())
    assert db.archive("t", "x < 3").rows_archived > 0
    fresh = Table.from_dict("t", rows())
    if rebuild == "replace":
        db.database.register_table(fresh, replace=True)
    else:
        db.database.drop_table("t")
        db.database.register_table(fresh)

    assert db.fit("t", "y ~ linear(x)").accepted
    assert db.storage_report()["tables"]["t"]["archived_bytes"] == 0
    assert db.database.stats("t").row_count == 2000
    count = db.query("SELECT count(*) FROM t", AccuracyContract(mode="exact"))
    assert count.scalar() == 2000
    with pytest.raises(ArchiveError):
        db.recall_archive("t")
    db.close()


def test_archiving_does_not_stale_models(db):
    statuses = {m.model_id: m.status for m in db.captured_models()}
    db.archive("m", "ts < 900")
    assert {m.model_id: m.status for m in db.captured_models()} == statuses


# ---------------------------------------------------------------------------
# The archive tier writes and reads its segments like every other segment
# ---------------------------------------------------------------------------


def _faulted(tmp_path, spec):
    faults = FaultInjector([spec])
    database = LawsDatabase.open(tmp_path / "faulted", fault_injector=faults)
    database.load_dict("m", seeded_rows())
    return database, faults


def _retries(database, point):
    return [
        event.fields["outcome"]
        for event in database.events(kind="retry")
        if event.fields["operation"] == point
    ]


def test_a_transient_error_on_an_archive_segment_write_is_retried(tmp_path):
    spec = FaultSpec("persist.archive.write", "oserror", errno_code=errno.EAGAIN)
    database, faults = _faulted(tmp_path, spec)
    assert database.archive("m", "ts < 900").rows_archived == 900
    assert [(e.point, e.hit) for e in faults.fired()] == [("persist.archive.write", 1)]
    assert _retries(database, "persist.archive.write") == ["success"]
    assert database.table("m").num_rows == 300
    assert database.recall_archive("m") == 900


@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOSPC], ids=["EAGAIN", "ENOSPC"])
def test_any_error_on_an_archive_segment_read_is_retried(tmp_path, code):
    """A recall is an idempotent read: even an errno a write would give up
    on says nothing about the bytes on disk."""
    spec = FaultSpec("persist.archive.read", "oserror", errno_code=code)
    database, faults = _faulted(tmp_path, spec)
    database.archive("m", "ts < 900")
    assert database.recall_archive("m") == 900
    assert [(e.point, e.hit) for e in faults.fired()] == [("persist.archive.read", 1)]
    assert _retries(database, "persist.archive.read") == ["success"]
    assert database.table("m").num_rows == 1200


def test_a_full_disk_under_an_archive_leaves_table_and_record_as_they_were(tmp_path):
    spec = FaultSpec("persist.archive.write", "oserror", errno_code=errno.ENOSPC)
    database, faults = _faulted(tmp_path, spec)
    before = (database.database.fingerprint(), database.storage_report())
    with pytest.raises(ArchiveError, match="ENOSPC"):
        database.archive("m", "ts < 900")
    assert [(e.point, e.hit) for e in faults.fired()] == [("persist.archive.write", 1)]
    assert _retries(database, "persist.archive.write") == []
    assert database.table("m").num_rows == 1200
    assert archived_rows(database.database.catalog, "m") == 0
    assert (database.database.fingerprint(), database.storage_report()) == before
    assert database.archive("m", "ts < 900").rows_archived == 900  # the repeat succeeds
