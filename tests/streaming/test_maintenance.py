"""The maintenance loop end-to-end: watch -> ingest -> drift -> segment -> serve.

The headline test is the acceptance scenario from the streaming subsystem
issue: ingest a stream with a mid-stream regime change into a
:class:`LawsDatabase`; after ``maintain()`` the model store must hold an
active model per regime segment and an approximate aggregate over the full
range must land within its reported error bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.errors import DriftMonitorError

from tests.conftest import APPROX, EXACT


def _regime(rng, t_start, t_stop, intercept, slope, noise=0.2, step=0.25):
    t = np.arange(t_start, t_stop, step)
    return t, intercept + slope * t + rng.normal(0, noise, len(t))


@pytest.fixture()
def streaming_db():
    """A LawsDatabase with regime-1 data loaded and a linear model captured."""
    rng = np.random.default_rng(7)
    t, v = _regime(rng, 0.0, 100.0, intercept=2.0, slope=0.5)
    db = LawsDatabase(ingest_batch_size=100)
    db.load_dict("readings", {"t": t, "value": v})
    report = db.fit("readings", "value ~ linear(t)")
    assert report.accepted
    return db, rng


class TestWatch:
    def test_watch_requires_captured_model(self):
        db = LawsDatabase()
        db.load_dict("readings", {"t": [0.0, 1.0], "value": [0.0, 1.0]})
        with pytest.raises(DriftMonitorError):
            db.watch("readings", "value")

    def test_watch_validates_order_column(self, streaming_db):
        db, _ = streaming_db
        with pytest.raises(DriftMonitorError, match="order column"):
            db.watch("readings", "value", order_column="bogus")

    def test_watch_rejects_non_numeric_order_column(self):
        db = LawsDatabase()
        db.load_dict("events", {"ts": ["a", "b", "c", "d", "e", "f"],
                                "t": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                                "value": [0.0, 1.1, 2.0, 3.1, 4.0, 5.1]})
        assert db.fit("events", "value ~ linear(t)").accepted
        with pytest.raises(DriftMonitorError, match="numeric"):
            db.watch("events", "value", order_column="ts")

    def test_watch_registers_target(self, streaming_db):
        db, _ = streaming_db
        target = db.watch("readings", "value", order_column="t")
        assert target.model_id == db.best_model("readings", "value").model_id
        assert db.maintenance.target_for("readings", "value") is target
        assert "watch readings.value" in target.describe()
        db.maintenance.unwatch("readings", "value")
        with pytest.raises(DriftMonitorError):
            db.maintenance.target_for("readings", "value")


class TestMaintainQuietPath:
    def test_no_action_without_batches(self, streaming_db):
        db, _ = streaming_db
        db.watch("readings", "value", order_column="t")
        report = db.maintain()
        assert [a.kind for a in report.actions] == ["none"]
        assert not report.did_anything

    def test_benign_appends_revalidated_back_to_active(self, streaming_db):
        db, rng = streaming_db
        db.watch("readings", "value", order_column="t")
        model = db.best_model("readings", "value")
        # Same law continues: drift monitor stays quiet, model goes stale.
        t, v = _regime(rng, 100.0, 150.0, intercept=2.0, slope=0.5)
        db.ingest("readings", list(zip(t, v)), flush=True)
        assert model.status == "stale"
        report = db.maintain()
        assert [a.kind for a in report.actions] == ["revalidated"]
        assert model.status == "active"
        assert db.models.candidates("readings", "value")

    def test_failing_target_does_not_abort_the_tick(self, streaming_db, monkeypatch):
        db, rng = streaming_db
        db.watch("readings", "value", order_column="t")
        # Second healthy target on another table.
        t = np.arange(0.0, 60.0, 0.5)
        db.load_dict("other", {"t": t, "value": 3.0 + 0.1 * t + rng.normal(0, 0.05, len(t))})
        assert db.fit("other", "value ~ linear(t)").accepted
        db.watch("other", "value", order_column="t")

        # Drift on "readings" whose refit raises: the tick must report the
        # error and still process the other target.
        t2, v2 = _regime(rng, 100.0, 200.0, intercept=30.0, slope=0.5)
        db.ingest("readings", list(zip(t2, v2)), flush=True)
        from repro.errors import HarvestError

        def boom(*args, **kwargs):
            raise HarvestError("synthetic refit failure")

        monkeypatch.setattr(db.harvester, "fit_and_capture", boom)
        model_count = len(db.captured_models("readings"))
        report = db.maintain()
        kinds = {(a.table_name, a.kind) for a in report.actions}
        # Harvest failures are contained inside the drift handling: the
        # action reports them and the other target is still processed.
        assert ("readings", "segmented") in kinds
        assert ("other", "none") in kinds
        action = report.actions_of_kind("segmented")[0]
        assert action.new_model_ids == ()
        assert "HarvestError" in action.details
        assert len(db.captured_models("readings")) == model_count
        # The failed attempt is deferred, not retried on the same data.
        report = db.maintain()
        assert [a.kind for a in report.actions_of_kind("none") if a.table_name == "readings"]

    def test_maintain_report_summary(self, streaming_db):
        db, _ = streaming_db
        db.watch("readings", "value", order_column="t")
        assert "readings.value" in db.maintain().summary()
        assert LawsDatabase().maintain().summary() == "(no watched targets)"


class TestMaintainDriftPath:
    def _stream_regime_change(self, db, rng, batch=50):
        """Level shift of +24 at t=100 (the trend itself continues)."""
        t, v = _regime(rng, 100.0, 200.0, intercept=26.0, slope=0.5)
        for start in range(0, len(t), batch):
            db.ingest("readings", list(zip(t[start : start + batch], v[start : start + batch])))
        db.flush_ingest()
        return t, v

    def test_acceptance_scenario_segment_and_serve(self, streaming_db):
        db, rng = streaming_db
        target = db.watch("readings", "value", order_column="t")
        old_model = db.models.get(target.model_id)

        self._stream_regime_change(db, rng)
        assert target.last_verdict is not None and target.last_verdict.drifted

        report = db.maintain()
        actions = report.actions_of_kind("segmented")
        assert len(actions) == 1
        action = actions[0]

        # The change point is localised at the regime boundary (row 400 = t 100).
        assert len(action.changepoint_indices) == 1
        assert abs(action.changepoint_indices[0] - 400) <= 16

        # The old whole-table model was superseded, not left benched-stale.
        assert old_model.status == "superseded"
        assert old_model.metadata["superseded_by"] in action.new_model_ids

        # One active (non-stale) model per regime segment.
        segment_models = [
            m
            for m in db.models.candidates("readings", "value", require_whole_table=False)
            if not m.coverage.covers_whole_table
        ]
        assert len(segment_models) == 2
        assert all(m.status == "active" and m.accepted for m in segment_models)
        predicates = sorted(m.coverage.predicate_sql for m in segment_models)
        assert any("<" in p for p in predicates) and any(">=" in p for p in predicates)

        # Full-range approximate aggregate lands within its reported error bound.
        answer = db.query("SELECT avg(value) AS m FROM readings", APPROX).approx
        assert not answer.is_exact
        exact = db.query("SELECT avg(value) AS m FROM readings", EXACT).query_result.table.row(0)[0]
        estimate = answer.error_estimate("m")
        assert estimate is not None and estimate.standard_error > 0
        assert abs(answer.scalar() - exact) <= 2.0 * estimate.standard_error

        # The detector now monitors the freshest regime's model and is calm.
        monitored = db.models.get(target.model_id)
        assert monitored.coverage.predicate_sql is not None  # tail segment model
        t3, v3 = _regime(rng, 200.0, 220.0, intercept=26.0, slope=0.5)
        db.ingest("readings", list(zip(t3, v3)), flush=True)
        assert not target.last_verdict.drifted

    def test_drift_without_order_column_refits_whole_table(self, streaming_db):
        db, rng = streaming_db
        target = db.watch("readings", "value")  # no order column
        old_id = target.model_id
        self._stream_regime_change(db, rng)
        report = db.maintain()
        actions = report.actions_of_kind("refit")
        assert len(actions) == 1
        assert actions[0].old_model_ids == (old_id,)
        assert db.models.get(old_id).status == "superseded"
        new_model = db.models.get(target.model_id)
        assert new_model.model_id != old_id
        assert new_model.coverage.covers_whole_table

    def test_segment_models_survive_benign_ticks_after_segmentation(self, streaming_db):
        """Partial models must be revalidated on their own coverage subset.

        With a shift large enough that no segment model passes a
        *whole-table* quality check, a benign append plus a quiet
        maintenance tick must not destroy the per-segment models.
        """
        db, rng = streaming_db
        db.watch("readings", "value", order_column="t")
        # +200 level shift: each regime is perfectly linear, their union is not.
        t2 = np.arange(100.0, 200.0, 0.25)
        v2 = 202.0 + 0.5 * t2 + rng.normal(0, 0.2, len(t2))
        db.ingest("readings", list(zip(t2, v2)), flush=True)
        db.maintain()
        segment_ids = [
            m.model_id
            for m in db.models.candidates("readings", "value", require_whole_table=False)
            if not m.coverage.covers_whole_table
        ]
        assert len(segment_ids) == 2

        # One benign batch of the current regime, then a quiet tick.
        t3 = np.arange(200.0, 210.0, 0.25)
        v3 = 202.0 + 0.5 * t3 + rng.normal(0, 0.2, len(t3))
        db.ingest("readings", list(zip(t3, v3)), flush=True)
        db.maintain()
        for model_id in segment_ids:
            model = db.models.get(model_id)
            assert model.status == "active", f"segment model#{model_id} was benched"

    def test_second_regime_change_does_not_resegment_history(self, streaming_db):
        """Drift on a segment model is analysed within its own coverage.

        A second regime change must produce sub-segments of the monitored
        tail segment, not re-detect the first boundary and duplicate the
        historical segment models.
        """
        db, rng = streaming_db
        target = db.watch("readings", "value", order_column="t")
        self._stream_regime_change(db, rng)  # shift at t=100
        db.maintain()
        predicates_before = {
            m.coverage.predicate_sql
            for m in db.captured_models("readings")
            if m.coverage.predicate_sql is not None
        }

        # Second regime change at t=200.
        t3, v3 = _regime(rng, 200.0, 300.0, intercept=50.0, slope=0.5)
        db.ingest("readings", list(zip(t3, v3)), flush=True)
        assert target.last_verdict.drifted
        report = db.maintain()
        action = report.actions_of_kind("segmented")[0]
        # Exactly the new boundary, found within the tail segment's rows.
        assert len(action.changepoint_indices) == 1

        new_predicates = {
            m.coverage.predicate_sql
            for m in db.captured_models("readings")
            if m.coverage.predicate_sql is not None
        } - predicates_before
        # Every new segment is scoped inside the old tail coverage (t >= 100),
        # and the historical "t < 100" segment was not re-harvested.
        assert new_predicates
        assert all(p.startswith("(t >= 100.0) AND (") for p in new_predicates)
        # One active model per current regime piece, queries still answered.
        active_partials = [
            m
            for m in db.models.candidates("readings", "value", require_whole_table=False)
            if not m.coverage.covers_whole_table
        ]
        assert len(active_partials) >= 3
        assert not db.query("SELECT avg(value) AS m FROM readings", APPROX).approx.is_exact

    def test_late_rows_of_old_regime_do_not_alarm_segment_model(self, streaming_db):
        """Batch scoring respects the monitored model's coverage predicate."""
        db, rng = streaming_db
        target = db.watch("readings", "value", order_column="t")
        self._stream_regime_change(db, rng)
        db.maintain()
        monitored = db.models.get(target.model_id)
        assert monitored.coverage.predicate_sql is not None  # tail segment

        # Late-arriving regime-1 backfill (t < 100, old law): outside the
        # monitored segment's coverage, so it must not trip the detector.
        t_late = np.arange(0.05, 100.0, 0.5)
        v_late = 2.0 + 0.5 * t_late + rng.normal(0, 0.2, len(t_late))
        db.ingest("readings", list(zip(t_late, v_late)), flush=True)
        assert target.last_verdict is None or not target.last_verdict.drifted

    def test_queries_stay_accurate_through_regime_change(self, streaming_db):
        """The whole point: with maintenance, post-drift answers stay tight."""
        db, rng = streaming_db
        db.watch("readings", "value", order_column="t")
        self._stream_regime_change(db, rng)

        # Before maintenance the stale pre-change model serves and is badly off.
        stale_error = abs(
            db.query("SELECT avg(value) AS m FROM readings", APPROX).approx.scalar()
            - db.query("SELECT avg(value) AS m FROM readings", EXACT).query_result.table.row(0)[0]
        )
        db.maintain()
        fresh_error = abs(
            db.query("SELECT avg(value) AS m FROM readings", APPROX).approx.scalar()
            - db.query("SELECT avg(value) AS m FROM readings", EXACT).query_result.table.row(0)[0]
        )
        assert fresh_error < stale_error / 10


class TestRejectedRefitSafety:
    """A rejected refit must never bench the old (still servable) model."""

    def _v_shape_db(self, order_column):
        # Trend up then sharply down: no single linear fit passes the gate.
        rng = np.random.default_rng(21)
        t1, v1 = _regime(rng, 0.0, 100.0, intercept=0.0, slope=1.0, noise=0.2)
        db = LawsDatabase(ingest_batch_size=100)
        db.load_dict("readings", {"t": t1, "value": v1})
        assert db.fit("readings", "value ~ linear(t)").accepted
        db.watch("readings", "value", order_column=order_column)
        t2 = np.arange(100.0, 200.0, 0.25)
        v2 = 200.0 - 1.0 * t2 + rng.normal(0, 0.2, len(t2))
        db.ingest("readings", list(zip(t2, v2)), flush=True)
        return db

    def test_rejected_whole_refit_keeps_old_model_serving(self):
        db = self._v_shape_db(order_column="t")
        target = db.maintenance.target_for("readings", "value")
        old_model = db.models.get(target.model_id)
        old_reference = target.detector.reference_rse

        report = db.maintain()
        action = report.actions[0]
        assert action.kind in ("segmented", "refit")

        # The old model was not superseded by a rejected whole-table refit:
        # it stays stale and keeps serving full-range queries.
        assert old_model.status == "stale"
        whole_models = [
            m
            for m in db.captured_models("readings")
            if m.coverage.covers_whole_table and m.model_id != old_model.model_id
        ]
        assert whole_models and not any(m.accepted for m in whole_models)
        answer = db.query("SELECT avg(value) AS m FROM readings", APPROX).approx
        assert not answer.is_exact
        assert answer.used_model_ids == [old_model.model_id]

        if action.kind == "segmented":
            # Monitoring moved to an accepted current-regime segment model.
            monitored = db.models.get(target.model_id)
            assert monitored.accepted and not monitored.coverage.covers_whole_table
        else:
            # No acceptable successor at all: keep watching the old model
            # with its original drift reference.
            assert target.model_id == old_model.model_id
            assert target.detector.reference_rse == old_reference

    def test_rejected_refit_without_order_column_keeps_watching_old(self):
        db = self._v_shape_db(order_column=None)
        target = db.maintenance.target_for("readings", "value")
        old_id = target.model_id
        old_reference = target.detector.reference_rse

        report = db.maintain()
        assert [a.kind for a in report.actions] == ["refit"]
        old_model = db.models.get(old_id)
        assert old_model.status == "stale"  # not superseded
        # Watcher still points at the serving model, reference untouched,
        # detector cleared so the alarm re-accumulates before retrying.
        assert target.model_id == old_id
        assert target.detector.reference_rse == old_reference
        assert target.last_verdict is None

    def test_rejected_refit_is_not_retried_until_new_data(self):
        db = self._v_shape_db(order_column=None)
        db.maintain()  # drift -> whole refit rejected -> deferred
        model_count = len(db.captured_models("readings"))
        for _ in range(3):
            report = db.maintain()
            assert [a.kind for a in report.actions] == ["none"]
            assert "deferred" in report.actions[0].details
        assert len(db.captured_models("readings")) == model_count
        # New data lifts the deferral and maintenance may try again.
        rng = np.random.default_rng(5)
        t, v = _regime(rng, 200.0, 230.0, intercept=0.0, slope=-1.0)
        db.ingest("readings", list(zip(t, 200.0 + v)), flush=True)
        report = db.maintain()
        assert report.actions[0].kind != "error"


class TestNaNOrderValues:
    def test_null_order_rows_do_not_poison_segmentation(self, streaming_db):
        """Rows with a NULL arrival order are excluded from the timeline, so
        no 'col >= nan' predicate can ever be rendered."""
        db, rng = streaming_db
        db.watch("readings", "value", order_column="t")
        t2, v2 = _regime(rng, 100.0, 200.0, intercept=26.0, slope=0.5)
        db.ingest("readings", list(zip(t2, v2)), flush=True)
        # A few readings arrive with no timestamp at all.
        db.ingest("readings", {"value": [27.0, 28.0, 29.0]}, flush=True)
        report = db.maintain()
        assert report.actions_of_kind("segmented")
        for model in db.captured_models("readings"):
            predicate = model.coverage.predicate_sql or ""
            assert "nan" not in predicate


class TestRevalidationGuard:
    def test_capture_rejection_stands_without_new_data(self):
        """revalidate()'s pooled score must not overturn the harvest policy's
        rejection of a model fitted on this very data (e.g. a refit the
        maintenance loop just rejected)."""
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 10, 60)
        data = {
            "g": [1] * 60 + [2] + [3],
            "x": list(x) + [1.0, 2.0],
            "y": list(1.0 + 2.0 * x + rng.normal(0, 0.05, 60)) + [5.0, 7.0],
        }
        db = LawsDatabase()
        db.load_dict("t", data)
        # Groups 2 and 3 have one observation each: unfittable, so the
        # grouped model fails the pass-fraction gate despite a pooled R²~1.
        report = db.fit("t", "y ~ linear(x)", group_by="g")
        assert not report.accepted

        results = db.lifecycle.revalidate("t", "y")
        assert results and results[0].still_acceptable  # the weak pooled score passes
        assert not report.model.accepted  # ...but the harvest verdict stands
        assert not db.models.candidates("t", "y")


class TestGroupedModelMaintenance:
    def test_grouped_model_drift_and_refit(self):
        rng = np.random.default_rng(11)
        hours = np.arange(0.0, 120.0)
        data = {"sensor": [], "hour": [], "temperature": []}
        for sensor in (1, 2, 3):
            data["sensor"].extend([sensor] * len(hours))
            data["hour"].extend(hours)
            data["temperature"].extend(10.0 + sensor + 0.05 * hours + rng.normal(0, 0.1, len(hours)))

        db = LawsDatabase(ingest_batch_size=60)
        db.load_dict("sensors", data)
        report = db.fit("sensors", "temperature ~ linear(hour)", group_by="sensor")
        assert report.accepted
        target = db.watch("sensors", "temperature", order_column="hour")

        # All sensors jump by +15 degrees (e.g. heating failure regime).
        rows = []
        for hour in np.arange(120.0, 240.0):
            for sensor in (1, 2, 3):
                rows.append((sensor, hour, 25.0 + sensor + 0.05 * hour + rng.normal(0, 0.1)))
        db.ingest("sensors", rows, flush=True)
        assert target.last_verdict.drifted

        report = db.maintain()
        assert report.did_anything
        kinds = {action.kind for action in report.actions}
        assert kinds & {"segmented", "refit"}
        # The freshly monitored model explains the new regime.
        monitored = db.models.get(target.model_id)
        assert monitored.accepted
        t_new, v_new = [], []
        for hour in np.arange(240.0, 260.0):
            for sensor in (1, 2, 3):
                t_new.append((sensor, hour, 25.0 + sensor + 0.05 * hour + rng.normal(0, 0.1)))
        db.ingest("sensors", t_new, flush=True)
        assert not target.last_verdict.drifted
