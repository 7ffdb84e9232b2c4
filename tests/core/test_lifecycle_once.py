"""A refit is the capture again; rows and scores are each written once.

* the rows a coverage describes — whole table, predicate, partition range —
  come from one function, for the live table and for a staged ingest batch;
* a refit re-runs the capture as it was captured: formula, grouping,
  estimator, gate and scope;
* an accepted refit supersedes its predecessor, a rejected one leaves it
  serving;
* every numeric read treats NULL as NaN — an INT64 NULL included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.captured_model import ModelCoverage, covered_rows, narrow
from repro.core.planner.feedback import relative_errors
from repro.core.quality import QualityPolicy
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.persist.warehouse import deserialize_model, serialize_model

LENIENT = QualityPolicy(min_r_squared=-1.0, min_observations=16)


def _line(rng, x, intercept, slope, noise=0.5):
    return intercept + slope * x + rng.normal(0, noise, len(x))


# -- rows -------------------------------------------------------------------------------


def _rows_table() -> tuple[Schema, list[tuple]]:
    rng = np.random.default_rng(5)
    schema = Schema.from_pairs([("t", DataType.FLOAT64), ("g", DataType.INT64), ("v", DataType.FLOAT64)])
    rows = []
    for i in range(60):
        t = None if i % 7 == 3 else float(i)
        g = None if i % 11 == 5 else i % 4
        rows.append((t, g, float(rng.normal())))
    return schema, rows


SCOPES = {
    "whole": (None, None),
    "predicate": ("t >= 10", None),
    "null_group": ("g = 2", None),
    "row_range": (None, (5, 45)),
    "narrowed": (narrow("t >= 10 OR g = 1", "t < 40"), None),
}


def _python_filter(predicate, row_range, rows, start_row):
    def keep(base_index, row):
        t, g, _ = row
        if row_range is not None:
            return row_range[0] <= base_index < row_range[1]
        if predicate is None:
            return True
        # A comparison with NULL is not TRUE, so the row is not covered.
        return {
            "t >= 10": t is not None and t >= 10,
            "g = 2": g == 2,
            SCOPES["narrowed"][0]: (
                ((t is not None and t >= 10) or g == 1) and t is not None and t < 40
            ),
        }[predicate]

    return [row for i, row in enumerate(rows) if keep(start_row + i, row)]


@pytest.mark.parametrize("scope", sorted(SCOPES))
@pytest.mark.parametrize("start_row", [0, 20], ids=["live", "staged_batch"])
def test_covered_rows_equal_a_plain_python_filter(scope, start_row):
    schema, rows = _rows_table()
    predicate, row_range = SCOPES[scope]
    coverage = ModelCoverage("t", ("t",), "v", predicate_sql=predicate, row_range=row_range)
    if start_row == 0:
        table, held = Table.from_rows("t", schema, rows), rows
    else:
        held = rows[start_row : start_row + 30]
        table = Table.from_rows("ingest_batch", schema, held)
    covered = covered_rows(table, coverage, start_row=start_row)
    assert covered.to_rows() == _python_filter(predicate, row_range, held, start_row)


def test_narrow_brackets_both_sides_and_a_frame_filter_uses_it():
    assert narrow(None, "t < 3") == "t < 3"
    assert narrow("a = 1 OR b = 2", "t < 3") == "(a = 1 OR b = 2) AND (t < 3)"
    db = LawsDatabase()
    db.load_dict("u", {"a": [1, 2, 3, 1], "t": [0.0, 1.0, 5.0, 9.0]})
    frame = db.strawman("u", "a = 1 OR a = 3").filter("t < 6")
    assert frame.predicate == "(a = 1 OR a = 3) AND (t < 6)"
    assert frame.to_table().to_rows() == [(1, 0.0), (3, 5.0)]


# -- refit --------------------------------------------------------------------------------


def _robust_db() -> tuple[LawsDatabase, object]:
    rng = np.random.default_rng(3)
    x = np.arange(0.0, 200.0)
    db = LawsDatabase()
    db.load_dict("t", {"x": x, "y": _line(rng, x, 1.0, 2.0)})
    report = db.fit("t", "y ~ linear(x)", robust=True)
    assert report.accepted
    return db, report.model


def test_a_refit_keeps_the_estimator_and_supersedes_its_predecessor():
    db, old = _robust_db()
    rng = np.random.default_rng(4)
    x = np.arange(200.0, 400.0)
    db.insert_rows("t", list(zip(x, _line(rng, x, 201.0, 2.0))))  # level shift of 200
    new = db.lifecycle.refit_if_needed("t", "y")
    assert new.model_id != old.model_id and new.accepted
    assert new.metadata["robust"] is True
    assert old.status == "superseded" and old.metadata["superseded_by"] == new.model_id
    assert [e.fields["successor_id"] for e in db.events(kind="model-supersede")] == [new.model_id]
    assert db.best_model("t", "y") is new


def test_a_rejected_refit_leaves_the_predecessor_serving():
    db, old = _robust_db()
    rng = np.random.default_rng(4)
    x = np.arange(200.0, 400.0)
    db.insert_rows("t", list(zip(x, _line(rng, x, 800.0, -2.0))))  # a V: no line fits
    serving = db.lifecycle.refit_if_needed("t", "y")
    assert serving is old and old.status == "stale"
    assert db.best_model("t", "y") is old
    (rejected,) = [m for m in db.captured_models("t") if m.model_id != old.model_id]
    assert not rejected.accepted and rejected.metadata["robust"] is True


def test_segments_are_judged_by_the_gate_the_baseline_was_captured_under():
    """The flight recorder's pattern: a flat series whose R² ≈ 0 is healthy."""
    rng = np.random.default_rng(3)
    db = LawsDatabase(ingest_batch_size=100)
    seq = np.arange(0.0, 400.0)
    db.load_dict("f", {"seq": seq, "v": 100.0 + rng.normal(0, 1.0, len(seq))})
    baseline = db.harvester.fit_and_capture("f", "v ~ linear(seq)", policy=LENIENT).model
    assert baseline.accepted and baseline.quality.r_squared < 0.1
    db.watch("f", "v", order_column="seq")
    step = np.arange(400.0, 800.0)
    db.ingest("f", list(zip(step, 160.0 + rng.normal(0, 1.0, len(step)))), flush=True)

    (action,) = db.maintain().actions
    assert action.kind == "segmented" and action.changepoint_indices == (400,)
    successors = [db.models.get(model_id) for model_id in action.new_model_ids]
    assert sorted(m.coverage.predicate_sql or "" for m in successors) == [
        "",
        "seq < 400.0",
        "seq >= 400.0",
    ]
    assert all(m.accepted and m.metadata["policy"] == baseline.metadata["policy"] for m in successors)
    assert baseline.status == "superseded"


def test_a_grouped_refit_keeps_min_observations():
    rng = np.random.default_rng(11)
    data = {"sensor": [], "hour": [], "temperature": []}
    for sensor, hours in ((1, 120), (2, 120), (3, 120), (4, 8)):
        data["sensor"].extend([sensor] * hours)
        data["hour"].extend(np.arange(float(hours)))
        data["temperature"].extend(10.0 + sensor + 0.05 * np.arange(hours) + rng.normal(0, 0.1, hours))
    db = LawsDatabase(ingest_batch_size=60)
    db.load_dict("sensors", data)
    report = db.fit("sensors", "temperature ~ linear(hour)", group_by="sensor", min_observations=10)
    assert report.accepted and report.model.fit.result_for((4,)) is None
    target = db.watch("sensors", "temperature")
    rows = [
        (sensor, hour, 25.0 + sensor + 0.05 * hour + rng.normal(0, 0.1))
        for hour in np.arange(120.0, 240.0)
        for sensor in (1, 2, 3)
    ]
    db.ingest("sensors", rows, flush=True)

    assert [a.kind for a in db.maintain().actions] == ["refit"]
    successor = db.models.get(target.model_id)
    assert successor.model_id != report.model.model_id
    assert successor.metadata["min_observations"] == 10
    assert successor.fit.result_for((4,)) is None  # 8 rows < 10, as at the capture


def test_an_on_demand_grouped_capture_reads_its_template_settings():
    rng = np.random.default_rng(2)
    g = np.repeat(np.arange(4), 50)
    x = np.tile(np.arange(50.0), 4)
    db = LawsDatabase()
    db.load_dict("u", {"g": g, "x": x, "y": 3.0 * g + 0.5 * x + rng.normal(0, 0.1, len(x))})
    db.harvester.fit_and_capture("u", "y ~ linear(x)", robust=True, policy=LENIENT)
    grouped = db.ensure_grouped_model("u", "y", "g")
    assert grouped is not None and grouped.group_columns == ("g",)
    assert grouped.metadata["robust"] is True
    assert grouped.metadata["policy"]["min_r_squared"] == LENIENT.min_r_squared


def test_a_partition_refit_covers_the_partitions_current_rows():
    rng = np.random.default_rng(23)
    t = np.arange(2048.0)
    db = LawsDatabase(observability=False)
    db.load_dict("readings", {"t": t, "v": _line(rng, t, 7.0, 3.0, noise=0.05)})
    db.partition_table("readings", partitions=4)
    tail = db.fit_partitioned("readings", "v ~ linear(t)")[-1].model
    assert tail.coverage.row_range == (1536, 2048)
    more = np.arange(2048.0, 2560.0)
    db.insert_rows("readings", list(zip(more, _line(rng, more, 7.0, 3.0, noise=0.05))))
    db.partition_table("readings", partitions=4)

    report = db.harvester.refit(tail)
    assert report.model.coverage.row_range == (1920, 2560)
    assert report.model.metadata["partition_id"] == tail.metadata["partition_id"]
    assert report.model.fitted_row_count == 640


def test_a_per_capture_gate_survives_checkpoint_reopen_and_refit(tmp_path):
    rng = np.random.default_rng(8)
    db = LawsDatabase.open(tmp_path / "store")
    seq = np.arange(0.0, 300.0)
    db.load_dict("f", {"seq": seq, "v": 50.0 + rng.normal(0, 1.0, len(seq))})
    model_id = db.harvester.fit_and_capture("f", "v ~ linear(seq)", policy=LENIENT).model.model_id
    db.checkpoint()
    db.close()

    reopened = LawsDatabase.open(tmp_path / "store")
    restored = reopened.models.get(model_id)
    assert reopened.harvester.gate(restored) == LENIENT
    report = reopened.harvester.refit(restored)
    assert report.accepted and report.quality.r_squared < 0.1
    reopened.close()


def test_a_model_saved_without_capture_settings_refits_with_the_defaults():
    db, model = _robust_db()
    payload = serialize_model(model)
    payload["metadata"] = {}  # written before the settings were recorded
    restored = deserialize_model(payload)
    settings = db.harvester.capture_settings(restored)
    assert (settings["robust"], settings["method"], settings["min_observations"]) == (False, "lm", None)
    assert db.harvester.gate(restored) is db.harvester.policy


# -- NULL is NaN for every numeric dtype ------------------------------------------------------


def _line_table(db: LawsDatabase, dtype: DataType, extra_rows=()) -> None:
    schema = Schema.from_pairs([("x", dtype), ("y", dtype)])
    rows = [(x, 3 * x + 5) for x in range(400)] + list(extra_rows)
    if dtype is DataType.FLOAT64:
        rows = [tuple(None if v is None else float(v) for v in row) for row in rows]
    db.register_table(Table.from_rows("line", schema, rows))


@pytest.mark.parametrize("dtype", [DataType.INT64, DataType.FLOAT64])
def test_an_int64_null_output_is_skipped_by_the_fit(dtype):
    db = LawsDatabase()
    _line_table(db, dtype, extra_rows=[(400, None)])
    report = db.fit("line", "y ~ linear(x)")
    assert report.accepted and report.r_squared == pytest.approx(1.0)
    np.testing.assert_allclose(report.model.fit.params, [5.0, 3.0], atol=1e-9)


def test_an_int64_null_fits_exactly_like_its_float64_twin():
    fits = []
    for dtype in (DataType.INT64, DataType.FLOAT64):
        db = LawsDatabase()
        _line_table(db, dtype, extra_rows=[(400, None)])
        fits.append(db.fit("line", "y ~ linear(x)").model.fit)
    np.testing.assert_array_equal(fits[0].params, fits[1].params)


def test_revalidation_skips_an_int64_null_like_its_float64_twin():
    scores = []
    for dtype in (DataType.INT64, DataType.FLOAT64):
        db = LawsDatabase()
        _line_table(db, dtype)
        model = db.fit("line", "y ~ linear(x)").model
        db.insert_rows("line", [(400, None)])
        (result,) = db.lifecycle.revalidate("line", "y")
        assert result.still_acceptable and model.status == "active"
        scores.append((result.current_r_squared, result.information_criterion, result.covered_rows))
    assert scores[0] == scores[1]


def test_verification_skips_an_int64_null_like_its_float64_twin():
    approx = Table.from_dict("a", {"v": [35.0, 40.0]})
    errors = [
        relative_errors(approx, Table.from_rows("e", Schema.from_pairs([("v", dtype)]), [(35,), (None,)]))
        for dtype in (DataType.INT64, DataType.FLOAT64)
    ]
    assert errors == [{"v": 0.0}, {"v": 0.0}]
