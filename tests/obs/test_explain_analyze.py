"""Acceptance-criterion tests: ``EXPLAIN ANALYZE`` on an exact, an
approximate and a hybrid query shows per-stage wall time, simulated page
IO, the route decision with rejected alternatives, and — for model-served
routes — the predicted vs observed error."""

import re

import pytest

from repro import AccuracyContract, LawsDatabase

CONTRACT = AccuracyContract(max_relative_error=0.05)
GROUPED_SQL = "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g"


def _golden_rows():
    return [
        (g, float(x), 10.0 * g + 2.0 * x)
        for g in range(2)
        for x in range(4)
        for _ in range(6)
    ]


def _build_db():
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = _golden_rows()
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    return db


@pytest.fixture(scope="module")
def db():
    return _build_db()


def _assert_stage_timed(text: str, stage: str) -> None:
    pattern = re.compile(rf"^\s*{re.escape(stage)}\s+\[\d+\.\d{{3}}ms", re.MULTILINE)
    assert pattern.search(text), f"stage {stage!r} missing a wall-time in:\n{text}"


def test_exact_explain_analyze(db):
    text = db.explain_analyze("SELECT count(*) AS n FROM t")
    assert text.startswith("EXPLAIN ANALYZE: SELECT count(*) AS n FROM t")
    assert "Route: exact" in text
    for stage in ("query", "parse", "plan", "execute", "op:TableScan"):
        _assert_stage_timed(text, stage)
    assert "io=1 page(s)" in text  # simulated page IO from the scan
    assert "· decision: exact" in text
    assert "· candidates: chosen — exact" in text


def test_approx_explain_analyze_shows_rejected_and_errors(db):
    text = db.explain_analyze(GROUPED_SQL, CONTRACT)
    assert "Route: grouped-model" in text
    for stage in ("query", "parse", "plan", "execute", "route:grouped", "verify-sample"):
        _assert_stage_timed(text, stage)
    # The route decision, with the rejected alternative and its predicted cost.
    assert "· candidates: chosen — grouped-model [cost≈" in text
    assert "· candidates: rejected — exact [cost≈" in text
    # Predicted vs observed error (EXPLAIN ANALYZE forces the verify sample).
    assert "· predicted_relative_error: 0.00%" in text
    assert "· observed_relative_error: 0.00%" in text
    assert "· budget: 5.00%" in text
    assert "· within_budget: True" in text
    # The verify sample's exact re-execution pays (and reports) page IO.
    assert "io=" in text


def test_hybrid_explain_analyze():
    db = _build_db()
    db.insert_rows("t", [(2, float(x), 77.0 + 2.0 * x) for x in range(4)])
    text = db.explain_analyze(GROUPED_SQL, CONTRACT)
    assert "Route: grouped-hybrid" in text
    for stage in ("route:grouped", "exact-fill-in", "verify-sample"):
        _assert_stage_timed(text, stage)
    assert "· exact_groups: 1" in text
    assert "· model_groups: 2" in text
    assert "· candidates: rejected — exact [cost≈" in text
    assert "· predicted_relative_error:" in text
    assert "· observed_relative_error:" in text
    # The exact fill-in scans real pages.
    fill_in_line = next(line for line in text.splitlines() if "exact-fill-in" in line)
    assert "io=" in fill_in_line


def test_explain_analyze_restores_disabled_observability():
    db = LawsDatabase(observability=False)
    rows = _golden_rows()
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    assert not db.obs.enabled
    text = db.explain_analyze("SELECT count(*) AS n FROM t")
    assert "Route: exact" in text
    for stage in ("query", "parse", "plan", "execute", "op:TableScan"):
        _assert_stage_timed(text, stage)
    # The temporary enable is undone: follow-up queries trace nothing.
    assert not db.obs.enabled and not db.obs.tracer.enabled
    traces_before = len(db.obs.tracer.traces())
    db.query("SELECT count(*) AS n FROM t")
    assert len(db.obs.tracer.traces()) == traces_before
    # Only the tracer was switched on: a database told to observe nothing
    # counted, recorded and journaled nothing for the analyzed query.
    assert db.ops_report()["queries"]["total"] == 0
    assert db.slo_report()["observed_queries"] == 0
    flight = db.obs.flight.report()
    assert (flight["recorded_queries"], flight["pending_queries"]) == (0, 0)
    assert flight["pending_operator_rows"] == 0
    assert db.compliance_report()["routes"] == {}
    assert db.events() == []


def test_explain_analyze_strips_prefix(db):
    text = db.explain_analyze("EXPLAIN ANALYZE SELECT count(*) AS n FROM t")
    assert text.startswith("EXPLAIN ANALYZE: SELECT count(*) AS n FROM t")


def test_explain_analyze_forces_verification_even_when_sampling_off(db):
    # db fixture has verify_sample_fraction=0.0, yet the analyze run verifies.
    text = db.explain_analyze(GROUPED_SQL, CONTRACT)
    assert "verify-sample" in text
    # …while a plain query under the same contract does not.
    db.query(GROUPED_SQL, CONTRACT)
    assert db.last_trace().find("verify-sample") is None
