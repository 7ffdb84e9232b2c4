"""The closed feedback loop: observed errors demote models, maintenance refits.

The acceptance scenario of the unified planner: a model that was healthy
at capture time starts lying after the data shifts underneath it.  The
planner — sampling executed plans against exact execution — records the
observed relative errors into the store, the quality policy flags the
evidence, the model is demoted, and the next maintenance tick refits it
instead of quietly re-validating.
"""

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.quality import QualityPolicy


class TestQualityPolicyObservedErrors:
    def test_too_few_samples_never_flag(self):
        policy = QualityPolicy()
        assert not policy.flags_observed_errors([9.9])
        assert not policy.flags_observed_errors([9.9, 9.9])

    def test_median_gates_the_decision(self):
        policy = QualityPolicy(max_observed_relative_error=0.2)
        # One adversarial outlier among good samples must not demote.
        assert not policy.flags_observed_errors([0.01, 5.0, 0.02])
        # A consistently lying model does.
        assert policy.flags_observed_errors([0.5, 0.6, 0.7])

    def test_non_finite_samples_are_ignored(self):
        policy = QualityPolicy()
        assert not policy.flags_observed_errors([float("inf"), float("nan"), 0.5])


@pytest.fixture()
def shifting_db():
    """A database whose captured law stops holding after an append."""
    rng = np.random.default_rng(3)
    db = LawsDatabase(verify_sample_fraction=0.0)
    x = rng.uniform(0, 10, 200)
    db.load_dict(
        "t", {"x": x.tolist(), "y": (3.0 * x + rng.normal(0, 0.05, 200)).tolist()}
    )
    report = db.fit("t", "y ~ linear(x)")
    assert report.accepted
    db.watch("t", "y")
    return db, report.model


def test_observed_error_sample_demotes_and_maintenance_refits(shifting_db):
    db, model = shifting_db
    # The data shifts: ten times as many rows now follow y = 7x.  The
    # captured y = 3x model is stale-but-servable and still predicted
    # healthy from its capture-time quality.
    rng = np.random.default_rng(4)
    x_new = rng.uniform(0, 10, 2000)
    db.insert_rows(
        "t", list(zip(x_new.tolist(), (7.0 * x_new + rng.normal(0, 0.05, 2000)).tolist()))
    )

    # Three audited executions: the planner serves from the model (the
    # predicted error still fits the generous budget) and verifies each
    # answer against exact execution.
    contract = AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)
    observed = []
    for _ in range(3):
        answer = db.query("SELECT avg(y) AS m FROM t", contract)
        assert not answer.is_exact, answer.plan.reason
        assert answer.feedback is not None
        observed.append(answer.observed_relative_error)
    assert all(err is not None and err > 0.2 for err in observed)

    # The third sample crossed the quality policy's evidence bar: the
    # model is demoted (stale + flagged for refit).
    assert model.observed_errors == pytest.approx(observed)
    assert model.metadata.get("planner_demoted")
    assert model.status == "stale"

    # The maintenance tick refits the demoted model — a quiet drift
    # detector must not talk it out of it — and supersedes it.
    report = db.maintain()
    refits = report.actions_of_kind("refit")
    assert len(refits) == 1
    action = refits[0]
    assert "planner demotion" in action.details
    assert action.old_model_ids == (model.model_id,)
    assert action.new_model_ids, action.details
    assert model.status == "superseded"
    assert "planner_demoted" not in model.metadata

    # The refitted model serves the post-shift law: a fresh audited query
    # now observes a small error.
    answer = db.query("SELECT avg(y) AS m FROM t", contract)
    assert not answer.is_exact
    assert answer.observed_relative_error is not None
    assert answer.observed_relative_error < 0.05


def test_healthy_model_is_not_demoted(shifting_db):
    db, model = shifting_db
    contract = AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)
    for _ in range(4):
        answer = db.query("SELECT avg(y) AS m FROM t", contract)
        assert not answer.is_exact
        assert answer.feedback is not None
        assert not answer.feedback.demoted_model_ids
    assert model.status == "active"
    assert "planner_demoted" not in model.metadata


@pytest.fixture()
def point_db():
    """A grouped law over discrete inputs: a point pins ``(g, x)`` and
    selects the 50 rows its one evaluation estimates the mean of."""
    rng = np.random.default_rng(7)
    g = np.repeat(np.arange(4), 500)
    x = np.tile(np.arange(10), 200)
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, len(g))
    db = LawsDatabase(verify_sample_fraction=0.0)
    db.load_dict("t", {"g": g.tolist(), "x": x.tolist(), "y": y.tolist()})
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db, report.model


POINT = "SELECT y FROM t WHERE g = 2 AND x = 5"
AUDITED = AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)


def test_a_point_audit_scores_the_mean_of_the_exact_rows(point_db):
    db, model = point_db
    exact = db.query(POINT, AccuracyContract(mode="exact")).query_result.table
    assert exact.num_rows == 50
    for _ in range(4):
        answer = db.query(POINT, AUDITED)
        assert answer.approx.route == "point"
        truth = float(np.mean(exact.column("y").to_numpy()))
        served = answer.approx.table.column("y").to_pylist()[0]
        assert answer.observed_relative_error == pytest.approx(abs(served - truth) / truth)
        assert answer.observed_relative_error < 0.01
        assert not answer.feedback.demoted_model_ids
    assert model.observed_errors == pytest.approx([answer.observed_relative_error] * 4)
    assert model.status == "active"


def test_a_biased_point_model_is_demoted(point_db):
    db, model = point_db
    # 2 000 new rows at the audited point follow three times the law: the
    # mean there moves far from what the captured parameters evaluate to.
    db.insert_rows("t", [(2, 5, 3.0 * (1.0 + 2.0 * 2 + 0.7 * 5))] * 2000)
    observed = []
    for _ in range(3):
        answer = db.query(POINT, AUDITED)
        assert answer.approx.route == "point", answer.plan.reason
        observed.append(answer.observed_relative_error)
    assert all(error is not None and error > 0.5 for error in observed)
    assert model.metadata.get("planner_demoted")
    assert model.status == "stale"


def test_row_order_differences_are_not_model_error():
    """Grouped verification aligns by group key, not row position.

    Without ORDER BY the grouped route emits groups in sorted order while
    exact execution emits first-seen order; a pure ordering difference must
    not read as observed error (and must never demote a healthy model).
    """
    rng = np.random.default_rng(9)
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = []
    for g in (5, 4, 3, 2, 1, 0):  # first-seen order is descending
        for x in range(4):
            for _ in range(8):
                rows.append((g, float(x), 1.0 + 10.0 * g + 0.5 * x + rng.normal(0, 0.05)))
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    contract = AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)
    for _ in range(3):
        answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g", contract)
        assert not answer.is_exact
        assert answer.feedback is not None
        assert answer.observed_relative_error is not None
        assert answer.observed_relative_error < 0.05
        assert not answer.feedback.demoted_model_ids
    assert report.model.status == "active"


@pytest.fixture()
def two_key_db():
    """A healthy law per (a, b) group: y = 1 + a + 10 b + x / 2."""
    rng = np.random.default_rng(21)
    cells = [(a, b, float(x)) for a in range(3) for b in range(3) for x in range(8) for _ in range(4)]
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict(
        "t",
        {
            "a": [a for a, _, _ in cells],
            "b": [b for _, b, _ in cells],
            "x": [x for _, _, x in cells],
            "y": [1.0 + a + 10.0 * b + 0.5 * x + rng.normal(0, 0.01) for a, b, x in cells],
        },
    )
    report = db.fit("t", "y ~ linear(x)", group_by=["a", "b"])
    assert report.accepted
    return db, report.model


@pytest.mark.parametrize("keys", ["a, b", "b, a", "a AS aa, b", "b AS bb, a"])
def test_grouped_keys_match_by_name_in_any_select_order(two_key_db, keys):
    """The answer's keys are in GROUP BY order; each is matched to the exact
    result column that holds it, wherever the SELECT list puts it."""
    db, model = two_key_db
    contract = AccuracyContract(mode="approx", verify_fraction=1.0)
    for _ in range(6):
        answer = db.query(f"SELECT {keys}, avg(y) AS m FROM t GROUP BY a, b", contract)
        assert answer.route_taken == "grouped-model"
        assert answer.feedback.recorded_model_ids == [model.model_id]
        assert answer.observed_relative_error < 1e-9
        assert not answer.feedback.demoted_model_ids
    assert model.status == "active"


def test_a_group_column_outside_the_select_list_yields_no_evidence(two_key_db):
    db, model = two_key_db
    contract = AccuracyContract(mode="approx", verify_fraction=1.0)
    answer = db.query("SELECT a, avg(y) AS m FROM t GROUP BY a, b", contract)
    assert answer.route_taken == "grouped-model"
    assert answer.observed_relative_error is None
    assert not answer.feedback.recorded_model_ids and not model.observed_errors


def test_per_model_error_attribution():
    """Errors are attributed to the model that served the group, so one
    lying model cannot demote a healthy co-serving model."""
    rng = np.random.default_rng(13)
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = []
    for g in range(4):
        for x in range(4):
            for _ in range(8):
                rows.append((g, float(x), 5.0 + 2.0 * g + 1.0 * x + rng.normal(0, 0.05)))
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    contract = AccuracyContract(max_relative_error=0.5, verify_fraction=1.0)
    answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g", contract)
    assert not answer.is_exact
    # Healthy data: the model's recorded evidence matches its own groups'
    # observed error, well under the demotion bar.
    assert report.model.observed_errors
    assert all(err < 0.05 for err in report.model.observed_errors)


def test_verification_is_sampled_not_constant(shifting_db):
    db, _ = shifting_db
    # verify_fraction=0 never audits; the answer carries no feedback.
    answer = db.query(
        "SELECT avg(y) AS m FROM t",
        AccuracyContract(max_relative_error=0.5, verify_fraction=0.0),
    )
    assert answer.feedback is None
