"""Differential tests for hybrid plans against the exact oracle.

Hybrid plans serve healthy groups from models and compute uncovered
groups exactly; the merged result must match exact execution group for
group — near-exactly for the exactly-computed groups, within the model's
error band for the model-served ones.  Mirrors the PR-2/PR-3 oracle
discipline at the unified-planner level.
"""

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from tests.conftest import per_group


def _rows(rng, groups, xs=4, reps=6, sigma=0.1):
    rows = []
    for g in groups:
        for x in range(xs):
            for _ in range(reps):
                rows.append((g, float(x), 2.0 + 3.0 * g + 1.5 * x + rng.normal(0, sigma)))
    return rows


@pytest.fixture()
def hybrid_db():
    rng = np.random.default_rng(21)
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = _rows(rng, groups=range(4))
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    # Two groups appear only after the capture: no per-group fit covers
    # them, so any GROUP BY over all groups must go hybrid.
    rng2 = np.random.default_rng(22)
    late = _rows(rng2, groups=[4, 5])
    db.database.insert_rows("t", late)  # append without touching model staleness
    return db


HYBRID_QUERIES = [
    "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
    "SELECT g, sum(y) AS s FROM t GROUP BY g ORDER BY g",
    "SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g",
    "SELECT g, min(y) AS lo, max(y) AS hi FROM t GROUP BY g ORDER BY g",
    "SELECT g, avg(y) AS m FROM t WHERE x >= 1 GROUP BY g ORDER BY g",
]


@pytest.mark.parametrize("sql", HYBRID_QUERIES)
def test_hybrid_matches_exact_oracle(hybrid_db, sql):
    answer = hybrid_db.query(sql, AccuracyContract(max_relative_error=0.5))
    assert answer.route_taken == "grouped-hybrid", answer.plan.reason
    assert answer.approx is not None

    oracle = hybrid_db.database.sql(sql)
    approx_rows = answer.rows()
    exact_rows = oracle.rows()
    assert len(approx_rows) == len(exact_rows)
    groups = per_group(answer.approx)
    for approx_row, exact_row in zip(approx_rows, exact_rows):
        assert approx_row[0] == exact_row[0]  # same groups in the same order
        served_exactly = groups[(approx_row[0],)][0] == -1
        for a, e in zip(approx_row[1:], exact_row[1:]):
            if served_exactly:
                assert a == pytest.approx(e, rel=1e-9, abs=1e-9)
            else:
                assert a == pytest.approx(e, rel=0.15, abs=0.5)


def test_hybrid_split_attributes_every_group(hybrid_db):
    answer = hybrid_db.query(
        "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
        AccuracyContract(max_relative_error=0.5),
    )
    groups = per_group(answer.approx)
    assert {key[0] for key in groups} == {0, 1, 2, 3, 4, 5}
    exact_groups = {key[0] for key, (model_id, _, _) in groups.items() if model_id == -1}
    model_groups = {key[0] for key, (model_id, _, _) in groups.items() if model_id >= 0}
    assert exact_groups == {4, 5}
    assert model_groups == {0, 1, 2, 3}


def test_hybrid_plan_node_predicts_the_split(hybrid_db):
    plan = hybrid_db.plan(
        "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
        AccuracyContract(max_relative_error=0.5),
    )
    assert plan.chosen.route == "grouped-hybrid"
    assert len(plan.chosen.children) == 2
    model_half, exact_half = plan.chosen.children
    assert model_half.route == "grouped-model"
    assert exact_half.route == "exact-fill-in"
    assert "4 group(s)" in model_half.detail
    assert "2 uncovered group(s)" in exact_half.detail


def test_model_served_groups_carry_error_bands(hybrid_db):
    answer = hybrid_db.query(
        "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
        AccuracyContract(max_relative_error=0.5),
    )
    for g in (0, 1, 2, 3):
        estimate = answer.approx.group_error_estimate(g, "m")
        assert estimate is not None
        assert np.isfinite(estimate.standard_error)
