"""One aggregate kernel over a parameter table.

Grouped, range and analytic answers are evaluated, weighted and combined by
one kernel (``core/approx/routes/aggcalc.py``).  What that closes:

* a per-group law over a *continuous* input answers — per group and combined
  — instead of falling back because the input is not enumerable;
* no aggregate is read off the virtual table's unweighted domain: on skewed
  inputs the kernel weights each domain point by the rows it stands for, and
  states a band that holds the exact answer.

NumPy only: this file runs in the ``no-scipy`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase

from tests.conftest import APPROX, EXACT, per_group

BUDGET = AccuracyContract(max_relative_error=0.05)


def _inside(estimate, truth) -> bool:
    return estimate.lower <= truth <= estimate.upper


# -- a per-group law over a continuous input -------------------------------------------


@pytest.fixture(scope="module")
def continuous_db():
    """50 groups × 400 rows, ``y ~ linear(x)`` per group, x ~ U(0, 10)."""
    rng = np.random.default_rng(10)
    g = np.repeat(np.arange(50), 400)
    x = rng.uniform(0.0, 10.0, g.size)
    y = 1.0 + 0.1 * g + 2.0 * x + rng.normal(0.0, 0.2, g.size)
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict("t", {"g": g.tolist(), "x": x.tolist(), "y": y.tolist()})
    assert db.fit("t", "y ~ linear(x)", group_by=["g"]).accepted
    return db


@pytest.mark.parametrize("where", ["", " WHERE x BETWEEN 2 AND 4"])
def test_per_group_continuous_law_answers_every_group(continuous_db, where):
    sql = f"SELECT g, avg(y) AS m FROM t{where} GROUP BY g"
    answer = continuous_db.query(sql, APPROX).approx
    assert answer.route == "grouped-model"
    exact = dict(continuous_db.query(sql, EXACT).query_result.table.to_rows())
    assert set(per_group(answer)) == {(g,) for g in exact}
    inside = [_inside(answer.group_error_estimate(g, "m"), truth) for g, truth in exact.items()]
    # 95 % bands: at least 90 % of the 50 groups hold their exact answer.
    assert sum(inside) >= 45, sum(inside)


@pytest.mark.parametrize(
    "where, route", [("", "analytic-aggregate"), (" WHERE x BETWEEN 2 AND 4", "range-aggregate")]
)
def test_combined_continuous_law_answers(continuous_db, where, route):
    sql = f"SELECT avg(y) AS m FROM t{where}"
    answer = continuous_db.query(sql, APPROX).approx
    assert answer.route == route
    assert "combined 50 group(s)" in answer.reason
    assert _inside(answer.error_estimate("m"), continuous_db.query(sql, EXACT).query_result.scalar())


# -- skewed enumerable inputs: weighted, and within the stated band ---------------------


@pytest.fixture(scope="module")
def skewed_db():
    """20 000 rows: g uniform over 16 values, x over 8 values with p =
    .4/.2/.1/.1/.05×4, y = 1 + 2g + 0.7x + N(0, 0.1) per group."""
    rng = np.random.default_rng(0)
    rows = 20_000
    g = rng.integers(0, 16, rows)
    x = rng.choice(8, size=rows, p=[0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, rows)
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    db.load_dict("r", {"g": g.tolist(), "x": x.tolist(), "y": y.tolist()})
    assert db.fit("r", "y ~ linear(x)", group_by="g").accepted
    return db


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT avg(y) AS v FROM r",
        "SELECT avg(y) AS v FROM r WHERE g = 3",
        "SELECT avg(y) AS v FROM r WHERE x IN (1, 2)",
        "SELECT max(y) AS v FROM r WHERE g = 3",
    ],
)
def test_skewed_inputs_are_weighted_and_inside_their_band(skewed_db, sql):
    answer = skewed_db.query(sql, BUDGET)
    truth = skewed_db.query(sql, EXACT).scalar()
    if answer.route_taken == "exact":
        assert answer.scalar() == truth
    else:
        assert answer.route_taken in ("analytic-aggregate", "range-aggregate")
        assert _inside(answer.error_estimate("v"), truth), (answer.error_estimate("v"), truth)
