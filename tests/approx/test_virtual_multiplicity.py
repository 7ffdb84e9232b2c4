"""The virtual-table route holds one row per parameter combination, not one
per stored row: an aggregate whose value scales with row multiplicity (SUM,
COUNT) evaluated over it answers for the domain, not for the data.

Regression for the defect recorded in ROADMAP item 5(A): ``SELECT -sum(y)``
returned −36.01 for a true −3584.73 on 600 rows over a 6-value domain, under
``mode="approx"`` *and* under an error budget.  The route must decline such
statements (exact fallback, or the typed refusal when fallback is disallowed)
and keep serving the multiplicity-free ones it serves today."""

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.errors import ApproximationError

from tests.conftest import APPROX, EXACT, STRICT

BUDGET = AccuracyContract(max_relative_error=0.05)


def _database(family: str) -> LawsDatabase:
    rng = np.random.default_rng(3)
    if family == "linear":
        x = rng.integers(0, 6, 600).astype(float)
        y = 1.0 + 2.0 * x + rng.normal(0.0, 0.1, 600)
    else:
        x = rng.integers(1, 7, 600).astype(float)
        y = 2.0 * x**1.5 * np.exp(rng.normal(0.0, 0.01, 600))
    db = LawsDatabase()
    db.load_dict("t", {"x": x.tolist(), "y": y.tolist()})
    assert db.fit("t", f"y ~ {family}(x)").accepted
    return db


@pytest.fixture(scope="module")
def linear_db():
    return _database("linear")


@pytest.fixture(scope="module")
def powerlaw_db():
    return _database("powerlaw")


MULTIPLICITY_CASES = [
    pytest.param("linear_db", "SELECT -sum(y) FROM t", "SUM", id="negated-sum"),
    pytest.param("linear_db", "SELECT 2 * sum(y) FROM t", "SUM", id="scaled-sum"),
    pytest.param("powerlaw_db", "SELECT count(y) FROM t", "COUNT", id="bare-count"),
    pytest.param("linear_db", "SELECT count(y) FROM t WHERE y > 3", "COUNT", id="count-where-output"),
    pytest.param(
        "linear_db", "SELECT x, avg(y) FROM t GROUP BY x HAVING count(*) > 1", "COUNT", id="having-count"
    ),
]


@pytest.mark.parametrize("fixture, sql, function", MULTIPLICITY_CASES)
class TestMultiplicityAggregatesDecline:
    def _exact_rows(self, db, sql):
        return db.query(sql, EXACT).query_result.table.to_rows()

    def test_pinned_approx_falls_back_with_the_reason(self, fixture, sql, function, request):
        db = request.getfixturevalue(fixture)
        answer = db.query(sql, APPROX)
        assert answer.route_taken == "exact-fallback"
        assert answer.rows() == self._exact_rows(db, sql)
        assert f"{function} scales with row multiplicity" in answer.approx.reason

    def test_error_budget_routes_exact(self, fixture, sql, function, request):
        db = request.getfixturevalue(fixture)
        answer = db.query(sql, BUDGET)
        assert answer.route_taken in ("exact", "exact-fallback")
        assert answer.rows() == self._exact_rows(db, sql)

    def test_refusal_is_typed_when_fallback_is_disallowed(self, fixture, sql, function, request):
        db = request.getfixturevalue(fixture)
        with pytest.raises(ApproximationError, match="scales with row multiplicity"):
            db.query(sql, STRICT)

    def test_explain_shows_the_fallback(self, fixture, sql, function, request):
        db = request.getfixturevalue(fixture)
        text = db.explain(sql, APPROX)
        assert "virtual-table" not in text
        assert "no model route applies; exact fallback" in text


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT avg(y) FROM t WHERE x = 1",
        "SELECT min(y), max(y) FROM t WHERE x = 1",
        "SELECT -avg(y) FROM t",
        "SELECT stddev(y) FROM t",
        "SELECT x, avg(y) FROM t GROUP BY x HAVING avg(y) > 2",
        "SELECT x, y FROM t WHERE y > 3",
    ],
)
@pytest.mark.parametrize("contract", [APPROX, BUDGET], ids=["approx", "budget"])
def test_multiplicity_free_statements_keep_the_route(linear_db, sql, contract):
    assert linear_db.query(sql, contract).route_taken == "virtual-table"
