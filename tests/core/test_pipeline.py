"""The staged query pipeline: every fact about a query is established once.

A fresh SQL text is parsed exactly once per ``query()`` and a warm one never,
with at most one counted lookup per caching layer — for SELECTs and INSERTs,
in memory and on a durable store (whose DML used to cost two extra parses in
the façade).
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.db.sql.executor as executor_module
import repro.db.sql.parser as parser_module
from repro import LawsDatabase
from repro.db.lru import LockedLRU

from tests.conftest import APPROX, EXACT


@pytest.fixture(params=["memory", "durable"])
def db(request, tmp_path):
    if request.param == "durable":
        system = LawsDatabase.open(tmp_path / "store", verify_sample_fraction=0.0)
    else:
        system = LawsDatabase(verify_sample_fraction=0.0)
    system.load_dict(
        "t",
        {"x": [float(i % 8) for i in range(64)], "y": [2.0 * (i % 8) + 1.0 for i in range(64)]},
    )
    assert system.fit("t", "y ~ linear(x)").accepted
    yield system
    system.close()


@pytest.fixture
def parses(monkeypatch):
    """Texts handed to the SQL parser, through whichever module bound it."""
    seen: list[str] = []
    real = parser_module.parse

    def counting_parse(sql):
        seen.append(sql)
        return real(sql)

    monkeypatch.setattr(parser_module, "parse", counting_parse)
    monkeypatch.setattr(executor_module, "parse", counting_parse)
    return seen


def _lookups(db):
    """Counted lookups (hits + misses) per caching layer."""
    sql, planner = db.database.plan_cache_info(), db.planner.plan_cache_info()
    return sql["hits"] + sql["misses"], planner["hits"] + planner["misses"]


CASES = [
    pytest.param("SELECT count(*) AS n FROM t WHERE x > 2", EXACT, "exact", id="select-exact"),
    pytest.param("SELECT avg(y) AS m FROM t WHERE x >= 1 AND x <= 5", APPROX, "range-aggregate", id="select-model"),
    pytest.param("INSERT INTO t VALUES (3.0, 7.0)", None, "insert", id="insert"),
]


@pytest.mark.parametrize("sql,contract,route", CASES)
def test_fresh_text_is_parsed_once_and_a_warm_text_never(db, parses, sql, contract, route):
    first = db.query(sql, contract)
    assert first.route_taken == route
    assert parses == [sql]

    before = _lookups(db)
    second = db.query(sql, contract)
    assert second.route_taken == route
    assert parses == [sql], "a warm text must not reach the parser again"
    sql_lookups, planner_lookups = (after - b for after, b in zip(_lookups(db), before))
    assert sql_lookups <= 1 and planner_lookups <= 1


@pytest.mark.parametrize("sql,contract,route", CASES)
def test_warm_query_does_one_text_keyed_lookup_per_layer(db, monkeypatch, sql, contract, route):
    db.query(sql, contract)
    lookups: Counter = Counter()
    real = LockedLRU.get

    def counting_get(cache, key, count=True):
        lookups[id(cache)] += 1
        return real(cache, key, count)

    monkeypatch.setattr(LockedLRU, "get", counting_get)
    assert db.query(sql, contract).route_taken == route
    # Two caches exist (SQL executor, unified planner); each is asked once.
    assert len(lookups) == 2 and set(lookups.values()) == {1}


def test_explain_and_query_share_the_one_parse(db, parses):
    sql = "SELECT avg(y) AS m FROM t"
    db.explain(sql)
    db.query(sql, APPROX)
    db.query(sql, EXACT)
    assert parses == [sql]
