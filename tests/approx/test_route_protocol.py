"""The route table, held to what its docstrings promise.

Every entry of ``ROUTES`` is a ``gate`` / ``sketch`` / ``answer`` triple the
engine walks in order.  Over a corpus — the differential harness's random
generator plus one hand-written statement per rung — every route is reached,
the static sketch names the route that then serves ("prediction and
execution cannot drift apart", tested instead of asserted), and handing the
sketch's grouped plan back to ``answer`` changes nothing but the work done.

NumPy only: this file runs in the ``no-scipy`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.approx.routes import ROUTES
from repro.errors import ApproximationError, ModelNotFoundError

from query_gen import TableProfile, generate_queries

#: One statement per rung (``test_routes.py::TestRouteTable``'s list).
ONE_PER_RUNG = [
    "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
    "SELECT y FROM t WHERE g = 1 AND x = 2",
    "SELECT avg(y) AS m FROM t WHERE x >= 1",
    "SELECT avg(y) AS m FROM u",
    "SELECT g, y FROM t WHERE x = 1",
    "SELECT x FROM u",
]
GROUPS, X_DOMAIN = tuple(range(5)), tuple(float(v) for v in range(4))
T_PROFILE = TableProfile("t", "g", "x", "y", GROUPS, X_DOMAIN, min(X_DOMAIN), max(X_DOMAIN))
U_PROFILE = TableProfile("u", None, "x", "y", (), (), 0.0, 10.0, continuous_input=True)


CORPUS = ONE_PER_RUNG + [
    query.sql
    for query in generate_queries(np.random.default_rng(5), T_PROFILE, count=60)
    + generate_queries(np.random.default_rng(6), U_PROFILE, count=30)
]


@pytest.fixture(scope="module")
def engine():
    """``t``: per-group linear laws over an enumerable ``x``; ``u``: one
    linear law over a continuous ``x``."""
    rng = np.random.default_rng(17)
    rows = [
        (g, x, 1.0 + g + 0.6 * x + rng.normal(0.0, 0.2))
        for g in GROUPS
        for x in X_DOMAIN
        for _ in range(8)
    ]
    db = LawsDatabase(observability=False)
    db.load_dict("t", dict(zip("gxy", map(list, zip(*rows)))))
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    x = rng.uniform(0.0, 10.0, size=400)
    db.load_dict("u", {"x": x.tolist(), "y": (1.0 + 2.0 * x + rng.normal(0.0, 0.1, 400)).tolist()})
    assert db.fit("u", "y ~ linear(x)").accepted
    yield db.approx
    db.close()


def test_routes_is_an_ordered_tuple_and_the_corpus_reaches_every_entry(engine):
    assert isinstance(ROUTES, tuple) and len(set(ROUTES)) == len(ROUTES) == 5
    admitted = set()
    for sql in CORPUS:
        try:
            route, _ = next(engine._admitting_routes(engine._probe(sql, None)))
        except (ApproximationError, ModelNotFoundError):
            continue  # no model route applies: the statement runs exactly
        admitted.add(route)
    assert admitted == set(ROUTES)


def test_the_sketch_predicts_the_route_that_serves(engine):
    for sql in CORPUS:
        sketch = engine.sketch_route(sql)
        answer = engine.answer(sql)
        predicted = sketch.route if sketch is not None else "exact-fallback"
        if answer.route != predicted:
            # Evaluation may still decline what the shape gate admitted; the
            # walk then ends in the fallback, which says why.
            assert answer.route == "exact-fallback" and answer.reason, sql
        if sketch is not None and not answer.is_exact:
            assert answer.used_model_ids == sketch.model_ids, sql


def test_handing_the_sketched_grouped_plan_back_changes_nothing(engine):
    for sql in CORPUS:
        sketch = engine.sketch_route(sql)
        plain = engine.answer(sql)
        handed = engine.answer(sql, grouped_route_plan=sketch.grouped_plan if sketch else None)
        assert (handed.route, handed.reason) == (plain.route, plain.reason), sql
        assert handed.table.schema.names == plain.table.schema.names, sql
        assert handed.rows() == plain.rows(), sql
        assert handed.column_errors == plain.column_errors, sql
        assert dict(handed.group_errors) == dict(plain.group_errors), sql
        assert handed.group_routes == plain.group_routes, sql
