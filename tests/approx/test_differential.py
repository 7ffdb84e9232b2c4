"""Differential test harness: model answers vs exact answers, at scale.

Generates ≥200 seeded randomized single-table SELECTs (aggregates × GROUP BY
× WHERE ranges) over synthetic datasets with *known* laws, and asserts that

* every approximate answer matches the exact answer within the answer's own
  stated error estimate (a ``BOUND_MULTIPLIER``·σ band around the stated
  standard error — the estimate must be honest, not just present),
* the comparison reports the route taken, and
* the routes keep holding while streaming ingestion has marked the models
  stale mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase

from query_gen import GeneratedQuery, TableProfile, generate_queries
from tests.conftest import EXACT, compare_sql, per_group

#: Band multiplier applied to each stated standard error.  The stated errors
#: are ~95% bands; across hundreds of randomized queries the harness allows
#: the 3σ (99.7%) band so a deterministic seed stays robustly green.
BOUND_MULTIPLIER = 3.0
ABS_TOL = 1e-6

GROUPS = tuple(range(10))
X_DOMAIN = tuple(float(v) for v in range(6))
REPS_PER_CELL = 6
NOISE = 0.3

TICKS_ROWS = 5000
TICKS_NOISE = 0.4


def _readings_rows(rng: np.random.Generator, reps: int = REPS_PER_CELL):
    """Balanced per-group linear laws: y = a_g + b_g * x + noise."""
    rows = []
    for g in GROUPS:
        intercept, slope = 2.0 + 0.8 * g, 0.4 + 0.15 * g
        for x in X_DOMAIN:
            for _ in range(reps):
                rows.append((g, x, intercept + slope * x + rng.normal(0.0, NOISE)))
    return rows


def _load_readings(db: LawsDatabase, rows) -> None:
    db.load_dict(
        "readings",
        {
            "g": [r[0] for r in rows],
            "x": [r[1] for r in rows],
            "y": [r[2] for r in rows],
        },
    )


READINGS_PROFILE = TableProfile(
    name="readings",
    group_column="g",
    input_column="x",
    output_column="y",
    group_values=GROUPS,
    input_domain=X_DOMAIN,
    input_low=min(X_DOMAIN),
    input_high=max(X_DOMAIN),
)

TICKS_PROFILE = TableProfile(
    name="ticks",
    group_column=None,
    input_column="x",
    output_column="y",
    group_values=(),
    input_domain=(),
    input_low=0.0,
    input_high=10.0,
    continuous_input=True,
)


@pytest.fixture(scope="module")
def differential_db():
    """Both harness tables, with their laws captured."""
    rng = np.random.default_rng(2024)
    db = LawsDatabase()
    _load_readings(db, _readings_rows(rng))
    report = db.fit("readings", "y ~ linear(x)", group_by="g")
    assert report.accepted

    x = rng.uniform(0.0, 10.0, size=TICKS_ROWS)
    y = 2.0 + 1.5 * x + rng.normal(0.0, TICKS_NOISE, size=TICKS_ROWS)
    db.load_dict("ticks", {"x": x.tolist(), "y": y.tolist()})
    report = db.fit("ticks", "y ~ linear(x)")
    assert report.accepted
    return db


# ---------------------------------------------------------------------------
# The differential check
# ---------------------------------------------------------------------------


def _bound(standard_error: float, exact_value: float | None) -> float:
    scale = abs(exact_value) if exact_value is not None else 0.0
    return BOUND_MULTIPLIER * standard_error + ABS_TOL + 1e-9 * scale


def _check_grouped(db: LawsDatabase, query: GeneratedQuery, comparison: dict) -> None:
    approx, exact = comparison["approximate"], comparison["exact"]
    assert comparison["route"] == approx.route
    assert approx.route in ("grouped-model", "grouped-hybrid"), (
        f"grouped query not served from models: {query.sql} -> "
        f"{approx.route} ({approx.reason})"
    )

    approx_rows = {row[0]: row for row in approx.rows()}
    exact_rows = {row[0]: row for row in exact.rows()}
    assert set(approx_rows) == set(exact_rows), (
        f"group sets differ for {query.sql}: "
        f"approx {sorted(approx_rows)} vs exact {sorted(exact_rows)}"
    )

    groups = per_group(approx)
    for key, exact_row in exact_rows.items():
        approx_row = approx_rows[key]
        _, _, errors = groups.get((key,), (-1, {}, {}))  # an exact group states no error
        for position, name in enumerate(query.aggregate_names, start=1):
            exact_value = exact_row[position]
            approx_value = approx_row[position]
            stated = errors.get(name, 0.0)
            _assert_within(query, approx_value, exact_value, stated, f"group {key}, {name}")


def _check_range(db: LawsDatabase, query: GeneratedQuery, comparison: dict) -> None:
    approx, exact = comparison["approximate"], comparison["exact"]
    assert comparison["route"] == approx.route
    assert approx.route == "range-aggregate", (
        f"range query not served from models: {query.sql} -> "
        f"{approx.route} ({approx.reason})"
    )
    assert approx.table.num_rows == 1 and exact.table.num_rows == 1

    approx_row = approx.rows()[0]
    exact_row = exact.rows()[0]
    for position, name in enumerate(query.aggregate_names):
        exact_value = exact_row[position]
        approx_value = approx_row[position]
        stated = approx.column_errors.get(name, 0.0)
        if exact_value is None and approx_value is not None:
            # The restriction covers no actual rows but a sliver of the
            # estimated domain: acceptable iff the exact engine agrees the
            # restriction is empty on the queried table.
            table_name = query.sql.split(" FROM ", 1)[1].split(" ", 1)[0]
            where = query.sql.split(" WHERE ", 1)[1]
            count_sql = f"SELECT count(*) AS n FROM {table_name} WHERE {where}"
            assert db.query(count_sql, EXACT).query_result.scalar() == 0
            continue
        _assert_within(query, approx_value, exact_value, stated, name)


def _assert_within(query, approx_value, exact_value, stated_error, label) -> None:
    if exact_value is None and approx_value is None:
        return
    assert approx_value is not None and exact_value is not None, (
        f"{query.sql} [{label}]: approx {approx_value!r} vs exact {exact_value!r}"
    )
    difference = abs(float(approx_value) - float(exact_value))
    bound = _bound(stated_error, float(exact_value))
    assert difference <= bound, (
        f"{query.sql} [{label}]: |{approx_value} - {exact_value}| = {difference:.6g} "
        f"exceeds stated bound {bound:.6g} (se={stated_error:.6g})"
    )


# ---------------------------------------------------------------------------
# The harness runs
# ---------------------------------------------------------------------------


def test_grouped_and_range_queries_match_exact_within_stated_error(differential_db):
    """150 randomized grouped/range queries over the per-group laws."""
    rng = np.random.default_rng(99)
    queries = generate_queries(rng, READINGS_PROFILE, count=150)
    assert len(queries) == 150
    for query in queries:
        comparison = compare_sql(differential_db, query.sql)
        if query.shape == "grouped":
            _check_grouped(differential_db, query, comparison)
        else:
            _check_range(differential_db, query, comparison)


def test_continuous_range_queries_match_exact_within_stated_error(differential_db):
    """70 randomized range queries over the continuous (analytic) law."""
    rng = np.random.default_rng(1234)
    queries = generate_queries(rng, TICKS_PROFILE, count=70, shapes=("range",))
    assert len(queries) == 70
    for query in queries:
        comparison = compare_sql(differential_db, query.sql)
        _check_range(differential_db, query, comparison)


def test_queries_hold_while_models_are_stale_mid_stream():
    """40 randomized queries against models marked stale by streaming ingest.

    The ingested rows follow the same per-group laws (balanced design), so a
    stale model remains the right answer — and the growth-rescaled COUNT/SUM
    must keep tracking the larger table within the stated bounds.
    """
    rng = np.random.default_rng(7)
    db = LawsDatabase(ingest_batch_size=64)
    _load_readings(db, _readings_rows(rng))
    report = db.fit("readings", "y ~ linear(x)", group_by="g")
    assert report.accepted
    model = report.model

    # Stream 50% more rows mid-run; every flushed batch marks models stale.
    extra = _readings_rows(rng, reps=REPS_PER_CELL // 2)
    db.ingest("readings", extra, flush=True)
    assert model.status == "stale"

    queries = generate_queries(rng, READINGS_PROFILE, count=40)
    for query in queries:
        comparison = compare_sql(db, query.sql)
        approx = comparison["approximate"]
        assert not approx.is_exact, f"stale model benched for {query.sql}: {approx.reason}"
        assert "stale" in approx.reason
        if query.shape == "grouped":
            _check_grouped(db, query, comparison)
        else:
            _check_range(db, query, comparison)


def test_sketch_predicts_the_route_the_answer_takes(differential_db):
    """The planner's static probe and the serving walk read one route table:
    for every seeded statement the sketched route is the route served."""
    engine = differential_db.approx
    workloads = [
        (READINGS_PROFILE, 99, 150, ("grouped", "range")),
        (TICKS_PROFILE, 1234, 70, ("range",)),
    ]
    for profile, seed, count, shapes in workloads:
        rng = np.random.default_rng(seed)
        for query in generate_queries(rng, profile, count=count, shapes=shapes):
            sketch = engine.sketch_route(query.sql, for_execution=True)
            answer = engine.answer(query.sql)
            predicted = sketch.route if sketch is not None else "exact-fallback"
            assert predicted == answer.route, f"{query.sql}: sketched {predicted}, served {answer.route}"
            assert answer.sql == query.sql


def test_harness_scale_meets_issue_floor():
    """The harness totals ≥200 randomized differential queries."""
    assert 150 + 70 + 40 >= 200
