"""Grouped & range-predicate routes: simulated IO and accuracy vs exact.

The acceptance bar for the grouped/range routes: on synthetic workloads with
known laws, ``SELECT g, AVG(y) ... GROUP BY g`` and
``SELECT SUM(y) ... WHERE x BETWEEN a AND b`` must be answered from captured
models (no exact fallback) with per-group/per-range error estimates
attached, at ≥10× fewer simulated page reads than exact execution and ≤5%
mean relative error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.bench import ExperimentResult

from tests.conftest import compare_sql

GROUPS = 24
X_DOMAIN = [float(v) for v in range(8)]
REPS = 40  # rows per (group, x) cell -> 24 * 8 * 40 = 7680 rows
NOISE = 0.4


@pytest.fixture(scope="module")
def groupby_db():
    rng = np.random.default_rng(77)
    g_col, x_col, y_col = [], [], []
    for g in range(GROUPS):
        intercept, slope = 5.0 + 0.6 * g, 0.3 + 0.05 * g
        for x in X_DOMAIN:
            for _ in range(REPS):
                g_col.append(g)
                x_col.append(x)
                y_col.append(intercept + slope * x + rng.normal(0.0, NOISE))
    db = LawsDatabase()
    db.load_dict("readings", {"g": g_col, "x": x_col, "y": y_col})
    report = db.fit("readings", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


def _workload(rng):
    queries = []
    for _ in range(12):
        queries.append("SELECT g, avg(y) AS m FROM readings GROUP BY g ORDER BY g")
        a = float(rng.uniform(0.0, 4.0))
        b = float(rng.uniform(a, 7.0))
        queries.append(f"SELECT sum(y) AS s FROM readings WHERE x BETWEEN {a:.3f} AND {b:.3f}")
        lo = int(rng.integers(0, GROUPS // 2))
        hi = int(rng.integers(lo, GROUPS))
        queries.append(
            f"SELECT g, sum(y) AS s, count(y) AS n FROM readings "
            f"WHERE x >= {a:.3f} AND g BETWEEN {lo} AND {hi} GROUP BY g ORDER BY g"
        )
    return queries


@pytest.mark.benchmark(group="groupby-approx")
def test_grouped_and_range_routes_beat_exact_io(benchmark, groupby_db):
    db = groupby_db
    rng = np.random.default_rng(123)
    queries = _workload(rng)

    def run():
        return [compare_sql(db, sql) for sql in queries]

    comparisons = benchmark.pedantic(run, iterations=1, rounds=1)

    approx_pages = sum(c["approx_pages_read"] for c in comparisons)
    exact_pages = sum(c["exact_pages_read"] for c in comparisons)
    errors = [c["max_relative_error"] for c in comparisons if c["max_relative_error"] is not None]
    mean_error = float(np.mean(errors))
    routes = {c["route"] for c in comparisons}

    result = ExperimentResult(
        name="grouped & range routes vs exact execution",
        metadata={
            "queries": len(queries),
            "rows": db.table("readings").num_rows,
            "routes": sorted(routes),
        },
    )
    result.add_row(
        approx_pages=approx_pages,
        exact_pages=exact_pages,
        io_reduction=f"{exact_pages / max(approx_pages, 1):.0f}x",
        mean_max_relative_error=f"{mean_error:.4f}",
    )
    result.print()

    # Every query must be served from models, not exact fallback.
    assert routes <= {"grouped-model", "grouped-hybrid", "range-aggregate"}
    # Per-group / per-range error estimates are attached.
    for comparison in comparisons:
        approx = comparison["approximate"]
        if approx.route.startswith("grouped"):
            assert (approx.groups.model_id >= 0).any() or approx.table.num_rows == 0
        else:
            non_null = [v for v in approx.rows()[0] if v is not None]
            assert not non_null or any(error > 0 for error in approx.column_errors.values())
    # ≥10x fewer simulated IOs at ≤5% relative error.
    assert exact_pages >= 10 * max(approx_pages, 1)
    assert approx_pages == 0
    assert mean_error <= 0.05
