"""§6 proposed evaluation: TPC-DS-style benchmark queries answered approximately.

The paper's concluding remarks propose creating models of the regularity in
TPC-DS data and using "the complex benchmark queries ... as tasks for
approximate query answering".  This benchmark runs a small query suite over
the TPC-DS-lite star schema three ways — exactly, from harvested models, and
from a 1% uniform sample — and reports relative error and pages read.
"""

from __future__ import annotations

import pytest

from repro.baselines import sampling
from repro.bench import ExperimentResult, relative_error

from tests.conftest import APPROX, EXACT

QUERIES = (
    ("q1 total revenue", "SELECT sum(sales_price) AS v FROM store_sales", "sum"),
    ("q2 average sale price", "SELECT avg(sales_price) AS v FROM store_sales", "avg"),
    ("q3 price ceiling", "SELECT max(sales_price) AS v FROM store_sales", "max"),
    ("q4 price floor", "SELECT min(sales_price) AS v FROM store_sales", "min"),
)


@pytest.mark.benchmark(group="tpcds")
def test_tpcds_queries_model_vs_sampling(benchmark, tpcds_bench_db):
    db = tpcds_bench_db
    sales = db.table("store_sales")
    sampler = sampling.UniformSampler(sales, fraction=0.01, seed=11)

    def run():
        rows = []
        for name, sql, function in QUERIES:
            exact = db.query(sql, EXACT).query_result
            approx = db.query(sql, APPROX).approx
            sample_estimate = sampler.estimate(function, "sales_price")
            rows.append((name, function, exact, approx, sample_estimate))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)

    result = ExperimentResult(
        name="§6 TPC-DS-lite approximate query suite",
        metadata={
            "fact_rows": sales.num_rows,
            "sample_fraction": 0.01,
            "model": "sales_price ~ linear(list_price), harvested in-database",
        },
    )
    model_errors = {}
    sample_errors = {}
    for name, function, exact, approx, sample_estimate in rows:
        exact_value = exact.scalar()
        model_errors[function] = relative_error(approx.scalar(), exact_value)
        sample_errors[function] = relative_error(sample_estimate.value, exact_value)
        result.add_row(
            query=name,
            exact=exact_value,
            model=approx.scalar(),
            model_error=model_errors[function],
            model_pages=approx.io["pages_read"],
            sample=sample_estimate.value,
            sample_error=sample_errors[function],
            exact_pages=exact.io["pages_read"],
        )
    result.print()

    # Shapes: model answers read no pages, exact answers do; the linearity-based
    # AVG/SUM answers are tight (and at least competitive with a 1% sample).
    for _, _, exact, approx, _ in rows:
        assert approx.io["pages_read"] == 0
        assert exact.io["pages_read"] > 0
    assert model_errors["avg"] < 0.05
    assert model_errors["sum"] < 0.05
    assert model_errors["avg"] <= sample_errors["avg"] + 0.02


@pytest.mark.benchmark(group="tpcds")
def test_tpcds_per_store_profit_query(benchmark, tpcds_bench_db):
    """A grouped benchmark query that the current engine answers exactly
    (documents the fallback boundary the paper's challenges section predicts)."""
    db = tpcds_bench_db
    sql = "SELECT store_id, avg(net_profit) AS v FROM store_sales GROUP BY store_id ORDER BY store_id"

    answer = benchmark(lambda: db.query(sql, APPROX).approx)

    result = ExperimentResult(name="§6 grouped query: routing decision")
    result.add_row(query="avg(net_profit) per store", route=answer.route, reason=answer.reason[:60])
    result.print()

    assert answer.route == "exact-fallback"
    assert answer.table.num_rows == db.table("store").num_rows
