"""§4.2 analytic solutions for linear models.

For the TPC-DS-lite pricing laws (linear models harvested from the fact
table), MIN/MAX/AVG/SUM of the modelled column are answered in closed form
from the fitted parameters and the catalog statistics — no tuple generation,
no IO.  The benchmark reports the accuracy of each aggregate against exact
execution and the error bound attached to the answer.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentResult, relative_error

from tests.conftest import APPROX, EXACT

AGGREGATES = ("avg", "sum", "min", "max")


@pytest.mark.benchmark(group="analytic-aggregates")
def test_analytic_aggregates_accuracy(benchmark, tpcds_bench_db):
    db = tpcds_bench_db

    def run():
        answers = {}
        for function in AGGREGATES:
            sql = f"SELECT {function}(sales_price) AS v FROM store_sales"
            answers[function] = (db.query(sql, APPROX).approx, db.query(sql, EXACT).query_result.scalar())
        return answers

    answers = benchmark.pedantic(run, iterations=1, rounds=1)

    result = ExperimentResult(
        name="§4.2 analytic aggregates from the sales_price ~ list_price model",
        metadata={"rows": db.table("store_sales").num_rows},
    )
    for function, (approx, exact) in answers.items():
        result.add_row(
            aggregate=function,
            route=approx.route,
            model_value=approx.scalar(),
            exact_value=exact,
            relative_error=relative_error(approx.scalar(), exact),
            error_bound=1.96 * approx.column_errors.get("v", 0.0),
            pages_read=approx.io["pages_read"],
        )
    result.print()

    for function, (approx, exact) in answers.items():
        assert approx.route == "analytic-aggregate"
        assert approx.io["pages_read"] == 0
        tolerance = 0.05 if function in ("avg", "sum") else 0.35  # extremes depend on noise tails
        assert relative_error(approx.scalar(), exact) < tolerance

    # AVG and SUM exploit linearity exactly, so they must be the tightest.
    avg_error = relative_error(answers["avg"][0].scalar(), answers["avg"][1])
    max_error = relative_error(answers["max"][0].scalar(), answers["max"][1])
    assert avg_error <= max_error + 1e-9
