"""§2 example queries: the paper's two SQL queries answered from the model.

Query 1 (point): ``SELECT intensity FROM measurements WHERE source = 42 AND
wavelength = 0.14`` — a parameter lookup plus one model evaluation.
Query 2 (selection): ``SELECT source, intensity FROM measurements WHERE
wavelength = 0.14 AND intensity > 3.0`` — evaluate the model for all sources
at the given band and filter on the predicted value.

The benchmark reports accuracy against exact execution and the pages each
route reads (the model routes must read none).
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentResult, relative_error

from tests.conftest import APPROX, EXACT


@pytest.mark.benchmark(group="section2")
def test_point_query(benchmark, lofar_bench_db):
    db = lofar_bench_db
    sql = "SELECT intensity FROM measurements WHERE source = 42 AND frequency = 0.15"

    answer = benchmark(lambda: db.query(sql, APPROX).approx)
    exact = db.query(
        "SELECT avg(intensity) FROM measurements WHERE source = 42 AND frequency = 0.15",
        EXACT,
    ).query_result.scalar()

    result = ExperimentResult(
        name="§2 query 1: point query",
        metadata={"paper": "answered solely from the stored (p, alpha) parameters"},
    )
    result.add_row(
        route=answer.route,
        model_value=answer.scalar(),
        exact_mean=exact,
        relative_error=relative_error(answer.scalar(), exact),
        pages_read=answer.io["pages_read"],
        error_bound=1.96 * answer.column_errors["intensity"],
    )
    result.print()

    assert answer.route == "point"
    assert answer.io["pages_read"] == 0
    assert relative_error(answer.scalar(), exact) < 0.15


@pytest.mark.benchmark(group="section2")
def test_selection_query(benchmark, lofar_bench_db):
    db = lofar_bench_db
    # Threshold chosen as the upper-quartile intensity so the answer is non-trivial.
    threshold = db.query(
        "SELECT avg(intensity) FROM measurements WHERE frequency = 0.15",
        EXACT,
    ).query_result.scalar() * 1.5
    sql = (
        "SELECT source, intensity FROM measurements "
        f"WHERE frequency = 0.15 AND intensity > {threshold:.6f}"
    )

    answer = benchmark(lambda: db.query(sql, APPROX).approx)

    exact_sources = set(
        db.query(
            "SELECT source, avg(intensity) AS m FROM measurements WHERE frequency = 0.15 "
            f"GROUP BY source HAVING avg(intensity) > {threshold:.6f}",
            EXACT,
        ).query_result.table.column("source").to_pylist()
    )
    model_sources = set(answer.table.column("source").to_pylist())
    recall = len(model_sources & exact_sources) / len(exact_sources) if exact_sources else 1.0
    precision = len(model_sources & exact_sources) / len(model_sources) if model_sources else 1.0

    result = ExperimentResult(
        name="§2 query 2: selection over predicted intensities",
        metadata={"threshold": round(threshold, 4)},
    )
    result.add_row(
        route=answer.route,
        virtual_rows=answer.virtual_rows_generated,
        returned_sources=len(model_sources),
        truly_bright_sources=len(exact_sources),
        precision=precision,
        recall=recall,
        pages_read=answer.io["pages_read"],
    )
    result.print()

    assert answer.route == "virtual-table"
    assert answer.io["pages_read"] == 0
    if exact_sources:
        assert recall > 0.8 and precision > 0.8
