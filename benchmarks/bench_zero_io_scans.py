"""§4.1 zero-IO scans: turning an IO-bound scan into a CPU-bound model evaluation.

The benchmark compares a scan-shaped aggregate over the LOFAR table executed
(a) against the raw data, charging the simulated IO model, and (b) from the
captured model's regenerated tuples, which read nothing.  The reported
quantities — pages read, simulated IO time, wall-clock time — are exactly the
trade the paper describes.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentResult, relative_error

from tests.conftest import compare_sql


@pytest.mark.benchmark(group="zero-io")
def test_zero_io_scan_comparison(benchmark, lofar_bench_db):
    db = lofar_bench_db

    comparison = benchmark.pedantic(
        lambda: db.compare_scan("measurements", "intensity"), iterations=1, rounds=3
    )

    result = ExperimentResult(name="§4.1 zero-IO scans: raw scan vs. model scan")
    result.add_row(
        method="raw table scan",
        rows=comparison.raw_rows,
        pages_read=comparison.raw_pages_read,
        simulated_io_ms=comparison.raw_virtual_io_seconds * 1e3,
        wall_ms=comparison.raw_wall_seconds * 1e3,
    )
    result.add_row(
        method="model-generated scan",
        rows=comparison.model_rows,
        pages_read=comparison.model_pages_read,
        simulated_io_ms=comparison.model_virtual_io_seconds * 1e3,
        wall_ms=comparison.model_wall_seconds * 1e3,
    )
    result.print()

    assert comparison.model_pages_read == 0
    assert comparison.raw_pages_read > 0
    assert comparison.io_time_saved > 0


@pytest.mark.benchmark(group="zero-io")
def test_zero_io_aggregate_query(benchmark, lofar_bench_db):
    """A full aggregate query: accuracy and IO of the model route vs. exact."""
    db = lofar_bench_db
    sql = "SELECT avg(intensity) AS m FROM measurements WHERE frequency = 0.12"

    comparison = benchmark(lambda: compare_sql(db, sql))
    approx = comparison["approximate"]
    exact = comparison["exact"]

    result = ExperimentResult(name="§4.1 zero-IO aggregate: avg(intensity) at 0.12 GHz")
    result.add_row(
        method="captured model",
        value=approx.scalar(),
        pages_read=approx.io["pages_read"],
        wall_ms=approx.elapsed_seconds * 1e3,
        relative_error=relative_error(approx.scalar(), exact.scalar()),
    )
    result.add_row(
        method="exact scan",
        value=exact.scalar(),
        pages_read=exact.io["pages_read"],
        wall_ms=exact.elapsed_seconds * 1e3,
        relative_error=0.0,
    )
    result.print()

    assert approx.io["pages_read"] == 0
    assert exact.io["pages_read"] > 0
    assert comparison["max_relative_error"] < 0.10
