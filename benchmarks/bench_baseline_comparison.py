"""Baseline comparison: harvested models vs. the AQP alternatives the paper cites.

For a fixed query (per-band mean intensity over the LOFAR table) and a fixed
storage budget ceiling, compare:

* the captured per-source power-law model,
* BlinkDB-style uniform sampling (1% and 10%),
* an equi-depth histogram synopsis,
* a MauveDB-style gridded regression view, and
* a FunctionDB-style piecewise-polynomial table.

Reported per method: auxiliary-structure bytes, relative error of the
answer, and whether base-table IO is needed at query time.  The expected
shape: the harvested model is at least as accurate as sampling/synopses at a
comparable (or smaller) storage budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import functiondb, histogram, mauvedb, sampling
from repro.bench import ExperimentResult, relative_error

from tests.conftest import APPROX, EXACT


@pytest.mark.benchmark(group="baselines")
def test_baseline_comparison_mean_intensity(benchmark, lofar_bench_db, lofar_bench_model):
    db = lofar_bench_db
    model = lofar_bench_model
    table = db.table("measurements")
    band = 0.15
    exact = db.query(f"SELECT avg(intensity) FROM measurements WHERE frequency = {band}", EXACT).query_result.scalar()

    def run():
        answers = {}

        approx = db.query(f"SELECT avg(intensity) AS m FROM measurements WHERE frequency = {band}", APPROX).approx
        answers["captured model"] = (approx.scalar(), model.stored_byte_size(), False)

        for fraction in (0.01, 0.10):
            sampler = sampling.UniformSampler(table, fraction=fraction, seed=13)
            mask = np.isclose(sampler.sample.column("frequency").to_numpy(), band)
            estimate = sampler.estimate("avg", "intensity", predicate_mask=mask)
            answers[f"uniform sample {fraction:.0%}"] = (estimate.value, sampler.sample_bytes(), False)

        # Histogram synopsis over the intensity column restricted to the band
        # (one histogram per band is what a synopsis-based system would keep).
        band_rows = np.isclose(table.column("frequency").to_numpy(), band)
        band_column = table.column("intensity").filter(band_rows)
        hist = histogram.build_equi_depth(band_column, 64, "intensity")
        answers["equi-depth histogram (per band)"] = (hist.estimate("avg"), hist.byte_size() * 4, False)

        view = mauvedb.build_regression_view(table, "frequency", "intensity", group_column="source",
                                             grid_points=4, degree=1)
        view_table = view.to_table()
        freqs = np.array(view_table.column("frequency").to_pylist())
        values = np.array(view_table.column("intensity").to_pylist())
        nearest = np.unique(freqs)[np.argmin(np.abs(np.unique(freqs) - band))]
        answers["MauveDB gridded view"] = (float(np.mean(values[freqs == nearest])), view.byte_size(), False)

        function_table = functiondb.build_function_table(table, "frequency", "intensity",
                                                          group_column="source", num_segments=2, degree=1)
        per_source = [function_table.point(band, key) for key in function_table.functions]
        answers["FunctionDB piecewise"] = (float(np.mean(per_source)), function_table.byte_size(), False)
        return answers

    answers = benchmark.pedantic(run, iterations=1, rounds=1)

    result = ExperimentResult(
        name="Baseline comparison: avg(intensity) at 0.15 GHz",
        metadata={"exact": round(exact, 5), "raw_table_bytes": table.byte_size()},
    )
    errors = {}
    for method, (value, aux_bytes, needs_io) in answers.items():
        errors[method] = relative_error(value, exact)
        result.add_row(
            method=method,
            answer=value,
            relative_error=errors[method],
            auxiliary_bytes=aux_bytes,
            base_table_io_at_query_time=needs_io,
        )
    result.print()

    # Shapes: the captured model answers within a few percent and is at least
    # as accurate as the 1% sample; its storage stays a small fraction of raw.
    assert errors["captured model"] < 0.05
    assert errors["captured model"] <= errors["uniform sample 1%"] + 0.02
    assert answers["captured model"][1] < 0.15 * table.byte_size()
