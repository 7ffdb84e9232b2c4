"""Figure 2: the model interception workflow and its overhead.

The paper's Figure 2 shows five steps: (1) the user fits against a strawman,
(2) the fit is offloaded to the database, (3) the goodness of fit comes back
while the model is stored, (4) a later query arrives and (5) is answered
from the model with error bounds.  This benchmark times the intercepted fit
against a plain (non-captured) fit — interception must be essentially free —
and then answers the step-4/5 query from the captured model.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro import LawsDatabase
from repro.bench import ExperimentResult
from repro.core.quality import QualityPolicy
from repro.fitting import PowerLaw, fit_grouped

from tests.conftest import APPROX


@pytest.mark.benchmark(group="figure2")
def test_figure2_interception_overhead(benchmark, lofar_bench_dataset):
    dataset = lofar_bench_dataset
    table = dataset.to_table("measurements")

    # Plain fit: what a statistical environment would do with exported data.
    started = perf_counter()
    plain = fit_grouped(table, PowerLaw(), ["frequency"], "intensity", ["source"])
    plain_seconds = perf_counter() - started

    def intercepted():
        db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.7))
        db.register_table(dataset.to_table("measurements"))
        report = db.strawman("measurements").fit("intensity ~ powerlaw(frequency)", group_by="source")
        return db, report

    db, report = benchmark.pedantic(intercepted, iterations=1, rounds=1)
    intercepted_seconds = benchmark.stats.stats.mean

    # Steps 4-5: the later query answered from the captured model with error bounds.
    answer = db.query(
        "SELECT intensity FROM measurements WHERE source = 1 AND frequency = 0.15",
        APPROX,
    ).approx

    result = ExperimentResult(
        name="Figure 2: interception overhead and model-answered query",
        metadata={"sources": dataset.num_sources, "measurements": dataset.num_rows},
    )
    result.add_row(step="plain grouped fit (no capture)", seconds=plain_seconds, outcome=f"{int(plain.succeeded.sum())} fits")
    result.add_row(
        step="intercepted fit (capture + quality judgement)",
        seconds=intercepted_seconds,
        outcome=f"R2={report.r_squared:.3f}, accepted={report.accepted}",
    )
    result.add_row(
        step="step 4-5 point query from model",
        seconds=answer.elapsed_seconds,
        outcome=f"{answer.scalar():.4f} ± {1.96 * answer.column_errors['intensity']:.4f}, pages={answer.io['pages_read']:.0f}",
    )
    result.print()

    # Shape: interception costs little more than the fit itself (well under 3x),
    # and the captured model answers the query without touching the data.
    assert intercepted_seconds < 3.0 * plain_seconds + 1.0
    assert answer.route == "point"
    assert answer.io["pages_read"] == 0
    assert np.isfinite(answer.scalar())
