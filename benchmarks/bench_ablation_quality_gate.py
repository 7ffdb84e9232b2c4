"""Ablation: the model-quality gate (§3's "judge the quality of the model").

What happens if the database uses captured models for approximate answering
regardless of their quality?  The benchmark fits a deliberately bad model
(a constant per source) and a good model (the power law) on the same data,
then sweeps the R² acceptance threshold and reports which model the engine
ends up using and the resulting answer error.  The expected shape: once the
gate admits the bad model as "best available", answer error jumps — the gate
is what keeps approximate answers trustworthy.
"""

from __future__ import annotations

import pytest

from repro import LawsDatabase
from repro.bench import ExperimentResult, relative_error
from repro.core.quality import QualityPolicy
from repro.datasets import lofar

from tests.conftest import APPROX, EXACT

THRESHOLDS = (0.0, 0.3, 0.6, 0.8, 0.95)


@pytest.mark.benchmark(group="ablation")
def test_quality_gate_threshold_sweep(benchmark, scale):
    num_sources = max(int(35_692 * scale * 0.1), 80)
    dataset = lofar.generate(num_sources=num_sources, observations_per_source=36, seed=5, anomaly_fraction=0.0)
    sql = "SELECT avg(intensity) AS m FROM measurements WHERE frequency = 0.15"

    def evaluate_threshold(threshold: float):
        db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=threshold))
        db.register_table(dataset.to_table("measurements"))
        # Capture order matters: the bad model is newer, so a permissive gate
        # that accepts both must still not let it displace the better one.
        good = db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        bad = db.fit("measurements", "intensity ~ constant(frequency)", group_by="source")
        exact = db.query(sql, EXACT).query_result.scalar()
        answer = db.query(sql, APPROX).approx
        used = None
        if answer.used_model_ids:
            used = db.models.get(answer.used_model_ids[0]).family_name
        return {
            "threshold": threshold,
            "good_accepted": good.accepted,
            "bad_accepted": bad.accepted,
            "route": answer.route,
            "model_used": used or "(exact fallback)",
            "relative_error": relative_error(answer.scalar(), exact) if answer.table.num_rows else float("nan"),
        }

    def run():
        return [evaluate_threshold(threshold) for threshold in THRESHOLDS]

    rows = benchmark.pedantic(run, iterations=1, rounds=1)

    result = ExperimentResult(
        name="Ablation: R² acceptance threshold for captured models",
        metadata={"sources": num_sources, "query": sql},
    )
    for row in rows:
        result.add_row(**row)
    result.print()

    by_threshold = {row["threshold"]: row for row in rows}
    # A permissive gate accepts even the constant model; the default gate rejects it.
    assert by_threshold[0.0]["bad_accepted"] is True
    assert by_threshold[0.8]["bad_accepted"] is False
    # Whenever a model answer is produced, model selection prefers the power law,
    # and the answer error stays small.
    for row in rows:
        if row["route"] != "exact-fallback":
            assert row["model_used"] == "powerlaw"
            assert row["relative_error"] < 0.10
    # An extreme gate rejects everything and the engine falls back to exact execution.
    assert by_threshold[0.95]["route"] == "exact-fallback"
