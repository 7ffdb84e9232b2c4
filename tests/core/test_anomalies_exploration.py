"""Tests for anomaly detection and model exploration (§4.2)."""

import pytest

from repro import LawsDatabase
from repro.core.approx.anomalies import detect_anomalies, rank_groups_by_misfit
from repro.core.approx.exploration import explore_gradients, extreme_parameter_groups
from repro.datasets import lofar
from repro.errors import ApproximationError


@pytest.fixture(scope="module")
def anomalous_setup():
    """A LOFAR dataset with a healthy share of anomalous sources and its model."""
    dataset = lofar.generate(
        num_sources=80, observations_per_source=30, seed=77, anomaly_fraction=0.1
    )
    # 10% anomalous sources drag the observation-weighted R² slightly below the
    # default 0.8 gate; a mildly relaxed gate is the realistic setting when the
    # whole point is to go hunting for the anomalies.
    from repro.core.quality import QualityPolicy

    db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.7))
    db.register_table(dataset.to_table("measurements"))
    db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
    model = db.best_model("measurements", "intensity")
    return dataset, db, model


class TestAnomalies:
    def test_ranking_sorted_by_score(self, anomalous_setup):
        _, _, model = anomalous_setup
        ranked = rank_groups_by_misfit(model)
        scores = [anomaly.score for anomaly in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_true_anomalies_rank_high(self, anomalous_setup):
        dataset, _, model = anomalous_setup
        ranked = rank_groups_by_misfit(model)
        true_anomalies = dataset.anomalous_sources()
        top_k = {key[0] for key, in zip((a.key for a in ranked[: len(true_anomalies)]),)}
        # At least half of the top-|anomalies| ranked sources are truly anomalous.
        assert len(top_k & true_anomalies) >= len(true_anomalies) // 2

    def test_detection_recall(self, anomalous_setup):
        dataset, _, model = anomalous_setup
        report = detect_anomalies(model, mad_multiplier=3.0)
        flagged = {key[0] for key in report.anomalous_keys}
        true_anomalies = dataset.anomalous_sources()
        recall = len(flagged & true_anomalies) / len(true_anomalies)
        assert recall >= 0.6

    def test_detection_flags_minority(self, anomalous_setup):
        dataset, _, model = anomalous_setup
        report = detect_anomalies(model, mad_multiplier=3.0)
        assert len(report.anomalies) < 0.5 * dataset.num_sources

    def test_min_anomalies_floor(self, anomalous_setup):
        _, _, model = anomalous_setup
        report = detect_anomalies(model, mad_multiplier=1e9, min_anomalies=5)
        assert len(report.anomalies) == 5

    def test_metric_variants(self, anomalous_setup):
        _, _, model = anomalous_setup
        for metric in ("rse", "relative_rse", "r_squared"):
            assert rank_groups_by_misfit(model, metric=metric)
        with pytest.raises(ApproximationError):
            rank_groups_by_misfit(model, metric="nonsense")

    def test_requires_grouped_model(self, tpcds_db):
        model = tpcds_db.best_model("store_sales", "sales_price")
        with pytest.raises(ApproximationError):
            rank_groups_by_misfit(model)

    def test_system_facade_anomalies(self, anomalous_setup):
        _, db, _ = anomalous_setup
        report = db.anomalies("measurements", mad_multiplier=3.0)
        assert report.ranked
        assert report.top(3) == report.ranked[:3]


class TestExploration:
    def test_gradient_regions_steepest_at_low_frequency(self, anomalous_setup):
        _, _, model = anomalous_setup
        key = next(key for key, fitted in zip(model.fit.keys, model.fit.succeeded) if fitted)
        regions = explore_gradients(model, {"frequency": (0.10, 0.20)}, group_key=key)
        frequency_regions = regions["frequency"]
        assert frequency_regions
        # For a decaying power law |dI/dnu| is largest at the lowest frequencies.
        steepest = frequency_regions[0]
        assert steepest.lower == pytest.approx(0.10, abs=0.02)
        assert "frequency" in str(steepest)

    def test_gradient_needs_ranges(self, anomalous_setup):
        _, _, model = anomalous_setup
        with pytest.raises(ApproximationError):
            explore_gradients(model, {})

    def test_extreme_parameter_groups(self, anomalous_setup):
        dataset, _, model = anomalous_setup
        steepest = extreme_parameter_groups(model, "alpha", k=5, largest=False)
        assert len(steepest) == 5
        values = [value for _, value in steepest]
        assert values == sorted(values)
        # They really are the most negative fitted alphas.
        all_alphas = model.fit.params[model.fit.succeeded, 1]
        assert values[0] == pytest.approx(min(all_alphas))

    def test_extreme_parameter_unknown_name(self, anomalous_setup):
        _, _, model = anomalous_setup
        with pytest.raises(ApproximationError):
            extreme_parameter_groups(model, "gamma")

    def test_ungrouped_model_exploration(self, tpcds_db):
        model = tpcds_db.best_model("store_sales", "sales_price")
        regions = explore_gradients(model, {"list_price": (0.0, 200.0)})
        assert regions["list_price"]
