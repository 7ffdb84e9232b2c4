"""Tests for grouped fitting, robust fitting and piecewise polynomials."""

import numpy as np
import pytest

from repro.core.approx.anomalies import rank_groups_by_misfit
from repro.core.captured_model import CapturedModel, ModelCoverage
from repro.core.quality import judge_grouped
from repro.datasets import lofar
from repro.errors import FittingError, InsufficientDataError
from repro.fitting import (
    GroupedFitter,
    LinearModel,
    PowerLaw,
    fit_grouped,
    fit_model,
    fit_piecewise,
    fit_robust,
)


class TestGroupedFitting:
    @pytest.fixture(scope="class")
    def dataset(self):
        return lofar.generate(num_sources=40, observations_per_source=24, seed=21, anomaly_fraction=0.0)

    @pytest.fixture(scope="class")
    def grouped(self, dataset):
        table = dataset.to_table()
        return fit_grouped(table, PowerLaw(), ["frequency"], "intensity", ["source"])

    def test_one_record_per_source(self, grouped, dataset):
        assert grouped.num_groups == dataset.num_sources

    def test_parameters_recovered_per_group(self, grouped, dataset):
        recovered = 0
        for source_id, truth in dataset.truths.items():
            fit = grouped.result_for(source_id)
            if fit is None:
                continue
            if abs(fit.param_dict["alpha"] - truth.alpha) < 0.25:
                recovered += 1
        assert recovered >= 0.9 * dataset.num_sources

    def test_parameter_table_shape(self, grouped, dataset):
        table = grouped.to_parameter_table()
        assert table.num_rows == int(grouped.succeeded.sum())
        assert set(table.schema.names) == {"source", "p", "alpha", "residual_se", "r_squared", "n_obs"}

    def test_parameter_table_much_smaller_than_raw(self, grouped, dataset):
        raw_bytes = dataset.to_table().byte_size()
        assert grouped.to_parameter_table().byte_size() < 0.3 * raw_bytes

    def test_too_few_observations_recorded_as_failure(self):
        table = lofar.generate(num_sources=3, observations_per_source=2, seed=1).to_table()
        result = fit_grouped(table, PowerLaw(), ["frequency"], "intensity", ["source"])
        assert not result.succeeded.any()
        assert all("observations" in error for error in result.errors)

    def test_anomaly_ranking_sorted(self, grouped):
        model = CapturedModel(
            coverage=ModelCoverage("measurements", ("frequency",), "intensity", ("source",)),
            formula="intensity ~ powerlaw(frequency)",
            fit=grouped,
            quality=judge_grouped(grouped)[0],
            accepted=True,
        )
        scores = [anomaly.score for anomaly in rank_groups_by_misfit(model, metric="rse")]
        assert scores == sorted(scores, reverse=True)
        assert sorted(scores) == sorted(grouped.rse[grouped.succeeded].tolist())

    def test_predict_rows_is_the_per_group_loop(self, grouped, dataset):
        """One key -> row gather and one row-wise evaluation predict exactly
        what each group's own fit predicts for its rows."""
        table = dataset.to_table()
        frequency = table.column("frequency").float_numpy()
        sources = table.column("source")
        expected = np.full(table.num_rows, np.nan)
        for (source,) in grouped.keys:
            rows = np.flatnonzero(sources.float_numpy() == source)
            expected[rows] = grouped.result_for(source).predict({"frequency": frequency[rows]})
        predicted = grouped.predict_rows({"frequency": frequency}, [sources])
        assert np.array_equal(predicted, expected, equal_nan=True)

    def test_requires_group_columns(self):
        with pytest.raises(FittingError):
            GroupedFitter(PowerLaw(), ["x"], "y", [])

    def test_null_group_keys_skipped(self):
        from repro.db.table import Table

        table = Table.from_dict(
            "t",
            {"g": [1, 1, 1, 1, None], "x": [1.0, 2.0, 3.0, 4.0, 5.0], "y": [2.0, 4.0, 6.0, 8.0, 10.0]},
        )
        result = fit_grouped(table, LinearModel(("x",)), ["x"], "y", ["g"])
        assert result.num_groups == 1

    def test_params_by_key(self, grouped):
        params = {key: grouped.result_for(key).param_dict for key in grouped.keys}
        assert all(set(p) == {"p", "alpha"} for p in params.values())


class TestRobustFitting:
    def test_huber_resists_outliers(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 10, 300)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.1, 300)
        y[:15] += 50.0  # gross outliers
        plain = fit_model(LinearModel(("x",)), {"x": x}, y)
        robust = fit_robust(LinearModel(("x",)), {"x": x}, y, weight_function="huber")
        assert abs(robust.param_dict["beta_x"] - 2.0) < abs(plain.param_dict["beta_x"] - 2.0)

    def test_bisquare_weight_function(self):
        robust = fit_robust(
            LinearModel(("x",)),
            {"x": np.linspace(0, 1, 50)},
            np.linspace(0, 2, 50),
            weight_function="bisquare",
        )
        assert robust.param_dict["beta_x"] == pytest.approx(2.0, abs=1e-6)

    def test_unknown_weight_function(self):
        with pytest.raises(FittingError):
            fit_robust(LinearModel(("x",)), {"x": np.ones(10)}, np.ones(10), weight_function="magic")

    def test_robust_nonlinear_trims_outliers(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 0.2, 200)
        y = 0.06 * x**-0.7
        y[:10] *= 10.0  # interference spikes
        robust = fit_robust(PowerLaw(), {"x": x}, y)
        assert robust.param_dict["alpha"] == pytest.approx(-0.7, abs=0.1)

    def test_robust_metadata_recorded(self):
        x = np.linspace(0, 1, 30)
        fit = fit_robust(LinearModel(("x",)), {"x": x}, 2 * x)
        assert "robust" in fit.extra


class TestPiecewise:
    def test_piecewise_fits_regime_change(self):
        x = np.linspace(0, 10, 400)
        y = np.where(x < 5, 2.0 * x, 10.0 - 1.0 * (x - 5))
        fit = fit_piecewise(x, y, num_segments=2, degree=1)
        assert fit.r_squared > 0.95

    def test_segment_count_and_params(self):
        x = np.linspace(0, 1, 100)
        fit = fit_piecewise(x, x**2, num_segments=4, degree=2)
        assert len(fit.family.segments) == 4
        assert fit.family.num_params == 4 * 3

    def test_prediction_outside_range_extrapolates(self):
        x = np.linspace(0, 1, 50)
        fit = fit_piecewise(x, 3.0 * x, num_segments=2, degree=1)
        value = fit.predict({"x": np.array([2.0])})[0]
        assert np.isfinite(value)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_piecewise(np.array([1.0, 2.0]), np.array([1.0, 2.0]), num_segments=3, degree=1)

    def test_byte_size_scales_with_segments(self):
        x = np.linspace(0, 1, 200)
        small = fit_piecewise(x, x, num_segments=2, degree=1).family.byte_size()
        large = fit_piecewise(x, x, num_segments=8, degree=1).family.byte_size()
        assert large > small
