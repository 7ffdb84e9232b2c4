"""Tests for goodness-of-fit metrics and prediction intervals."""

import math

import numpy as np
import pytest

from repro.errors import FittingError
from repro.fitting import (
    Constant,
    LinearModel,
    Polynomial,
    PowerLaw,
    adjusted_r_squared,
    aic,
    bic,
    f_test_against_constant,
    f_test_nested,
    fit_model,
    predict_interval,
    r_squared,
    residual_standard_error,
)


class TestMetrics:
    def test_r_squared_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_r_squared_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r_squared_can_be_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.array([3.0, 3.0, 0.0])) < 0

    def test_r_squared_constant_data(self):
        y = np.array([2.0, 2.0])
        assert r_squared(y, y) == 1.0
        assert r_squared(y, np.array([1.0, 1.0])) == 0.0

    def test_adjusted_r_squared_penalises_parameters(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 30)
        predictions = y + rng.normal(0, 0.5, 30)
        assert adjusted_r_squared(y, predictions, num_params=10) < adjusted_r_squared(y, predictions, num_params=2)

    def test_residual_standard_error(self):
        residuals = np.array([1.0, -1.0, 1.0, -1.0])
        assert residual_standard_error(residuals, num_params=2) == pytest.approx(np.sqrt(4 / 2))

    def test_residual_standard_error_zero_dof(self):
        assert residual_standard_error(np.array([1.0]), num_params=2) == 0.0

    def test_aic_bic_prefer_better_fit(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        good = y + 0.01
        bad = y + 1.0
        assert aic(y, good, 2) < aic(y, bad, 2)
        assert bic(y, good, 2) < bic(y, bad, 2)

    def test_bic_penalises_parameters_more(self):
        y = np.linspace(0, 1, 100)
        predictions = y + 0.01
        aic_delta = aic(y, predictions, 10) - aic(y, predictions, 2)
        bic_delta = bic(y, predictions, 10) - bic(y, predictions, 2)
        assert bic_delta > aic_delta

    def test_f_test_significant_for_real_relationship(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 100)
        y = 2.0 * x + rng.normal(0, 0.05, 100)
        predictions = 2.0 * x
        result = f_test_against_constant(y, predictions, num_params=2)
        assert result.significant()
        assert result.p_value < 1e-6

    def test_f_test_not_significant_for_noise(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 50)
        predictions = np.full(50, y.mean()) + rng.normal(0, 0.001, 50)
        result = f_test_against_constant(y, predictions, num_params=2)
        assert not result.significant(alpha=0.01)

    def test_f_test_nested_degenerate_dof(self):
        y = np.array([1.0, 2.0])
        result = f_test_nested(y, y, y, reduced_params=1, full_params=5)
        assert result.p_value == 1.0

    def test_f_test_perfect_full_model(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        reduced = np.full(4, y.mean())
        result = f_test_nested(y, reduced, y, 1, 2)
        assert result.p_value == 0.0

    def test_f_test_non_finite_residuals_give_nan_p_value(self):
        # A robust fit can hand over non-finite predictions; the statistic is
        # then NaN and the p-value must say so rather than raise or hang.
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        full = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        result = f_test_nested(y, np.full(5, y.mean()), full, 1, 2)
        assert math.isnan(result.f_statistic)
        assert math.isnan(result.p_value)
        assert not result.significant()


class TestPredictionIntervals:
    def test_interval_contains_truth_for_linear(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, 500)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.5, 500)
        fit = fit_model(LinearModel(("x",)), {"x": x}, y)
        intervals = predict_interval(fit, {"x": 5.0}, confidence=0.99)
        assert len(intervals) == 1
        assert intervals[0].contains(11.0)

    def test_interval_width_scales_with_confidence(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 100)
        y = x + rng.normal(0, 0.1, 100)
        fit = fit_model(LinearModel(("x",)), {"x": x}, y)
        narrow = predict_interval(fit, {"x": 0.5}, confidence=0.5)[0]
        wide = predict_interval(fit, {"x": 0.5}, confidence=0.99)[0]
        assert wide.upper - wide.lower > narrow.upper - narrow.lower

    def test_nonlinear_interval_uses_rse(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 0.2, 300)
        y = 0.06 * x**-0.7 * np.exp(rng.normal(0, 0.03, 300))
        fit = fit_model(PowerLaw(), {"x": x}, y)
        interval = predict_interval(fit, {"x": 0.15})[0]
        assert interval.standard_error == pytest.approx(fit.residual_standard_error)

    def test_vector_inputs_give_one_interval_per_point(self):
        x = np.linspace(0, 1, 50)
        fit = fit_model(LinearModel(("x",)), {"x": x}, 2 * x)
        intervals = predict_interval(fit, {"x": np.array([0.1, 0.2, 0.3])})
        assert len(intervals) == 3
        assert str(intervals[0])  # renders without error

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, 95, float("nan")])
    def test_confidence_outside_open_unit_interval_is_rejected(self, confidence):
        # These used to come back as NaN (c > 1) or infinite (c = 1) bounds,
        # which made contains() quietly always-false / always-true.
        x = np.linspace(0, 1, 50)
        fit = fit_model(LinearModel(("x",)), {"x": x}, 2 * x)
        with pytest.raises(ValueError, match="confidence"):
            predict_interval(fit, {"x": 0.5}, confidence=confidence)

    @pytest.mark.parametrize(
        "family, columns",
        [
            (LinearModel(("a", "b")), ("a", "b")),
            (LinearModel(("a",), intercept=False), ("a",)),
            (Polynomial(3), ("a",)),
            (Constant(), ("a",)),
        ],
    )
    def test_linear_family_values_are_bit_equal_to_fit_predict(self, family, columns):
        # predict_interval builds the design matrix once and multiplies it
        # out itself; the values must be the ones fit.predict returns.
        rng = np.random.default_rng(6)
        data = {name: rng.uniform(-3, 3, 200) for name in columns}
        y = 0.5 + sum(data.values()) + rng.normal(0, 0.2, 200)
        fit = fit_model(family, data, y)
        points = {name: rng.uniform(-5, 5, 17) for name in columns}
        intervals = predict_interval(fit, points)
        assert [interval.value for interval in intervals] == fit.predict(points).tolist()
        scalar = {name: float(values[0]) for name, values in points.items()}
        first = {name: values[:1] for name, values in points.items()}
        assert predict_interval(fit, scalar)[0].value == fit.predict(first)[0]
        assert all(interval.standard_error >= fit.residual_standard_error for interval in intervals)

    def test_missing_input_is_still_a_fitting_error(self):
        x = np.linspace(0, 1, 50)
        fit = fit_model(LinearModel(("x",)), {"x": x}, 2 * x)
        with pytest.raises(FittingError, match="missing input"):
            predict_interval(fit, {"z": 0.5})
