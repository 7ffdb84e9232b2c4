"""Tests for model quality judgement and the model store."""

import numpy as np
import pytest

from repro.core.captured_model import CapturedModel, ModelCoverage
from repro.core.model_store import ModelStore
from repro.core.quality import ModelQuality, QualityPolicy, judge_fit, judge_grouped
from repro.db.table import Table
from repro.errors import HarvestError, ModelNotFoundError
from repro.fitting import LinearModel, fit_grouped, fit_model


def _make_fit(noise: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, 200)
    y = 1.0 + 2.0 * x + rng.normal(0, noise, 200)
    fit = fit_model(LinearModel(("x",)), {"x": x}, y, output_name="y")
    return fit, {"x": x}, y


def _make_captured(noise: float, accepted: bool = True, table: str = "t", output: str = "y", model_id_seed: int = 0):
    fit, inputs, y = _make_fit(noise, seed=model_id_seed)
    quality = judge_fit(fit, y=y, inputs=inputs)
    return CapturedModel(
        coverage=ModelCoverage(table_name=table, input_columns=("x",), output_column=output),
        formula=f"{output} ~ linear(x)",
        fit=fit,
        quality=quality,
        accepted=accepted,
        fitted_row_count=200,
    )


class TestQuality:
    def test_judge_fit_includes_f_test(self):
        fit, inputs, y = _make_fit(0.1)
        quality = judge_fit(fit, y=y, inputs=inputs)
        assert quality.f_test is not None
        assert quality.f_test.significant()
        assert quality.relative_rse is not None and quality.relative_rse < 0.05

    def test_policy_accepts_good_fit(self):
        fit, inputs, y = _make_fit(0.1)
        assert QualityPolicy().accepts(judge_fit(fit, y=y, inputs=inputs))

    def test_policy_rejects_poor_fit(self):
        fit, inputs, y = _make_fit(50.0)
        assert not QualityPolicy(min_r_squared=0.8).accepts(judge_fit(fit, y=y, inputs=inputs))

    def test_policy_rejects_too_few_observations(self):
        quality = ModelQuality(r_squared=0.99, adjusted_r_squared=0.99, residual_standard_error=0.1, n_observations=3)
        assert not QualityPolicy(min_observations=5).accepts(quality)

    def test_policy_f_test_requirement(self):
        quality = ModelQuality(r_squared=0.95, adjusted_r_squared=0.95, residual_standard_error=0.1, n_observations=100)
        assert not QualityPolicy(require_f_test=True).accepts(quality)

    def test_with_threshold_builds_variant(self):
        policy = QualityPolicy().with_threshold(0.5)
        assert policy.min_r_squared == 0.5

    def test_judge_grouped_empty(self):
        table = Table.from_dict("t", {"g": [1], "x": [1.0], "y": [1.0]}).take(np.zeros(0, dtype=np.int64))
        quality, fraction = judge_grouped(fit_grouped(table, LinearModel(("x",)), ["x"], "y", ["g"]))
        assert fraction == 0.0
        assert quality.n_observations == 0

    def test_quality_summary_renders(self):
        fit, inputs, y = _make_fit(0.1)
        assert "R2=" in judge_fit(fit, y=y, inputs=inputs).summary()


class TestModelStore:
    def test_add_and_get(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        assert store.get(model.model_id) is model
        assert len(store) == 1

    def test_get_missing_raises(self):
        with pytest.raises(ModelNotFoundError):
            ModelStore().get(999)

    def test_candidates_filter_unusable(self):
        store = ModelStore()
        good = store.add(_make_captured(0.1, accepted=True))
        store.add(_make_captured(0.1, accepted=False))
        candidates = store.candidates("t", "y")
        assert [m.model_id for m in candidates] == [good.model_id]

    def test_candidates_respect_required_inputs(self):
        store = ModelStore()
        store.add(_make_captured(0.1))
        assert store.candidates("t", "y", required_inputs=["x", "y"])
        assert not store.candidates("t", "y", required_inputs=["other"])

    def test_best_model_prefers_higher_adjusted_r2(self):
        store = ModelStore()
        worse = store.add(_make_captured(5.0, model_id_seed=1))
        better = store.add(_make_captured(0.05, model_id_seed=2))
        assert store.best_model("t", "y").model_id == better.model_id
        assert worse.model_id != better.model_id

    def test_best_model_missing_raises(self):
        with pytest.raises(ModelNotFoundError):
            ModelStore().best_model("t", "y")

    def test_partial_models_excluded_by_default(self):
        store = ModelStore()
        fit, inputs, y = _make_fit(0.1)
        partial = CapturedModel(
            coverage=ModelCoverage("t", ("x",), "y", predicate_sql="x > 5"),
            formula="y ~ linear(x)",
            fit=fit,
            quality=judge_fit(fit, y=y, inputs=inputs),
            accepted=True,
        )
        store.add(partial)
        assert not store.candidates("t", "y")
        assert store.candidates("t", "y", require_whole_table=False)

    def test_mark_table_stale(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        stale = store.mark_table_stale("t")
        assert model in stale
        assert model.status == "stale"
        assert not store.candidates("t", "y")
        store.reactivate(model.model_id)
        assert store.candidates("t", "y")

    def test_retire_and_remove(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        store.retire_model(model.model_id)
        assert not model.is_usable
        store.remove(model.model_id)
        assert len(store) == 0

    def test_total_stored_bytes_positive(self):
        store = ModelStore()
        store.add(_make_captured(0.1))
        assert store.total_stored_bytes() > 0

    def test_describe_lists_models(self):
        store = ModelStore()
        store.add(_make_captured(0.1))
        assert "model#" in store.describe()


class TestStaleDeprioritizationAndSupersede:
    """The streaming maintenance loop's store APIs (stale serving, supersede)."""

    def test_include_stale_admits_stale_models(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        store.mark_table_stale("t")
        assert not store.candidates("t", "y")
        assert [m.model_id for m in store.candidates("t", "y", include_stale=True)] == [model.model_id]
        assert store.has_model_for("t", "y", include_stale=True)
        assert not store.has_model_for("t", "y")

    def test_stale_deprioritized_behind_active(self):
        store = ModelStore()
        # The stale model fits better, but active wins the default ranking.
        stale_better = store.add(_make_captured(0.05, model_id_seed=1))
        stale_better.mark_stale()
        active_worse = store.add(_make_captured(5.0, model_id_seed=2))
        best = store.best_model("t", "y", include_stale=True)
        assert best.model_id == active_worse.model_id

    def test_stale_only_population_still_serves(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        model.mark_stale()
        assert store.best_model("t", "y", include_stale=True).model_id == model.model_id
        with pytest.raises(ModelNotFoundError):
            store.best_model("t", "y")

    def test_supersede_links_lineage(self):
        store = ModelStore()
        old = store.add(_make_captured(0.1, model_id_seed=1))
        new = store.add(_make_captured(0.1, model_id_seed=2))
        returned = store.supersede(old.model_id, new.model_id)
        assert returned is old
        assert old.status == "superseded"
        assert not old.is_servable  # unlike stale, superseded is out for good
        assert old.metadata["superseded_by"] == new.model_id
        assert new.metadata["supersedes"] == [old.model_id]
        assert [m.model_id for m in store.candidates("t", "y", include_stale=True)] == [new.model_id]

    def test_supersede_self_rejected(self):
        store = ModelStore()
        model = store.add(_make_captured(0.1))
        with pytest.raises(HarvestError):
            store.supersede(model.model_id, model.model_id)
        with pytest.raises(ModelNotFoundError):
            store.supersede(model.model_id, 999)

    def test_best_model_for_table_prefers_whole_table_coverage(self):
        store = ModelStore()
        fit, inputs, y = _make_fit(0.01, seed=3)
        partial = CapturedModel(
            coverage=ModelCoverage("t", ("x",), "y", predicate_sql="x >= 5"),
            formula="y ~ linear(x)",
            fit=fit,
            quality=judge_fit(fit, y=y, inputs=inputs),
            accepted=True,
        )
        store.add(partial)
        whole = store.add(_make_captured(5.0, model_id_seed=4))  # worse fit, full coverage
        # Table-level consumers (compression, zero-IO scans) need all rows:
        # the whole-table model wins even against a better-fitting segment.
        assert store.best_model_for_table("t").model_id == whole.model_id
        store.remove(whole.model_id)
        assert store.best_model_for_table("t").model_id == partial.model_id

    def test_servable_property_matrix(self):
        model = _make_captured(0.1)
        assert model.is_servable and model.is_usable
        model.mark_stale()
        assert model.is_servable and not model.is_usable
        model.retire()
        assert not model.is_servable


class TestCapturedModel:
    def test_parameter_table_single_model(self):
        model = _make_captured(0.1)
        table = model.parameter_table()
        assert table.num_rows == 1
        assert "residual_se" in table.schema.names

    def test_predict_ungrouped(self):
        model = _make_captured(0.01)
        value = model.predict({"x": 2.0})[0]
        assert value == pytest.approx(5.0, rel=0.05)

    def test_grouped_model_requires_key(self, lofar_model):
        with pytest.raises(ModelNotFoundError):
            lofar_model.predict({"frequency": 0.15})

    def test_grouped_model_predicts_per_group(self, lofar_model, lofar_dataset):
        truth = lofar_dataset.truth_for(1)
        predicted = lofar_model.predict({"frequency": 0.15}, group_key=(1,))[0]
        assert predicted == pytest.approx(truth.p * 0.15**truth.alpha, rel=0.2)

    def test_unknown_group_raises(self, lofar_model):
        with pytest.raises(ModelNotFoundError):
            lofar_model.result_for_group((10_000_000,))

    def test_describe_mentions_family(self, lofar_model):
        assert "powerlaw" in lofar_model.describe()

    def test_stored_bytes_scale_with_groups(self, lofar_model):
        single = _make_captured(0.1)
        assert lofar_model.stored_byte_size() > single.stored_byte_size()
