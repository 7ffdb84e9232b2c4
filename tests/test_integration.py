"""End-to-end integration tests reproducing the paper's workflow (Figure 2).

These tests walk through the whole story on a small synthetic LOFAR dataset:
load → fit via the strawman → capture → approximate queries with error
bounds → storage optimisation → anomaly hunting → data change → re-fit.
"""

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.quality import QualityPolicy
from repro.datasets import lofar, tpcds_lite

from tests.conftest import APPROX, EXACT


class TestFigure2Workflow:
    """The five steps of the model interception workflow, end to end."""

    @pytest.fixture(scope="class")
    def setup(self):
        dataset = lofar.generate(num_sources=100, observations_per_source=36, seed=101)
        db = LawsDatabase()
        db.register_table(dataset.to_table("measurements"))
        return dataset, db

    def test_steps_1_to_5(self, setup):
        dataset, db = setup

        # (1)+(2): the user fits a model against what looks like a local dataframe.
        frame = db.strawman("measurements")
        report = frame.fit("intensity ~ powerlaw(frequency)", group_by="source")

        # (3): the database returns the goodness of fit and keeps the model.
        assert report.r_squared > 0.8
        assert db.models.has_model_for("measurements", "intensity")

        # (4)+(5): a later query is answered from the model, with error bounds.
        answer = db.query(
            "SELECT intensity FROM measurements WHERE source = 17 AND frequency = 0.16",
            APPROX,
        ).approx
        assert answer.route == "point"
        assert answer.io["pages_read"] == 0
        truth = dataset.truth_for(17)
        assert answer.scalar() == pytest.approx(truth.p * 0.16**truth.alpha, rel=0.2)
        assert answer.column_errors["intensity"] > 0

    def test_table1_shape_parameter_table_is_small(self, setup):
        dataset, db = setup
        model = db.best_model("measurements", "intensity")
        params = model.parameter_table()
        assert params.num_rows <= dataset.num_sources
        raw_bytes = db.table("measurements").byte_size()
        assert params.byte_size() < 0.15 * raw_bytes

    def test_storage_report(self, setup):
        _, db = setup
        report = db.storage_report()
        assert report["total_model_bytes"] < report["total_raw_bytes"]
        assert "measurements" in report["tables"]

    def test_describe_renders(self, setup):
        _, db = setup
        text = db.describe()
        assert "measurements" in text and "model#" in text


class TestDataGrowthStory:
    """§2: more observations per source make the model more precise, not larger."""

    def test_parameter_table_size_constant_as_data_grows(self):
        small = lofar.generate(num_sources=50, observations_per_source=10, seed=7)
        large = lofar.generate(num_sources=50, observations_per_source=60, seed=7)

        sizes = {}
        errors = {}
        for name, dataset in (("small", small), ("large", large)):
            db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.5))
            db.register_table(dataset.to_table("measurements"))
            report = db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
            sizes[name] = report.model.stored_byte_size()
            alpha_errors = []
            for record in report.model.fit.records:
                if record.result is None:
                    continue
                truth = dataset.truth_for(record.key[0])
                if truth.is_anomalous:
                    continue
                alpha_errors.append(abs(record.result.param_dict["alpha"] - truth.alpha))
            errors[name] = float(np.mean(alpha_errors))

        assert sizes["large"] == sizes["small"]          # storage does not grow
        assert errors["large"] <= errors["small"] * 1.1  # precision does not degrade


class TestTpcdsWorkflow:
    def test_benchmark_queries_approximate_vs_exact(self, tpcds_db):
        # Harvest a second law (profit is linear in price and cost) and answer a
        # benchmark-style aggregate from the models.
        tpcds_db.fit("store_sales", "net_profit ~ linear(sales_price, wholesale_cost, quantity)")
        answer = tpcds_db.query("SELECT avg(sales_price) AS m, max(sales_price) AS hi FROM store_sales", APPROX).approx
        exact = tpcds_db.query("SELECT avg(sales_price), max(sales_price) FROM store_sales", EXACT).query_result.table.row(0)
        assert answer.route == "analytic-aggregate"
        assert answer.table.row(0)[0] == pytest.approx(exact[0], rel=0.05)
        assert answer.table.row(0)[1] == pytest.approx(exact[1], rel=0.3)

    def test_models_do_not_interfere_across_tables(self, tpcds_db):
        models = tpcds_db.captured_models()
        tables = {model.table_name for model in models}
        assert "store_sales" in tables
        for model in models:
            assert model.table_name in tpcds_db.table_names()


class TestMultiModelSelection:
    def test_better_model_wins(self):
        dataset = lofar.generate(num_sources=40, observations_per_source=30, seed=55, anomaly_fraction=0.0)
        db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.0))
        db.register_table(dataset.to_table("measurements"))
        db.fit("measurements", "intensity ~ constant(frequency)", group_by="source")
        db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        best = db.best_model("measurements", "intensity")
        assert best.family_name == "powerlaw"

    def test_engine_uses_best_model(self):
        dataset = lofar.generate(num_sources=40, observations_per_source=30, seed=56, anomaly_fraction=0.0)
        db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.0))
        db.register_table(dataset.to_table("measurements"))
        db.fit("measurements", "intensity ~ constant(frequency)", group_by="source")
        db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        answer = db.query(
            "SELECT intensity FROM measurements WHERE source = 3 AND frequency = 0.12",
            APPROX,
        ).approx
        best = db.best_model("measurements", "intensity")
        assert answer.used_model_ids == [best.model_id]
