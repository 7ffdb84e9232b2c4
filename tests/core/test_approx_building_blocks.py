"""Tests for the approximate-query building blocks: enumeration, legality,
point answers, selections, analytic aggregates, error bounds."""

import numpy as np
import pytest

from repro.core.approx.enumeration import build_enumeration_plan, generate_virtual_table
from repro.core.approx.error_bounds import ErrorEstimate, combine_independent
from repro.core.approx.legal import BloomFilter, LegalCombinationFilter
from repro.errors import EnumerationError

from tests.conftest import EXACT, STRICT


class TestEnumeration:
    def test_plan_uses_group_keys_and_enumerable_domain(self, lofar_db, lofar_model):
        stats = lofar_db.database.stats("measurements")
        plan = build_enumeration_plan(lofar_model, stats)
        assert len(plan.group_keys) > 0
        assert plan.input_domains["frequency"] == [0.12, 0.15, 0.16, 0.18]
        assert plan.num_rows == len(plan.group_keys) * 4

    def test_pinned_values_override_domain(self, lofar_db, lofar_model):
        stats = lofar_db.database.stats("measurements")
        plan = build_enumeration_plan(lofar_model, stats, pinned_values={"frequency": [0.15]})
        assert plan.input_domains["frequency"] == [0.15]

    def test_pinned_group_key_restricts_groups(self, lofar_db, lofar_model):
        stats = lofar_db.database.stats("measurements")
        plan = build_enumeration_plan(lofar_model, stats, pinned_values={"source": [1, 2]})
        assert len(plan.group_keys) == 2

    def test_non_enumerable_input_raises(self):
        # A continuous input with more distinct values than the enumerability
        # limit cannot be regenerated without reading the data (§4.2).
        from repro import LawsDatabase

        rng = np.random.default_rng(0)
        n = 5000
        x = rng.uniform(0.0, 1.0, n)
        db = LawsDatabase()
        db.load_dict("wide", {"x": x, "y": 2.0 * x + 1.0})
        report = db.fit("wide", "y ~ linear(x)")
        assert report.accepted
        stats = db.database.stats("wide")
        with pytest.raises(EnumerationError):
            build_enumeration_plan(report.model, stats)

    def test_max_rows_guard(self, lofar_db, lofar_model):
        stats = lofar_db.database.stats("measurements")
        with pytest.raises(EnumerationError):
            build_enumeration_plan(lofar_model, stats, max_rows=10)

    def test_virtual_table_shape_and_values(self, lofar_db, lofar_model, lofar_dataset):
        stats = lofar_db.database.stats("measurements")
        plan = build_enumeration_plan(lofar_model, stats, pinned_values={"source": [1]})
        virtual = generate_virtual_table(lofar_model, plan, include_error_column=True)
        assert virtual.schema.names == ["source", "frequency", "intensity", "intensity_error"]
        assert virtual.num_rows == 4
        truth = lofar_dataset.truth_for(1)
        predicted = dict(zip(virtual.column("frequency").to_pylist(), virtual.column("intensity").to_pylist()))
        assert predicted[0.15] == pytest.approx(truth.p * 0.15**truth.alpha, rel=0.2)


class TestBloomAndLegality:
    def test_bloom_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500, false_positive_rate=0.01)
        items = [(i, i * 0.5) for i in range(500)]
        bloom.add_many(items)
        assert all(item in bloom for item in items)

    def test_bloom_false_positive_rate_reasonable(self):
        bloom = BloomFilter(expected_items=1000, false_positive_rate=0.01)
        bloom.add_many(range(1000))
        false_positives = sum(1 for i in range(10_000, 20_000) if i in bloom)
        assert false_positives / 10_000 < 0.05

    def test_bloom_byte_size_much_smaller_than_items(self):
        bloom = BloomFilter(expected_items=10_000, false_positive_rate=0.01)
        assert bloom.byte_size() < 10_000 * 8

    def test_bloom_invalid_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, false_positive_rate=1.5)

    def test_legal_filter_keeps_observed_combinations(self, lofar_db, lofar_model):
        table = lofar_db.table("measurements")
        legal = LegalCombinationFilter.from_table(table, ("source", "frequency"), round_decimals=3)
        stats = lofar_db.database.stats("measurements")
        plan = build_enumeration_plan(lofar_model, stats, pinned_values={"source": [1]})
        virtual = generate_virtual_table(lofar_model, plan)
        filtered = legal.filter_table(virtual)
        # Source 1 was observed at least once, so some rows survive; none are invented groups.
        assert 0 < filtered.num_rows <= virtual.num_rows

    def test_legal_filter_removes_unobserved_combination(self):
        from repro.db.table import Table

        observed = Table.from_dict("t", {"g": [1, 1, 2], "x": [0.1, 0.2, 0.1]})
        legal = LegalCombinationFilter.from_table(observed, ("g", "x"))
        generated = Table.from_dict("t", {"g": [1, 1, 2, 2], "x": [0.1, 0.2, 0.1, 0.2]})
        filtered = legal.filter_table(generated)
        assert filtered.num_rows == 3
        assert not legal.is_legal((2, 0.2))

    def test_legal_filter_requires_key_columns(self):
        with pytest.raises(ValueError):
            LegalCombinationFilter([])


class TestPointAnswers:
    def test_point_answer_matches_truth(self, lofar_db, lofar_dataset):
        truth = lofar_dataset.truth_for(7)
        answer = lofar_db.query(
            "SELECT intensity FROM measurements WHERE source = 7 AND frequency = 0.16", STRICT
        ).approx
        assert answer.route == "point"
        assert answer.scalar() == pytest.approx(truth.p * 0.16**truth.alpha, rel=0.2)
        estimate = answer.error_estimate("intensity")
        assert estimate.standard_error > 0
        assert estimate.lower < answer.scalar() < estimate.upper

    def test_ungrouped_model_point(self, tpcds_db):
        answer = tpcds_db.query(
            "SELECT sales_price FROM store_sales WHERE list_price = 100.0", STRICT
        ).approx
        assert answer.route == "point"
        assert answer.scalar() > 0


class TestSelectionAnswers:
    def test_paper_second_query_shape(self, lofar_db):
        threshold = 0.3
        answer = lofar_db.query(
            f"SELECT source, intensity FROM measurements WHERE frequency = 0.15 AND intensity > {threshold}",
            STRICT,
        ).approx
        assert answer.route == "virtual-table"
        assert answer.table.schema.names == ["source", "intensity"]
        assert all(value > threshold for value in answer.table.column("intensity").to_pylist())
        assert answer.virtual_rows_generated >= answer.table.num_rows


class TestAnalyticAggregates:
    def _model_and_input(self, tpcds_db):
        model = tpcds_db.best_model("store_sales", "sales_price")
        return model, tpcds_db.database.stats("store_sales").columns["list_price"]

    def test_min_max_at_endpoints(self, tpcds_db):
        model, column = self._model_and_input(tpcds_db)
        sql = "SELECT min(sales_price) AS lo, max(sales_price) AS hi FROM store_sales"
        answer = tpcds_db.query(sql, STRICT).approx
        assert answer.route == "analytic-aggregate"
        low, high = answer.table.row(0)
        exact = tpcds_db.query(sql, EXACT).query_result.table.row(0)
        assert low == pytest.approx(exact[0], rel=0.25)
        assert high == pytest.approx(exact[1], rel=0.25)
        # The extremes of a linear law sit at the ends of its input's range.
        ends = model.fit.predict({"list_price": np.array([column.min_value, column.max_value])})
        assert (low, high) == (float(np.min(ends)), float(np.max(ends)))

    def test_avg_uses_linearity_with_means(self, tpcds_db):
        model, column = self._model_and_input(tpcds_db)
        sql = "SELECT avg(sales_price) FROM store_sales"
        answer = tpcds_db.query(sql, STRICT).approx
        assert answer.route == "analytic-aggregate"
        exact = tpcds_db.query(sql, EXACT).query_result.scalar()
        assert answer.scalar() == pytest.approx(exact, rel=0.02)
        # By linearity of expectation: the law evaluated at the input's mean.
        assert answer.scalar() == float(model.fit.predict({"list_price": np.array([column.mean])})[0])

    def test_sum_scales_average(self, tpcds_db):
        sql = "SELECT sum(sales_price) FROM store_sales"
        answer = tpcds_db.query(sql, STRICT).approx
        assert answer.route == "analytic-aggregate"
        exact = tpcds_db.query(sql, EXACT).query_result.scalar()
        assert answer.scalar() == pytest.approx(exact, rel=0.02)


class TestErrorBounds:
    def test_combine_independent(self):
        assert combine_independent([3.0, 4.0]) == pytest.approx(5.0)

    def test_error_estimate_interval(self):
        estimate = ErrorEstimate(value=10.0, standard_error=1.0)
        assert estimate.lower == pytest.approx(10.0 - 1.96)
        assert estimate.upper == pytest.approx(10.0 + 1.96)
        assert estimate.relative_error == pytest.approx(0.1)
        assert "±" in str(estimate)

    def test_zero_value_relative_error(self):
        assert ErrorEstimate(0.0, 1.0).relative_error == float("inf")
        assert ErrorEstimate(0.0, 0.0).relative_error == 0.0
