"""Tests for the SQL-level approximate query engine (§4.2 end to end)."""

import pytest

from repro import LawsDatabase
from repro.errors import ApproximationError

from tests.conftest import APPROX, EXACT, STRICT, compare_sql


class TestRouting:
    def test_point_route_for_paper_query_one(self, lofar_db):
        answer = lofar_db.query(
            "SELECT intensity FROM measurements WHERE source = 42 AND frequency = 0.15",
            APPROX,
        ).approx
        assert answer.route == "point"
        assert not answer.is_exact
        assert answer.io["pages_read"] == 0
        assert answer.column_errors["intensity"] > 0
        assert answer.table.num_rows == 1

    def test_virtual_table_route_for_paper_query_two(self, lofar_db):
        answer = lofar_db.query(
            "SELECT source, intensity FROM measurements WHERE frequency = 0.15 AND intensity > 0.3",
            APPROX,
        ).approx
        assert answer.route == "virtual-table"
        assert answer.io["pages_read"] == 0
        assert answer.virtual_rows_generated > 0
        assert set(answer.table.schema.names) == {"source", "intensity"}

    def test_analytic_route_for_linear_model(self, tpcds_db):
        answer = tpcds_db.query("SELECT avg(sales_price) AS m FROM store_sales", APPROX).approx
        assert answer.route == "analytic-aggregate"
        assert answer.io["pages_read"] == 0
        exact = tpcds_db.query("SELECT avg(sales_price) FROM store_sales", EXACT).query_result.scalar()
        assert answer.scalar() == pytest.approx(exact, rel=0.05)

    def test_fallback_when_no_model(self, lofar_db):
        answer = lofar_db.query("SELECT frequency FROM measurements WHERE source = 1", APPROX).approx
        # frequency is an input, not a modelled output -> exact fallback.
        assert answer.route == "exact-fallback"
        assert answer.is_exact
        assert answer.reason

    def test_fallback_disallowed_raises(self, lofar_db):
        from repro.errors import ModelNotFoundError

        with pytest.raises((ApproximationError, ModelNotFoundError)):
            lofar_db.query("SELECT frequency FROM measurements", STRICT).approx

    def test_join_query_falls_back(self, tpcds_db):
        answer = tpcds_db.query(
            "SELECT avg(s.sales_price) AS m FROM store_sales s JOIN item i ON s.item_id = i.item_id",
            APPROX,
        ).approx
        assert answer.route == "exact-fallback"

    def test_uncovered_column_falls_back(self, lofar_db):
        # net column 'frequency' is covered, but query also needs a column no model covers
        answer = lofar_db.query(
            "SELECT intensity FROM measurements WHERE source = 1 AND frequency = 0.15 AND intensity > 0",
            APPROX,
        ).approx
        # intensity appears in WHERE too, still covered -> not a fallback
        assert answer.route in ("virtual-table", "point")

    def test_exact_answer_helper(self, lofar_db):
        answer = lofar_db.query("SELECT count(*) AS n FROM measurements", EXACT)
        assert answer.is_exact
        assert answer.query_result.io["pages_read"] > 0


class TestAccuracy:
    def test_group_by_aggregate_close_to_exact(self, lofar_db):
        comparison = compare_sql(
            lofar_db,
            "SELECT source, avg(intensity) AS mean_intensity FROM measurements "
            "WHERE source IN (1, 2, 3, 4, 5) GROUP BY source ORDER BY source"
        )
        # Since the grouped route landed, GROUP BY aggregates are evaluated
        # per group instead of via virtual-table enumeration.
        assert comparison["approximate"].route == "grouped-model"
        assert comparison["route"] == "grouped-model"
        assert comparison["max_relative_error"] < 0.10
        assert comparison["approx_pages_read"] == 0
        assert comparison["exact_pages_read"] > 0
        # Every served group carries its own error estimate and provenance.
        approx = comparison["approximate"]
        assert set(approx.group_routes) == {(s,) for s in (1, 2, 3, 4, 5)}
        for source in (1, 2, 3, 4, 5):
            estimate = approx.group_error_estimate(source, "mean_intensity")
            assert estimate is not None and estimate.standard_error > 0

    def test_global_average_close(self, lofar_db):
        comparison = compare_sql(
            lofar_db,
            "SELECT avg(intensity) AS m FROM measurements WHERE frequency = 0.15"
        )
        assert comparison["max_relative_error"] < 0.10

    def test_point_query_close_to_observed_mean(self, lofar_db, lofar_dataset):
        answer = lofar_db.query(
            "SELECT intensity FROM measurements WHERE source = 5 AND frequency = 0.18",
            APPROX,
        ).approx
        exact = lofar_db.query(
            "SELECT avg(intensity) FROM measurements WHERE source = 5 AND frequency = 0.18",
            EXACT,
        ).query_result.scalar()
        assert answer.scalar() == pytest.approx(exact, rel=0.15)

    def test_count_query_over_model(self, lofar_db):
        comparison = compare_sql(
            lofar_db,
            "SELECT count(intensity) AS n FROM measurements WHERE source IN (1, 2, 3) AND frequency = 0.15"
        )
        # The model generates exactly one tuple per (source, frequency) combination,
        # while the raw data holds several observations: a COUNT over the generated
        # table would count combinations (3), not rows, so no model route serves it.
        assert comparison["route"] == "exact-fallback"
        assert comparison["approximate"].scalar() == comparison["exact"].scalar()

    def test_selection_recall_of_bright_sources(self, lofar_db, lofar_dataset):
        """Sources the model says are bright at 0.12 GHz should mostly be truly bright."""
        answer = lofar_db.query(
            "SELECT source, intensity FROM measurements WHERE frequency = 0.12 AND intensity > 0.4",
            APPROX,
        ).approx
        flagged = set(answer.table.column("source").to_pylist())
        exact = lofar_db.query(
            "SELECT source, avg(intensity) AS m FROM measurements WHERE frequency = 0.12 "
            "GROUP BY source HAVING avg(intensity) > 0.4",
            EXACT,
        ).query_result.table
        truly_bright = set(exact.column("source").to_pylist())
        if truly_bright:
            overlap = len(flagged & truly_bright) / len(truly_bright)
            assert overlap > 0.8

    def test_error_estimates_attached_to_aggregates(self, lofar_db):
        answer = lofar_db.query(
            "SELECT avg(intensity) AS m FROM measurements WHERE frequency = 0.15",
            APPROX,
        ).approx
        assert "m" in answer.column_errors
        assert answer.column_errors["m"] > 0
        estimate = answer.error_estimate("m")
        assert estimate.lower < estimate.value < estimate.upper


class TestLegalFilterIntegration:
    def test_legal_filter_prunes_unobserved_combinations(self, lofar_dataset):
        db = LawsDatabase(use_legal_filter=True)
        table = lofar_dataset.to_table("measurements")
        # Remove every observation of source 1 at 0.12 GHz so that combination is illegal.
        import numpy as np

        sources = np.array(table.column("source").to_pylist())
        freqs = np.array(table.column("frequency").to_pylist())
        keep = ~((sources == 1) & (np.isclose(freqs, 0.12)))
        db.register_table(table.filter(keep))
        db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")

        answer = db.query(
            "SELECT source, frequency, intensity FROM measurements WHERE source = 1",
            APPROX,
        ).approx
        combos = set(zip(answer.table.column("source").to_pylist(), answer.table.column("frequency").to_pylist()))
        assert (1, 0.12) not in combos
        assert len(combos) == 3
