"""Tests for the model harvester and the strawman interception path."""

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.quality import QualityPolicy
from repro.datasets import lofar
from repro.db.udf import FitInvocation
from repro.errors import HarvestError


@pytest.fixture()
def fresh_db(lofar_dataset):
    db = LawsDatabase()
    db.register_table(lofar_dataset.to_table("measurements"))
    return db


class TestHarvester:
    def test_fit_and_capture_grouped(self, fresh_db):
        report = fresh_db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        assert report.accepted
        assert report.model.is_grouped
        assert report.model.group_columns == ("source",)
        assert len(fresh_db.captured_models("measurements")) == 1

    def test_rejected_model_still_stored(self, fresh_db):
        # A constant model of the intensity explains almost nothing.
        report = fresh_db.fit("measurements", "intensity ~ constant(frequency)")
        assert not report.accepted
        stored = fresh_db.captured_models("measurements")
        assert any(not m.accepted for m in stored)

    def test_quality_gate_configurable(self, lofar_dataset):
        lenient = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.0))
        lenient.register_table(lofar_dataset.to_table("measurements"))
        report = lenient.fit("measurements", "intensity ~ constant(frequency)")
        assert report.accepted

    def test_unknown_column_raises(self, fresh_db):
        with pytest.raises(HarvestError):
            fresh_db.fit("measurements", "intensity ~ powerlaw(wavelength)")

    def test_partial_fit_records_predicate(self, fresh_db):
        report = fresh_db.fit(
            "measurements",
            "intensity ~ powerlaw(frequency)",
            group_by="source",
            predicate_sql="frequency > 0.13",
        )
        assert report.model.coverage.predicate_sql == "frequency > 0.13"
        assert not report.model.coverage.covers_whole_table

    def test_report_exposes_parameter_table(self, fresh_db):
        report = fresh_db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        table = report.parameter_table()
        assert {"p", "alpha", "residual_se"} <= set(table.schema.names)
        assert report.summary()

    def test_fitted_row_count_recorded(self, fresh_db):
        report = fresh_db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        assert report.model.fitted_row_count == fresh_db.table("measurements").num_rows

    def test_udf_fit_listener_captures(self, fresh_db):
        invocation = FitInvocation(
            table_name="measurements",
            input_columns=["frequency"],
            output_column="intensity",
            model_name="powerlaw",
            group_by=["source"],
        )
        fresh_db.database.udfs.record_fit(invocation)
        assert len(fresh_db.captured_models("measurements")) == 1

    def test_capture_invocation_explicit(self, fresh_db):
        invocation = FitInvocation(
            table_name="measurements",
            input_columns=["frequency"],
            output_column="intensity",
            model_name="powerlaw",
            group_by=["source"],
        )
        report = fresh_db.harvester.capture_invocation(invocation)
        assert report.model.formula == "intensity ~ powerlaw(frequency)"

    def test_robust_fit_option(self, fresh_db):
        report = fresh_db.fit("measurements", "intensity ~ linear(frequency)", robust=True)
        assert report.model.metadata["robust"] is True


class TestStrawman:
    def test_columns_and_len(self, lofar_db, lofar_dataset):
        frame = lofar_db.strawman("measurements")
        assert frame.columns == ["source", "frequency", "intensity"]
        assert len(frame) == lofar_dataset.num_rows

    def test_column_access_returns_numpy(self, lofar_db):
        frame = lofar_db.strawman("measurements")
        values = frame["intensity"]
        assert isinstance(values, np.ndarray)

    def test_missing_column_keyerror(self, lofar_db):
        with pytest.raises(KeyError):
            lofar_db.strawman("measurements")["nope"]

    def test_unknown_table_fails_fast(self, lofar_db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            lofar_db.strawman("missing_table")

    def test_summary_statistics(self, lofar_db):
        summary = lofar_db.strawman("measurements").summary()
        assert summary["frequency"]["distinct"] == 4
        assert summary["intensity"]["mean"] > 0

    def test_fit_through_strawman_captures(self, lofar_dataset):
        db = LawsDatabase()
        db.register_table(lofar_dataset.to_table("measurements"))
        frame = db.strawman("measurements")
        report = frame.fit("intensity ~ powerlaw(frequency)", group_by="source")
        assert report.accepted
        assert db.models.has_model_for("measurements", "intensity")

    def test_filtered_strawman_fits_partial_model(self, lofar_dataset):
        db = LawsDatabase()
        db.register_table(lofar_dataset.to_table("measurements"))
        subset = db.strawman("measurements").filter("source <= 20")
        report = subset.fit("intensity ~ powerlaw(frequency)", group_by="source")
        assert report.model.coverage.predicate_sql == "source <= 20"
        assert report.model.fit.num_groups <= 20

    def test_filter_composes_predicates(self, lofar_db):
        frame = lofar_db.strawman("measurements").filter("source <= 10").filter("frequency > 0.13")
        assert "AND" in frame.predicate
        assert len(frame) < len(lofar_db.strawman("measurements"))

    def test_bad_predicate_raises_harvest_error(self, lofar_db):
        frame = lofar_db.strawman("measurements", predicate_sql="nonsense >")
        with pytest.raises(HarvestError):
            frame.to_table()

    def test_head(self, lofar_db):
        assert lofar_db.strawman("measurements").head(5).num_rows == 5
