"""Tests for semantic compression, zero-IO scans and model lifecycle."""

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.storage.semantic_compression import ModelCompressor
from repro.datasets import lofar
from repro.errors import CompressionError


class TestSemanticCompression:
    def test_lossless_roundtrip(self, lofar_db, lofar_model):
        table = lofar_db.table("measurements")
        compressor = ModelCompressor(quantisation_step=0.0)
        compressed = compressor.compress(table, lofar_model)
        assert compressor.verify_roundtrip(table, compressed)
        rebuilt = compressed.decompress()
        original = table.column("intensity").to_numpy()
        restored = rebuilt.column("intensity").to_numpy()
        valid = compressed.output_validity
        assert np.allclose(original[valid], restored[valid])

    def test_nulls_survive_roundtrip(self, lofar_db, lofar_model):
        table = lofar_db.table("measurements")
        compressed = ModelCompressor().compress(table, lofar_model)
        rebuilt = compressed.decompress()
        assert rebuilt.column("intensity").null_count == table.column("intensity").null_count

    def test_model_only_ratio_matches_paper_ballpark(self, lofar_db, lofar_model):
        """Table 1: parameters are ~5% of the raw data (ours: #sources/#rows driven)."""
        table = lofar_db.table("measurements")
        compressed = ModelCompressor().compress(table, lofar_model)
        assert compressed.stats.model_only_ratio < 0.15
        assert compressed.stats.parameter_bytes > 0

    def test_quantised_compression_smaller_and_bounded_error(self, lofar_db, lofar_model):
        table = lofar_db.table("measurements")
        step = 0.01
        lossless = ModelCompressor(0.0).compress(table, lofar_model)
        lossy = ModelCompressor(step).compress(table, lofar_model)
        assert lossy.stats.lossless_bytes < lossless.stats.lossless_bytes
        rebuilt = lossy.decompress().column("intensity").to_numpy()
        original = table.column("intensity").to_numpy()
        valid = lossy.output_validity
        assert np.max(np.abs(rebuilt[valid] - original[valid])) <= step / 2 + 1e-9

    def test_lossy_reconstruction_uses_model_only(self, lofar_db, lofar_model, lofar_dataset):
        table = lofar_db.table("measurements")
        compressed = ModelCompressor().compress(table, lofar_model)
        lossy = compressed.reconstruct_lossy()
        assert lossy.num_rows == table.num_rows
        # Lossy values follow the model, so per-source they are constant per frequency.
        truth = lofar_dataset.truth_for(1)
        sources = np.array(lossy.column("source").to_pylist())
        freqs = np.array(lossy.column("frequency").to_pylist())
        values = np.array(lossy.column("intensity").to_pylist(), dtype=float)
        mask = (sources == 1) & np.isclose(freqs, 0.15)
        if mask.any():
            assert np.allclose(values[mask], values[mask][0])
            assert values[mask][0] == pytest.approx(truth.p * 0.15**truth.alpha, rel=0.25)

    def test_wrong_table_rejected(self, lofar_db, lofar_model):
        other = lofar_db.table("measurements").rename("other")
        with pytest.raises(CompressionError):
            ModelCompressor().compress(other, lofar_model)

    def test_negative_step_rejected(self):
        with pytest.raises(CompressionError):
            ModelCompressor(quantisation_step=-1.0)

    def test_system_facade_compress(self, lofar_db):
        compressed = lofar_db.compress_table("measurements")
        assert compressed.stats.raw_bytes == lofar_db.table("measurements").byte_size()
        assert "model-only" in compressed.stats.summary()


class TestZeroIO:
    def test_model_scan_reads_no_pages(self, lofar_db):
        comparison = lofar_db.compare_scan("measurements", "intensity")
        assert comparison.model_pages_read == 0
        assert comparison.raw_pages_read > 0
        assert comparison.pages_saved == comparison.raw_pages_read
        assert comparison.io_time_saved > 0
        assert "raw scan" in comparison.summary()

    def test_model_scan_rows_are_parameter_grid(self, lofar_db, lofar_model):
        virtual = lofar_db.zero_io.model_scan(lofar_model)
        fitted_groups = int(lofar_model.fit.succeeded.sum())
        assert virtual.num_rows == fitted_groups * 4

    def test_raw_scan_charges_only_projected_columns(self, lofar_db):
        lofar_db.database.reset_io()
        lofar_db.zero_io.raw_scan("measurements", ["intensity"])
        narrow = lofar_db.database.io_snapshot()["bytes_read"]
        lofar_db.database.reset_io()
        lofar_db.zero_io.raw_scan("measurements")
        wide = lofar_db.database.io_snapshot()["bytes_read"]
        assert narrow < wide


class TestModelLifecycle:
    @pytest.fixture()
    def db(self):
        dataset = lofar.generate(num_sources=40, observations_per_source=24, seed=33, anomaly_fraction=0.0)
        db = LawsDatabase()
        db.register_table(dataset.to_table("measurements"))
        db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
        return db

    def test_insert_marks_models_stale(self, db):
        model = db.captured_models("measurements")[0]
        db.insert_rows("measurements", [(1, 0.15, 0.5)])
        assert model.status == "stale"
        assert not db.models.candidates("measurements", "intensity")

    def test_revalidate_reactivates_good_model(self, db):
        db.insert_rows("measurements", [(1, 0.15, None)])  # harmless append
        results = db.lifecycle.revalidate("measurements")
        assert any(r.still_acceptable for r in results)
        assert db.models.candidates("measurements", "intensity")

    def test_revalidate_keeps_degraded_model_stale(self, db):
        # Append garbage observations for every source: the old fit no longer explains the data.
        rng = np.random.default_rng(0)
        rows = []
        for source in range(1, 41):
            for _ in range(40):
                rows.append((source, 0.15, float(rng.uniform(0, 50.0))))
        db.insert_rows("measurements", rows)
        results = db.lifecycle.revalidate("measurements")
        assert all(not r.still_acceptable for r in results)
        assert not db.models.candidates("measurements", "intensity")

    def test_refit_if_needed_refits_after_change(self, db):
        rng = np.random.default_rng(1)
        rows = []
        for source in range(1, 41):
            for _ in range(60):
                rows.append((source, 0.15, float(rng.uniform(0, 50.0))))
        db.insert_rows("measurements", rows)
        db.lifecycle.revalidate("measurements")
        old_model = db.captured_models("measurements")[0]
        db.models.reactivate(old_model.model_id)
        serving = db.lifecycle.refit_if_needed("measurements", "intensity")
        # The data is noise now, so the per-source refit is rejected: it is
        # kept for provenance and the predecessor keeps serving.
        refits = [m for m in db.captured_models("measurements") if m.model_id > old_model.model_id]
        assert len(refits) == 1
        assert not refits[0].accepted and refits[0].group_columns == ("source",)
        assert serving is old_model and old_model.status == "active"
        assert db.best_model("measurements", "intensity") is old_model

    def test_refit_not_needed_keeps_model(self, db):
        model = db.captured_models("measurements")[0]
        db.insert_rows("measurements", [(1, 0.15, None)])
        kept = db.lifecycle.refit_if_needed("measurements", "intensity")
        assert kept.model_id == model.model_id
        assert kept.status == "active"

    def test_best_model_by_criterion_prefers_powerlaw_over_constant(self, db):
        db.fit("measurements", "intensity ~ constant(frequency)", group_by="source")
        best = db.lifecycle.best_model_by_criterion("measurements", "intensity")
        assert best.family_name == "powerlaw"
