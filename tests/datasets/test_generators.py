"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import lofar, sensors, timeseries, tpcds_lite

from tests.conftest import EXACT


class TestLofarGenerator:
    def test_schema_matches_paper(self, lofar_dataset):
        table = lofar_dataset.to_table()
        assert table.schema.names == ["source", "frequency", "intensity"]

    def test_row_count(self, lofar_dataset):
        expected = lofar_dataset.config.num_sources * lofar_dataset.config.observations_per_source
        assert lofar_dataset.num_rows == expected

    def test_frequencies_enumerable_four_bands(self, lofar_dataset):
        distinct = set(np.round(lofar_dataset.frequencies, 6))
        assert distinct == {0.12, 0.15, 0.16, 0.18}

    def test_reproducible_with_seed(self):
        a = lofar.generate(num_sources=10, observations_per_source=5, seed=3)
        b = lofar.generate(num_sources=10, observations_per_source=5, seed=3)
        assert np.array_equal(a.intensities, b.intensities, equal_nan=True)

    def test_different_seeds_differ(self):
        a = lofar.generate(num_sources=10, observations_per_source=5, seed=3)
        b = lofar.generate(num_sources=10, observations_per_source=5, seed=4)
        assert not np.array_equal(a.intensities, b.intensities, equal_nan=True)

    def test_truths_follow_power_law(self, lofar_dataset):
        # Spot-check a normal source: mean observed intensity per band tracks p*nu^alpha.
        normal = next(t for t in lofar_dataset.truths.values() if not t.is_anomalous)
        mask = lofar_dataset.source_ids == normal.source_id
        freqs = lofar_dataset.frequencies[mask]
        intensities = lofar_dataset.intensities[mask]
        finite = np.isfinite(intensities)
        for band in (0.12, 0.18):
            in_band = np.isclose(freqs, band) & finite
            if in_band.sum() >= 3:
                observed = float(np.mean(intensities[in_band]))
                assert observed == pytest.approx(normal.p * band**normal.alpha, rel=0.15)

    def test_anomaly_fraction_respected(self):
        dataset = lofar.generate(num_sources=200, observations_per_source=5, seed=1, anomaly_fraction=0.1)
        assert len(dataset.anomalous_sources()) == 20

    def test_missing_values_injected(self):
        dataset = lofar.generate(num_sources=50, observations_per_source=40, seed=2, missing_fraction=0.05)
        assert np.isnan(dataset.intensities).sum() > 0

    def test_paper_scale_config(self):
        config = lofar.paper_scale_config()
        assert config.num_sources == lofar.PAPER_NUM_SOURCES
        assert config.num_sources * config.observations_per_source == pytest.approx(
            lofar.PAPER_NUM_MEASUREMENTS, rel=0.02
        )

    def test_scaled_config_clamps(self):
        config = lofar.scaled_config(scale=0.001)
        assert config.num_sources >= 10
        full = lofar.scaled_config(scale=1.0)
        assert full.num_sources == lofar.PAPER_NUM_SOURCES

    def test_byte_size_about_24_bytes_per_row(self, lofar_dataset):
        assert lofar_dataset.byte_size() == lofar_dataset.num_rows * 24


class TestTpcdsLite:
    def test_tables_and_keys(self, tpcds_dataset):
        assert tpcds_dataset.store_sales.num_rows == (
            tpcds_dataset.config.num_days
            * tpcds_dataset.config.num_stores
            * tpcds_dataset.config.sales_per_day_per_store
        )
        assert tpcds_dataset.item.num_rows == tpcds_dataset.config.num_items
        item_ids = set(tpcds_dataset.store_sales.column("item_id").to_pylist())
        assert item_ids <= set(tpcds_dataset.item.column("item_id").to_pylist())

    def test_planted_discount_law(self, tpcds_dataset):
        sales = tpcds_dataset.store_sales
        ratio = np.array(sales.column("sales_price").to_pylist()) / np.array(sales.column("list_price").to_pylist())
        assert float(np.mean(ratio)) == pytest.approx(tpcds_dataset.discount, rel=0.02)

    def test_planted_markup_per_category(self, tpcds_dataset):
        sales = tpcds_dataset.store_sales
        items = tpcds_dataset.item
        category_by_item = dict(zip(items.column("item_id").to_pylist(), items.column("category_id").to_pylist()))
        item_ids = sales.column("item_id").to_pylist()
        list_price = np.array(sales.column("list_price").to_pylist())
        wholesale = np.array(sales.column("wholesale_cost").to_pylist())
        for category, markup in list(tpcds_dataset.category_markup.items())[:3]:
            mask = np.array([category_by_item[i] == category for i in item_ids])
            if mask.sum() > 50:
                observed = float(np.mean(list_price[mask] / wholesale[mask]))
                assert observed == pytest.approx(markup, rel=0.02)

    def test_load_into_registers_tables(self, tpcds_db):
        assert set(tpcds_db.table_names()) >= {"store_sales", "item", "store", "date_dim"}

    def test_benchmark_queries_run(self, tpcds_db):
        for name, sql in tpcds_lite.BENCHMARK_QUERIES:
            result = tpcds_db.query(sql, EXACT).query_result
            assert result.table.num_rows >= 1, name

    def test_reproducible(self):
        a = tpcds_lite.generate(num_items=10, num_stores=2, num_days=10, seed=3)
        b = tpcds_lite.generate(num_items=10, num_stores=2, num_days=10, seed=3)
        assert a.store_sales.to_pydict() == b.store_sales.to_pydict()


class TestSensors:
    def test_schema_and_rows(self, sensor_dataset):
        table = sensor_dataset.to_table()
        assert table.schema.names == ["sensor", "hour", "temperature"]
        assert table.num_rows <= sensor_dataset.config.num_sensors * sensor_dataset.config.num_hours

    def test_dropouts_remove_rows(self):
        full = sensors.generate(num_sensors=5, num_hours=100, dropout_fraction=0.0, seed=1)
        sparse = sensors.generate(num_sensors=5, num_hours=100, dropout_fraction=0.3, seed=1)
        assert sparse.to_table().num_rows < full.to_table().num_rows

    def test_daily_cycle_present(self, sensor_dataset):
        table = sensor_dataset.to_table()
        hours = np.array(table.column("hour").to_pylist())
        temps = np.array(table.column("temperature").to_pylist())
        afternoon = temps[(hours % 24 == 15)]
        night = temps[(hours % 24 == 3)]
        assert float(np.mean(afternoon)) > float(np.mean(night))

    def test_truths_recorded(self, sensor_dataset):
        assert len(sensor_dataset.truths) == sensor_dataset.config.num_sensors


class TestTimeseries:
    @pytest.mark.parametrize("law,params", [
        ("linear", (1.0, 2.0)),
        ("quadratic", (1.0, 0.0, 0.5)),
        ("exponential", (2.0, 0.3)),
        ("powerlaw", (1.0, -0.5)),
        ("seasonal", (2.0, 5.0, 1.0)),
    ])
    def test_laws_generate(self, law, params):
        spec = timeseries.SeriesSpec(law=law, params=params, n_points=100, x_min=0.1, noise_std=0.0, seed=1)
        x, y = timeseries.generate_series(spec)
        assert len(x) == len(y) == 100
        assert np.all(np.isfinite(y))

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            timeseries.generate_series(timeseries.SeriesSpec(law="cubic_spline", params=()))

    def test_series_table(self):
        spec = timeseries.SeriesSpec(law="linear", params=(0.0, 1.0), n_points=50)
        table = timeseries.series_table(spec, x_name="t", y_name="value")
        assert table.schema.names == ["t", "value"]
        assert table.num_rows == 50

    def test_noise_zero_is_exact(self):
        spec = timeseries.SeriesSpec(law="linear", params=(1.0, 2.0), n_points=50, noise_std=0.0)
        x, y = timeseries.generate_series(spec)
        assert np.allclose(y, 1.0 + 2.0 * x)
