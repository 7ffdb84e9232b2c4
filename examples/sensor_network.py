"""Sensor-network scenario: the MauveDB workload under model harvesting.

Run with::

    python examples/sensor_network.py

A fleet of temperature sensors samples a smooth daily curve with noise and
dropouts.  The example harvests a per-sensor sinusoidal model, compares it
with a MauveDB-style gridded view and a FunctionDB-style piecewise table,
and uses the captured model for gap filling and compression.
"""

from __future__ import annotations

import numpy as np

from repro import AccuracyContract, LawsDatabase
from repro.baselines import functiondb, mauvedb
from repro.core.quality import QualityPolicy
from repro.datasets import sensors


def main() -> None:
    dataset = sensors.generate(num_sensors=24, num_hours=24 * 14, dropout_fraction=0.05, seed=4)
    db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.7))
    table = dataset.to_table()
    db.register_table(table)
    print(f"{table.num_rows} readings from {dataset.config.num_sensors} sensors "
          f"({table.byte_size() / 1e3:.0f} KB nominal)")

    # Harvest one sinusoid per sensor (daily temperature cycle).
    report = db.strawman("sensor_readings").fit("temperature ~ sinusoid(hour)", group_by="sensor")
    print(f"Harvested sinusoid per sensor: R^2 = {report.r_squared:.3f}, accepted = {report.accepted}")

    # Gap filling: predict a reading that was dropped.
    model = report.model
    sensor_id = 3
    fit = model.result_for_group((sensor_id,))
    predicted = fit.predict({"hour": np.array([100.0])})[0]
    offset, amplitude = dataset.truths[sensor_id]
    truth = dataset.config.base_temperature + offset + amplitude * np.sin(2 * np.pi * (100.0 - 9.0) / 24.0)
    print(f"Gap fill, sensor {sensor_id} @ hour 100: model {predicted:.2f} C vs generating curve {truth:.2f} C")

    # Compare storage footprints against the related-work representations.
    captured_bytes = model.stored_byte_size()
    view = mauvedb.build_regression_view(table, "hour", "temperature", group_column="sensor", grid_points=48, degree=3)
    function_table = functiondb.build_function_table(table, "hour", "temperature", group_column="sensor", num_segments=14, degree=2)
    print("\nStorage footprint of each representation:")
    print(f"  raw readings                 : {table.byte_size():>9} bytes")
    print(f"  captured sinusoid parameters : {captured_bytes:>9} bytes")
    print(f"  MauveDB-style gridded view   : {view.byte_size():>9} bytes")
    print(f"  FunctionDB piecewise table   : {function_table.byte_size():>9} bytes")

    compressed = db.compress_table("sensor_readings", quantisation_step=0.05)
    print(f"\nSemantic compression with 0.05 C tolerance: {compressed.stats.summary()}")

    # Approximate queries over the sensor fleet.
    sql = (
        "SELECT sensor, avg(temperature) AS mean_temp FROM sensor_readings "
        "WHERE sensor IN (1, 2, 3, 4) GROUP BY sensor ORDER BY sensor"
    )
    audited = db.query(sql, AccuracyContract(mode="approx", verify_fraction=1.0))
    exact = db.query(sql, AccuracyContract(mode="exact"))
    print(f"\nPer-sensor mean temperature, model vs exact: observed relative error "
          f"{audited.observed_relative_error:.2%} with {audited.approx.io['pages_read']:.0f} pages read "
          f"(exact scan read {exact.query_result.io['pages_read']:.0f}).")


if __name__ == "__main__":
    main()
