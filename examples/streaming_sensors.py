"""Streaming sensors: online model maintenance across a regime change.

Run from the repo root with::

    PYTHONPATH=src python examples/streaming_sensors.py

A fleet of temperature sensors streams readings into the database.  Halfway
through, an HVAC failure shifts every sensor by several degrees — a regime
change.  The residual drift detector notices, the multiscale change-point
test localises the break, and the maintenance tick harvests fresh models
(one per regime segment plus a whole-table replacement) so approximate
queries keep answering accurately — the paper's "autonomous and proactive
harvesting" under continuous ingestion.
"""

from __future__ import annotations

import numpy as np

from repro import AccuracyContract, LawsDatabase

NUM_SENSORS = 6
HOURS_PER_REGIME = 240
NOISE_STD = 0.15
SHIFT_DEGREES = 9.0
SQL = "SELECT avg(temperature) AS fleet_mean FROM sensor_feed"
#: Serve from the captured models (exact fallback allowed), no audit sampling.
APPROX = AccuracyContract(mode="approx", verify_fraction=0.0)


def reading(sensor: int, hour: float, shifted: bool, rng: np.random.Generator) -> float:
    base = 12.0 + sensor + 0.02 * hour
    if shifted:
        base += SHIFT_DEGREES
    return base + float(rng.normal(0.0, NOISE_STD))


def main() -> None:
    rng = np.random.default_rng(23)
    db = LawsDatabase(ingest_batch_size=NUM_SENSORS * 40)

    # Bootstrap: the first regime is already stored; harvest one model per sensor.
    data = {"sensor": [], "hour": [], "temperature": []}
    for hour in range(HOURS_PER_REGIME):
        for sensor in range(1, NUM_SENSORS + 1):
            data["sensor"].append(sensor)
            data["hour"].append(float(hour))
            data["temperature"].append(reading(sensor, hour, shifted=False, rng=rng))
    db.load_dict("sensor_feed", data)
    report = db.fit("sensor_feed", "temperature ~ linear(hour)", group_by="sensor")
    print(f"Bootstrapped {db.table('sensor_feed').num_rows} readings from "
          f"{NUM_SENSORS} sensors; harvested per-sensor model "
          f"(R^2 = {report.r_squared:.3f}, accepted = {report.accepted})")

    target = db.watch("sensor_feed", "temperature", order_column="hour")
    print(f"Watching sensor_feed.temperature (drift threshold "
          f"{target.detector.threshold:.3f} C RMS residual)\n")

    # Stream the second regime: the HVAC failure hits at hour HOURS_PER_REGIME.
    for hour in range(HOURS_PER_REGIME, 2 * HOURS_PER_REGIME):
        rows = [
            (sensor, float(hour), reading(sensor, hour, shifted=True, rng=rng))
            for sensor in range(1, NUM_SENSORS + 1)
        ]
        for batch in db.ingest("sensor_feed", rows):
            verdict = target.last_verdict
            print(f"  batch rows [{batch.start_row}, {batch.end_row}): {verdict.describe()}")
    db.flush_ingest()

    # Before maintenance: the stale pre-failure model is still serving (deprioritized,
    # not hidden) and its full-range answer is off by the unmodelled shift.
    exact = db.query(SQL, AccuracyContract(mode="exact")).table.row(0)[0]
    stale = db.query(SQL, APPROX).approx
    print(f"\nBefore maintain(): fleet mean approx {stale.scalar():.2f} C "
          f"vs exact {exact:.2f} C (stale model#{stale.used_model_ids[0]})")

    maintenance = db.maintain()
    print("\nMaintenance tick:")
    for action in maintenance.actions:
        print(f"  {action.describe()}")

    print("\nModel store after maintenance:")
    for model in db.captured_models("sensor_feed"):
        predicate = model.coverage.predicate_sql or "whole table"
        print(f"  {model.describe()}  [{predicate}]")

    fresh = db.query(SQL, APPROX).approx
    estimate = fresh.error_estimate("fleet_mean")
    print(f"\nAfter maintain(): fleet mean approx {fresh.scalar():.2f} C vs exact {exact:.2f} C "
          f"(+/- {estimate.standard_error:.3f} reported, model#{fresh.used_model_ids[0]})")
    print(f"Absolute error shrank from {abs(stale.scalar() - exact):.2f} C "
          f"to {abs(fresh.scalar() - exact):.3f} C.")
    print(f"\nIngest accounting: {db.ingest_stats('sensor_feed').summary()}")


if __name__ == "__main__":
    main()
