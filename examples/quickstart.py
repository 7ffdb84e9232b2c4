"""Quickstart: harvest a model and answer queries from it.

Run with::

    python examples/quickstart.py

The script loads a small synthetic LOFAR-style table, fits the paper's power
law ``I = p * nu**alpha`` per source through a strawman frame (so the fit is
intercepted and captured by the database), and then answers the paper's two
example queries from the captured model alone — no data pages read.
"""

from __future__ import annotations

from repro import AccuracyContract, LawsDatabase
from repro.datasets import lofar


#: Serve from the captured models (exact fallback allowed), no audit sampling.
APPROX = AccuracyContract(mode="approx", verify_fraction=0.0)


def main() -> None:
    # 1. Load data into the model-harvesting database.
    dataset = lofar.generate(num_sources=500, observations_per_source=40, seed=1)
    db = LawsDatabase()
    db.register_table(dataset.to_table("measurements"))
    print(f"Loaded {dataset.num_rows} measurements of {dataset.num_sources} sources "
          f"({db.table('measurements').byte_size() / 1e6:.1f} MB nominal).")

    # 2. Fit the user's model through the strawman frame (Figure 2, steps 1-3).
    frame = db.strawman("measurements")
    report = frame.fit("intensity ~ powerlaw(frequency)", group_by="source")
    print(f"Fitted power law per source: R^2 = {report.r_squared:.3f}, "
          f"residual SE = {report.residual_standard_error:.4f}, accepted = {report.accepted}")
    print("Stored parameter table (first rows):")
    print(report.parameter_table().to_text(limit=5))

    # 3. The paper's point query, answered from the model with error bounds.
    answer = db.query(
        "SELECT intensity FROM measurements WHERE source = 42 AND frequency = 0.15", APPROX
    ).approx
    estimate = answer.error_estimate("intensity")
    print(f"\nPoint query -> {estimate} (route: {answer.route}, pages read: {answer.io['pages_read']:.0f})")

    # 4. The paper's selection query: which sources are bright at 0.15 GHz?
    selection = db.query(
        "SELECT source, intensity FROM measurements WHERE frequency = 0.15 AND intensity > 0.5", APPROX
    ).approx
    print(f"Selection query -> {selection.table.num_rows} bright sources "
          f"(generated {selection.virtual_rows_generated} virtual rows, pages read: "
          f"{selection.io['pages_read']:.0f})")

    # 5. Have the planner audit an aggregate against exact execution
    #    (verify_fraction=1.0 forces the audit it otherwise only samples).
    audited = db.query(
        "SELECT avg(intensity) AS mean_flux FROM measurements WHERE frequency = 0.18",
        AccuracyContract(mode="approx", verify_fraction=1.0),
    )
    print(f"\navg(intensity) at 0.18 GHz: model = {audited.scalar():.4f} "
          f"(observed relative error {audited.observed_relative_error:.2%} against exact execution; "
          f"the model route read {audited.approx.io['pages_read']:.0f} pages)")

    # 6. Storage: the captured model is a few percent of the raw table (Table 1).
    compressed = db.compress_table("measurements")
    print(f"\nSemantic compression: {compressed.stats.summary()}")


if __name__ == "__main__":
    main()
