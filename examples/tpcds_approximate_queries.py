"""TPC-DS-lite: the evaluation the paper proposes in its concluding remarks.

Run with::

    python examples/tpcds_approximate_queries.py

Generates a star schema with planted regularities (category mark-ups, a
global discount, seasonal demand), harvests linear models of those laws, and
answers benchmark-style aggregate queries three ways: exactly, from the
captured models, and from a sampling baseline — reporting error and the
pages each approach reads.
"""

from __future__ import annotations

from repro import AccuracyContract, LawsDatabase
from repro.baselines import sampling
from repro.bench.reporting import relative_error
from repro.datasets import tpcds_lite

#: Serve from the captured models (exact fallback allowed), no audit sampling.
APPROX = AccuracyContract(mode="approx", verify_fraction=0.0)


def main() -> None:
    dataset = tpcds_lite.generate(num_items=150, num_stores=12, num_days=365, sales_per_day_per_store=8)
    db = LawsDatabase()
    tpcds_lite.load_into(db.database, dataset)
    sales = db.table("store_sales")
    print(f"store_sales: {sales.num_rows} rows ({sales.byte_size() / 1e6:.1f} MB nominal), "
          f"planted discount = {dataset.discount}")

    # Harvest the pricing laws the generator planted.
    for formula in (
        "sales_price ~ linear(list_price)",
        "list_price ~ linear(wholesale_cost)",
        "net_profit ~ linear(sales_price, wholesale_cost, quantity)",
    ):
        report = db.fit("store_sales", formula)
        print(f"  harvested {formula!r}: R^2 = {report.r_squared:.3f}, accepted = {report.accepted}")

    # The fitted slope of sales_price ~ list_price recovers the planted discount.
    model = db.best_model("store_sales", "sales_price")
    slope = model.fit.param_dict["beta_list_price"]
    print(f"Recovered discount factor: {slope:.3f} (planted {dataset.discount})\n")

    queries = [
        ("total revenue", "SELECT sum(sales_price) AS v FROM store_sales"),
        ("average sale price", "SELECT avg(sales_price) AS v FROM store_sales"),
        ("maximum sale price", "SELECT max(sales_price) AS v FROM store_sales"),
    ]
    sampler = sampling.UniformSampler(sales, fraction=0.01, seed=3)

    header = f"{'query':<22} {'exact':>14} {'model':>14} {'model err':>10} {'sample':>14} {'sample err':>11}"
    print(header)
    print("-" * len(header))
    for name, sql in queries:
        exact = db.query(sql, AccuracyContract(mode="exact")).scalar()
        approx = db.query(sql, APPROX).approx
        model_value = approx.scalar()
        function = sql.split("(")[0].split()[-1].lower()
        sample_value = sampler.estimate(function, "sales_price").value
        print(
            f"{name:<22} {exact:>14.2f} {model_value:>14.2f} {relative_error(model_value, exact):>10.2%} "
            f"{sample_value:>14.2f} {relative_error(sample_value, exact):>11.2%}"
        )
    print("\nModel answers read 0 data pages; the exact answers scan the fact table, "
          "and the sample needs its 1% synopsis stored and maintained.")

    # A grouped query falls back to exact execution (documented behaviour):
    grouped = db.query(tpcds_lite.BENCHMARK_QUERIES[2][1], APPROX).approx
    print(f"\nMonthly-revenue join query route: {grouped.route} ({grouped.reason})")


if __name__ == "__main__":
    main()
