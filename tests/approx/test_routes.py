"""Unit tests for the grouped/range routes, the per-group router and the
WHERE-constraint analysis they are built on."""

import numpy as np
import pytest

from repro import LawsDatabase
from repro.db.constraints import extract_constraints
from repro.core.approx.routes.router import plan_group_routing
from repro.db.column import Column
from repro.db.sql.parser import parse_expression
from repro.db.types import DataType

from tests.conftest import APPROX, EXACT, compare_sql, per_group


def _make_db(rows, ingest_batch_size=512):
    db = LawsDatabase(ingest_batch_size=ingest_batch_size)
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    return db


def _linear_rows(rng, groups=5, xs=4, reps=8, sigma=0.2, skip=None):
    rows = []
    for g in range(groups):
        for x in range(xs):
            n = reps if not (skip and skip(g, x)) else 0
            for _ in range(n):
                rows.append((g, float(x), 1.0 + g + 0.6 * x + rng.normal(0, sigma)))
    return rows


@pytest.fixture(scope="module")
def routed_db():
    rng = np.random.default_rng(42)
    db = _make_db(_linear_rows(rng))
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


class TestConstraints:
    def test_between_and_comparisons(self):
        constraints = extract_constraints(parse_expression("x BETWEEN 1 AND 3 AND y < 9"))
        assert constraints.fully_analysed
        x = constraints.constraint("x")
        assert (x.low, x.high) == (1.0, 3.0)
        assert x.low_inclusive and x.high_inclusive
        y = constraints.constraint("y")
        assert y.high == 9.0 and not y.high_inclusive

    def test_flipped_literal_side(self):
        constraints = extract_constraints(parse_expression("3 <= x"))
        x = constraints.constraint("x")
        assert x.low == 3.0 and x.low_inclusive

    def test_in_and_equality_intersect(self):
        constraints = extract_constraints(parse_expression("g IN (1, 2, 3) AND g = 2"))
        assert constraints.constraint("g").values == [2]

    def test_interval_tightening(self):
        constraints = extract_constraints(parse_expression("x > 1 AND x >= 2 AND x < 10 AND x <= 8"))
        x = constraints.constraint("x")
        assert (x.low, x.high) == (2.0, 8.0)
        assert x.low_inclusive and x.high_inclusive

    def test_residual_conjuncts_are_kept(self):
        constraints = extract_constraints(parse_expression("x = 1 OR x = 2"))
        assert not constraints.fully_analysed
        constraints = extract_constraints(parse_expression("x IS NULL AND g = 1"))
        assert len(constraints.residual) == 1
        assert constraints.constraint("g").values == [1]

    def test_admits_and_restrict(self):
        constraints = extract_constraints(parse_expression("x BETWEEN 1 AND 3"))
        x = constraints.constraint("x")
        assert x.restrict_domain([0.0, 1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 3.0]
        assert not x.admits(0.5)


class TestRouter:
    def test_failed_groups_go_exact(self):
        rng = np.random.default_rng(3)
        # Group 3 keeps only 8 observations; the floor of 9 fails its fit.
        db = _make_db(_linear_rows(rng, skip=lambda g, x: g == 3 and x > 0))
        report = db.fit("t", "y ~ linear(x)", group_by="g", min_observations=9)
        model = report.model
        keys = [Column.from_values(DataType.INT64, list(range(5)))]
        plan = plan_group_routing(db.models.grouped_candidates("t", "y", ("g",)), ("g",), keys)
        exact_keys = set(plan.keys_where(~plan.served)[0].to_pylist())
        failed = {key for (key,), ok in zip(model.fit.keys, model.fit.succeeded) if not ok}
        assert failed <= exact_keys

    def test_active_model_preferred_over_stale(self, routed_db):
        keys = [Column.from_values(DataType.INT64, [1])]
        plan = plan_group_routing(routed_db.models.grouped_candidates("t", "y", ("g",)), ("g",), keys)
        [owner], [row] = plan.owner, plan.row
        assert owner >= 0
        model = plan.models[owner]
        assert model.status == "active"
        assert model.fit.n_obs[row] > 0


class TestGroupedRoute:
    def test_per_group_errors_and_provenance(self, routed_db):
        answer = routed_db.query(
            "SELECT g, avg(y) AS m, sum(y) AS s FROM t GROUP BY g ORDER BY g",
            APPROX,
        ).approx
        assert answer.route == "grouped-model"
        assert answer.io["pages_read"] == 0
        groups = per_group(answer)
        assert len(groups) == 5
        for model_id, _, errors in groups.values():
            assert errors["m"] > 0 and errors["s"] > 0
            assert model_id in answer.used_model_ids
        estimate = answer.group_error_estimate(2, "m")
        assert estimate.lower < estimate.value < estimate.upper

    def test_weighted_count_matches_exact(self, routed_db):
        comparison = compare_sql(
            routed_db,
            "SELECT g, count(y) AS n FROM t WHERE x IN (1, 2) GROUP BY g ORDER BY g"
        )
        assert comparison["route"] == "grouped-model"
        assert comparison["approximate"].rows() == comparison["exact"].rows()

    def test_order_by_desc_and_limit(self, routed_db):
        answer = routed_db.query(
            "SELECT g, max(y) AS peak FROM t GROUP BY g ORDER BY peak DESC LIMIT 2",
            APPROX,
        ).approx
        assert answer.route == "grouped-model"
        assert answer.table.num_rows == 2
        peaks = answer.table.column("peak").to_pylist()
        assert peaks == sorted(peaks, reverse=True)
        assert answer.table.column("g").to_pylist() == [4, 3]

    def test_range_restricted_group_by(self, routed_db):
        comparison = compare_sql(
            routed_db,
            "SELECT g, avg(y) AS m FROM t WHERE x BETWEEN 1 AND 2 GROUP BY g ORDER BY g"
        )
        assert comparison["route"] == "grouped-model"
        assert comparison["max_relative_error"] < 0.05

    def test_empty_restriction_gives_empty_result(self, routed_db):
        answer = routed_db.query(
            "SELECT g, avg(y) AS m FROM t WHERE x > 99 GROUP BY g",
            APPROX,
        ).approx
        assert answer.route == "grouped-model"
        assert answer.table.num_rows == 0

    def test_having_falls_back_exactly(self, routed_db):
        """HAVING filters on per-group aggregates no kernel answer carries, and
        the virtual table does not aggregate: the statement runs exactly."""
        sql = "SELECT g, avg(y) AS m FROM t GROUP BY g HAVING avg(y) > 2 ORDER BY g"
        answer = routed_db.query(sql, APPROX).approx
        assert answer.route == "exact-fallback"
        assert answer.rows() == routed_db.query(sql, EXACT).query_result.table.to_rows()

    def test_hybrid_merges_exact_groups(self):
        rng = np.random.default_rng(5)
        rows = _linear_rows(rng, skip=lambda g, x: g == 3 and x > 0)
        db = _make_db(rows)
        # Group 3 only has 8 observations (one x value); a floor of 9 makes
        # its per-group fit fail, exercising the exact fill-in.
        report = db.fit("t", "y ~ linear(x)", group_by="g", min_observations=9)
        assert not report.model.fit.succeeded.all()
        answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert answer.route == "grouped-hybrid"
        assert per_group(answer)[(3,)][0] == -1
        assert answer.io["pages_read"] > 0  # only the uncovered group was scanned
        exact = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", EXACT).query_result.table
        assert answer.table.column("g").to_pylist() == exact.column("g").to_pylist()
        merged = answer.table.column("m").to_pylist()
        exact_values = exact.column("m").to_pylist()
        assert merged[3] == pytest.approx(exact_values[3])

    def test_stale_model_keeps_serving_groups(self):
        rng = np.random.default_rng(6)
        db = _make_db(_linear_rows(rng), ingest_batch_size=32)
        report = db.fit("t", "y ~ linear(x)", group_by="g")
        db.ingest("t", _linear_rows(rng, reps=2), flush=True)
        assert report.model.status == "stale"
        answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert answer.route == "grouped-model"
        assert "stale" in answer.reason

    def test_on_demand_grouped_harvest(self):
        rng = np.random.default_rng(8)
        db = _make_db(_linear_rows(rng))
        db.fit("t", "y ~ linear(x)")  # ungrouped capture (the formula template)
        first = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert first.route == "grouped-model"
        assert first.io["pages_read"] > 0  # the one-off harvest scan is charged
        second = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert second.route == "grouped-model"
        assert second.io["pages_read"] == 0

    def test_no_template_means_no_harvest(self):
        rng = np.random.default_rng(9)
        db = _make_db(_linear_rows(rng))
        answer = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g", APPROX).approx
        assert answer.route == "exact-fallback"


class TestRangeRoute:
    def test_grouped_model_combination(self, routed_db):
        comparison = compare_sql(
            routed_db,
            "SELECT sum(y) AS s, count(y) AS n FROM t WHERE x >= 1 AND x <= 2"
        )
        assert comparison["route"] == "range-aggregate"
        assert comparison["approx_pages_read"] == 0
        approx, exact = comparison["approximate"], comparison["exact"]
        assert approx.table.column("n").to_pylist() == exact.table.column("n").to_pylist()
        assert comparison["max_relative_error"] < 0.05
        assert approx.column_errors["s"] > 0

    def test_group_pinned_range(self, routed_db):
        comparison = compare_sql(
            routed_db,
            "SELECT avg(y) AS m FROM t WHERE g IN (1, 2) AND x > 0.5"
        )
        assert comparison["route"] == "range-aggregate"
        assert comparison["max_relative_error"] < 0.05

    def test_equality_only_restrictions_are_the_kernels_too(self, routed_db):
        """A pin is a restriction like any other: the groups' laws evaluated at
        the pinned value, weighted by the rows each group holds there."""
        comparison = compare_sql(routed_db, "SELECT avg(y) AS m, count(*) AS n FROM t WHERE x = 1")
        assert comparison["route"] == "range-aggregate"
        approx, exact = comparison["approximate"], comparison["exact"]
        assert approx.table.column("n").to_pylist() == exact.table.column("n").to_pylist()
        estimate = approx.error_estimate("m")
        assert estimate.lower <= exact.table.column("m").to_pylist()[0] <= estimate.upper

    def test_predicate_on_output_declines(self, routed_db):
        sql = "SELECT count(y) AS n FROM t WHERE x >= 1 AND y > 3"
        answer = routed_db.query(sql, APPROX).approx
        # Filtering on predicted values needs per-row evaluation, and a COUNT
        # over the enumerated parameter space counts combinations, not rows:
        # no model route serves it.
        assert answer.route == "exact-fallback"
        assert answer.rows() == routed_db.query(sql, EXACT).query_result.table.to_rows()

    def test_empty_range_matches_sql_semantics(self, routed_db):
        answer = routed_db.query(
            "SELECT sum(y) AS s, count(y) AS n FROM t WHERE x > 99",
            APPROX,
        ).approx
        assert answer.route == "range-aggregate"
        assert answer.rows() == [(None, 0)]

    def test_skewed_input_distribution_count_sum_avg(self):
        """Frequency-weighted coverage: restricted COUNT/SUM/AVG must track
        exact results on skewed input distributions, not assume uniformity."""
        rng = np.random.default_rng(16)
        rows = []
        for g in range(3):
            for x, reps in ((0.0, 60), (1.0, 4), (2.0, 4), (3.0, 4)):
                for _ in range(reps):
                    rows.append((g, x, 1.0 + g + 5.0 * x + rng.normal(0, 0.1)))
        db = _make_db(rows)
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        sql = "SELECT g, count(y) AS n, sum(y) AS s, avg(y) AS m FROM t WHERE x >= 1 GROUP BY g ORDER BY g"
        comparison = compare_sql(db, sql)
        assert comparison["route"] == "grouped-model"
        approx, exact = comparison["approximate"], comparison["exact"]
        for (g, n, s, m), (_, ne, se_, me) in zip(approx.rows(), exact.table.to_rows()):
            assert n == ne  # per-value frequencies make the count exact here
            assert abs(s - se_) <= 3 * approx.group_error_estimate(g, "s").standard_error + 1e-6
            assert abs(m - me) <= 3 * approx.group_error_estimate(g, "m").standard_error + 1e-6

    def test_hybrid_with_new_group_does_not_double_count(self):
        """Appends forming a brand-new group must not inflate the stale
        model-served groups: live per-group cardinalities win over the
        table-growth rescaling."""
        rng = np.random.default_rng(18)
        rows = [(g, float(x), 1.0 + g + 0.8 * x + rng.normal(0, 0.1))
                for g in range(4) for x in range(4) for _ in range(12)]
        db = _make_db(rows, ingest_batch_size=64)
        report = db.fit("t", "y ~ linear(x)", group_by="g")
        assert report.accepted
        extra = [(9, float(x), 10.0 + 0.8 * x + rng.normal(0, 0.1))
                 for x in range(4) for _ in range(12)]
        db.ingest("t", extra, flush=True)
        answer = db.query("SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert answer.route == "grouped-hybrid"
        assert per_group(answer)[(9,)][0] == -1
        exact = db.query("SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g", EXACT).query_result.table
        assert answer.table.column("n").to_pylist() == exact.column("n").to_pylist()

    def test_nonproportional_stale_growth_stays_within_band(self):
        """Streaming growth concentrated in one group: the stated COUNT band
        must cover the worst-case cardinality drift."""
        rng = np.random.default_rng(17)
        rows = [(g, float(x), 1.0 + g + 0.8 * x + rng.normal(0, 0.1))
                for g in range(2) for x in range(4) for _ in range(100)]
        db = _make_db(rows, ingest_batch_size=128)
        report = db.fit("t", "y ~ linear(x)", group_by="g")
        assert report.accepted
        # All new rows land in group 0 only.
        extra = [(0, float(x), 1.0 + 0.8 * x + rng.normal(0, 0.1))
                 for x in range(4) for _ in range(100)]
        db.ingest("t", extra, flush=True)
        assert report.model.status == "stale"
        answer = db.query("SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g", APPROX).approx
        assert answer.route == "grouped-model"
        exact = db.query("SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g", EXACT).query_result.table
        for (g, n), (_, ne) in zip(answer.rows(), exact.to_rows()):
            band = 3 * answer.group_error_estimate(g, "n").standard_error
            assert abs(n - ne) <= band, (g, n, ne, band)

    def test_null_group_keys_force_exact(self):
        """Rows with a NULL group key form their own exact group; the model
        has no parameters for it, so the route must decline."""
        rng = np.random.default_rng(20)
        rows = [(g, float(x), 1.0 + g + 0.5 * x + rng.normal(0, 0.1))
                for g in range(3) for x in range(4) for _ in range(10)]
        db = LawsDatabase()
        db.load_dict("t", {
            "g": [r[0] for r in rows] + [None] * 5,
            "x": [r[1] for r in rows] + [1.0] * 5,
            "y": [r[2] for r in rows] + [9.0] * 5,
        })
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        comparison = compare_sql(db, "SELECT g, avg(y) AS m FROM t GROUP BY g")
        # The grouped route must not serve this (the enumeration route may,
        # with its own long-standing semantics; the key point is no
        # grouped-model answer that silently lacks the NULL group).
        assert comparison["route"] not in ("grouped-model", "grouped-hybrid")

    def test_null_output_values_shrink_count_within_band(self):
        """COUNT(col)/SUM exclude NULLs; the routes shrink by the null
        fraction and state a binomial allowance instead of claiming the
        full row count exactly."""
        rng = np.random.default_rng(21)
        rows = [(g, float(x), 1.0 + g + 0.5 * x + rng.normal(0, 0.05))
                for g in range(3) for x in range(4) for _ in range(10)]
        db = LawsDatabase()
        db.load_dict("t", {
            "g": [r[0] for r in rows] + [0],
            "x": [r[1] for r in rows] + [1.0],
            "y": [r[2] for r in rows] + [None],
        })
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        comparison = compare_sql(db, "SELECT g, count(y) AS n FROM t GROUP BY g ORDER BY g")
        assert comparison["route"] == "grouped-model"
        approx, exact = comparison["approximate"], comparison["exact"]
        for (g, n), (_, ne) in zip(approx.rows(), exact.table.to_rows()):
            band = 3 * approx.group_error_estimate(g, "n").standard_error + 1.0
            assert abs(n - ne) <= band, (g, n, ne, band)
        # COUNT(*) still counts NULL-output rows.
        star = compare_sql(
            db,
            "SELECT g, count(*) AS n, avg(y) AS m FROM t GROUP BY g ORDER BY g"
        )
        assert star["route"] == "grouped-model"
        star_counts = star["approximate"].table.column("n").to_pylist()
        assert star_counts == star["exact"].table.column("n").to_pylist()

    def test_new_group_mid_stream_forces_honest_fallback(self):
        """A group value that appeared after capture cannot be regenerated;
        global aggregates must fall back (with the reason recorded) instead
        of silently dropping the new group's rows — unless the predicate
        explicitly excludes it, in which case the model still serves."""
        rng = np.random.default_rng(19)
        rows = [(g, float(x), 1.0 + g + 0.8 * x + rng.normal(0, 0.1))
                for g in range(4) for x in range(4) for _ in range(12)]
        db = _make_db(rows, ingest_batch_size=64)
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        extra = [(9, float(x), 10.0 + 0.8 * x + rng.normal(0, 0.1))
                 for x in range(4) for _ in range(12)]
        db.ingest("t", extra, flush=True)

        fallback = db.query("SELECT sum(y) AS s FROM t WHERE x >= 1", APPROX).approx
        assert fallback.route == "exact-fallback"
        assert "appeared after model" in fallback.reason

        served = compare_sql(db, "SELECT sum(y) AS s FROM t WHERE x >= 1 AND g IN (0, 1, 2, 3)")
        assert served["route"] == "range-aggregate"
        assert served["max_relative_error"] < 0.05

    def test_predicate_on_unmodelled_column_declines(self):
        """A WHERE constraint the model's inputs cannot express must force
        exact execution, never be silently dropped."""
        rng = np.random.default_rng(15)
        rows = _linear_rows(rng)
        db = LawsDatabase()
        db.load_dict(
            "t",
            {
                "g": [r[0] for r in rows],
                "x": [r[1] for r in rows],
                "y": [r[2] for r in rows],
                "z": rng.uniform(0, 10, size=len(rows)).tolist(),
            },
        )
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        comparison = compare_sql(db, "SELECT g, count(y) AS c FROM t WHERE z > 8 GROUP BY g ORDER BY g")
        assert comparison["route"] == "exact-fallback"
        assert comparison["approximate"].rows() == comparison["exact"].rows()

    def test_restricted_count_and_sum_carry_selectivity_error(self, routed_db):
        """Coverage fractions assume uniformity; restricted COUNT/SUM must
        say so via a non-zero stated error instead of claiming exactness."""
        answer = routed_db.query(
            "SELECT g, count(y) AS n, sum(y) AS s FROM t WHERE x IN (1, 2) GROUP BY g",
            APPROX,
        ).approx
        assert answer.route == "grouped-model"
        assert (answer.groups.errors["n"] > 0).all() and (answer.groups.errors["s"] > 0).all()
        unrestricted = routed_db.query(
            "SELECT g, count(y) AS n FROM t GROUP BY g",
            APPROX,
        ).approx
        assert (unrestricted.groups.errors["n"] == 0.0).all()  # full-domain counts stay exact when fresh

    def test_aggregate_over_group_key_declines(self, routed_db):
        """MIN(g) must never be answered with output-column predictions."""
        comparison = compare_sql(
            routed_db,
            "SELECT g, min(g) AS lo, avg(y) AS m FROM t GROUP BY g ORDER BY g"
        )
        assert comparison["route"] not in ("grouped-model", "grouped-hybrid")
        approx = comparison["approximate"]
        exact = comparison["exact"]
        assert approx.table.column("lo").to_pylist() == exact.table.column("lo").to_pylist()

    def test_non_monotone_polynomial_max_scans_interior(self):
        """MAX of a concave fit peaks in the interior, not at the corners."""
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 10.0, size=6000)
        y = -((x - 5.0) ** 2) + rng.normal(0, 0.3, size=6000)
        db = LawsDatabase()
        db.load_dict("c", {"x": x.tolist(), "y": y.tolist()})
        assert db.fit("c", "y ~ poly(x, degree=2)").accepted
        answer = db.query("SELECT max(y) AS peak FROM c WHERE x BETWEEN 0 AND 10", APPROX).approx
        assert answer.route == "range-aggregate"
        exact = db.query("SELECT max(y) AS peak FROM c WHERE x BETWEEN 0 AND 10", EXACT).query_result.scalar()
        # Corner-only evaluation would report ~-25; the interior scan finds ~0.
        assert answer.scalar() == pytest.approx(exact, abs=3 * answer.column_errors["peak"] + 0.5)

    def test_rejected_grouped_refit_is_not_retried(self):
        """ensure_grouped keeps a negative cache over unchanged data."""
        rng = np.random.default_rng(13)
        from repro.core.quality import QualityPolicy

        db = LawsDatabase(quality_policy=QualityPolicy(min_r_squared=0.999999))
        db.load_dict(
            "t",
            {
                "g": [int(v) for v in rng.integers(0, 4, size=200)],
                "x": rng.uniform(0, 1, size=200).tolist(),
                "y": rng.uniform(0, 1, size=200).tolist(),
            },
        )
        db.fit("t", "y ~ linear(x)")  # rejected, but usable as a template
        first = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g", APPROX).approx
        assert first.route == "exact-fallback"
        models_after_first = len(db.captured_models("t"))
        second = db.query("SELECT g, avg(y) AS m FROM t GROUP BY g", APPROX).approx
        assert second.route == "exact-fallback"
        assert len(db.captured_models("t")) == models_after_first

    def test_declined_query_shape_skips_harvest(self):
        """A query the route would decline must not trigger a grouped refit."""
        rng = np.random.default_rng(14)
        db = _make_db(_linear_rows(rng))
        db.fit("t", "y ~ linear(x)")
        before = len(db.captured_models("t"))
        # The OR disjunction is a residual conjunct the route cannot analyse.
        answer = db.query(
            "SELECT g, avg(y) AS m FROM t WHERE x = 1 OR x = 2 GROUP BY g",
            APPROX,
        ).approx
        assert answer.route not in ("grouped-model", "grouped-hybrid")
        assert len(db.captured_models("t")) == before

    def test_continuous_input_uses_analytic_integration(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 10.0, size=5000)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.3, size=5000)
        db = LawsDatabase()
        db.load_dict("c", {"x": x.tolist(), "y": y.tolist()})
        assert db.fit("c", "y ~ linear(x)").accepted
        comparison = compare_sql(db, "SELECT avg(y) AS m FROM c WHERE x BETWEEN 2 AND 5")
        assert comparison["route"] == "range-aggregate"
        assert "analytic integration" in comparison["approximate"].reason
        assert comparison["max_relative_error"] < 0.05

    def test_pinned_values_respect_cooccurring_interval(self):
        """``x IN (2, 8) AND x < 5`` must evaluate at 2, not at mean(2, 8)."""
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 10.0, size=5000)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.3, size=5000)
        db = LawsDatabase()
        db.load_dict("c", {"x": x.tolist(), "y": y.tolist()})
        assert db.fit("c", "y ~ linear(x)").accepted
        answer = db.query("SELECT avg(y) AS m FROM c WHERE x IN (2.0, 8.0) AND x < 5", APPROX).approx
        assert answer.route == "range-aggregate"
        # y(2) = 5; the unfiltered midpoint mean(2, 8) = 5 would give y(5) = 11.
        assert answer.scalar() == pytest.approx(5.0, abs=0.5)


class TestRouteTable:
    """Every rung of the one route table, through ``query()``."""

    @pytest.fixture(scope="class")
    def table_db(self):
        rng = np.random.default_rng(17)
        db = _make_db(_linear_rows(rng))
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        x = rng.uniform(0.0, 10.0, size=400)
        db.load_dict("u", {"x": x.tolist(), "y": (1.0 + 2.0 * x + rng.normal(0, 0.1, size=400)).tolist()})
        assert db.fit("u", "y ~ linear(x)").accepted
        return db

    @pytest.mark.parametrize(
        "sql,route",
        [
            ("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g", "grouped-model"),
            ("SELECT y FROM t WHERE g = 1 AND x = 2", "point"),
            ("SELECT avg(y) AS m FROM t WHERE x >= 1", "range-aggregate"),
            ("SELECT avg(y) AS m FROM u", "analytic-aggregate"),
            ("SELECT g, y FROM t WHERE x = 1", "virtual-table"),
            ("SELECT x FROM u", "exact-fallback"),
        ],
    )
    def test_answer_carries_its_sql_and_the_sketched_route(self, table_db, sql, route):
        sketch = table_db.approx.sketch_route(sql)
        assert (sketch.route if sketch is not None else "exact-fallback") == route
        answer = table_db.query(sql, APPROX).approx
        assert answer.route == route
        assert answer.sql == sql
