"""The analytic route is the range integration with nothing clipped.

``analytic-aggregate`` used to be a second implementation of "a global
aggregate over a closed-form model" — its own shape gate, its own arithmetic,
its own error convention — and the twins had drifted.  It is now the name the
one aggregate rung answers under without a ``WHERE``, evaluated by the one
aggregate kernel over the whole input box.  These tests pin what that closes:
the statement shapes the laxer gate mishandled, the NULL-skipping it never
had, one stated error for one question, bands that cover at their nominal
rate on every route the kernel serves — and that the *values* did not move:
the deleted arithmetic is kept here, verbatim, as the reference.

NumPy only: this file runs in the ``no-scipy`` CI job.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.quality import QualityPolicy
from repro.db.table import Table
from repro.errors import SchemaError
from repro.fitting.families import Constant, Exponential, LinearModel, PowerLaw
from repro.fitting.model import FitResult

from tests.conftest import APPROX, EXACT, STRICT

FUNCTIONS = ("min", "max", "avg", "sum")
ALL_FOUR = "SELECT min(y) AS lo, max(y) AS hi, avg(y) AS m, sum(y) AS s FROM u"


def _linear_db(seed: int, rows: int, null_every: int = 0) -> tuple[LawsDatabase, np.ndarray]:
    """``u(x, y)``: ``y = 2x + 5 + N(0, 0.5)`` over a continuous ``x``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, rows)
    y = 2.0 * x + 5.0 + rng.normal(0.0, 0.5, rows)
    values: list = y.tolist()
    if null_every:
        values[::null_every] = [None] * len(values[::null_every])
    db = LawsDatabase(observability=False)
    db.register_table(Table.from_dict("u", {"x": x.tolist(), "y": values}))
    assert db.fit("u", "y ~ linear(x)").accepted
    return db, y


@pytest.fixture(scope="module")
def linear_db():
    return _linear_db(seed=1, rows=20_000)[0]


# -- (a) the statement shapes the second, laxer gate let through ------------------------


def test_having_is_applied_not_dropped(linear_db):
    sql = "SELECT avg(y) AS m FROM u HAVING avg(y) > 100"
    assert linear_db.query(sql, EXACT).rows() == []
    assert linear_db.query(sql, APPROX).rows() == []


def test_limit_zero_returns_no_row(linear_db):
    sql = "SELECT avg(y) AS m FROM u LIMIT 0"
    assert linear_db.query(sql, EXACT).rows() == []
    answer = linear_db.query(sql, STRICT)
    assert answer.route_taken == "analytic-aggregate" and answer.rows() == []


def test_duplicate_aliases_are_rejected_like_exact(linear_db):
    sql = "SELECT min(y) AS v, max(y) AS v FROM u"
    with pytest.raises(SchemaError):
        linear_db.query(sql, EXACT)
    with pytest.raises(SchemaError):
        linear_db.query(sql, APPROX)


def test_distinct_over_the_one_result_row_changes_nothing(linear_db):
    plain = linear_db.query("SELECT avg(y) AS m FROM u", STRICT)
    distinct = linear_db.query("SELECT DISTINCT avg(y) AS m FROM u", STRICT)
    assert distinct.route_taken == plain.route_taken == "analytic-aggregate"
    assert distinct.rows() == plain.rows()


# -- (b) SUM skips NULL outputs, as exact does ------------------------------------------


def test_sum_skips_null_outputs():
    db, _ = _linear_db(seed=2, rows=20_000, null_every=4)
    sql = "SELECT sum(y) AS s FROM u"
    answer = db.query(sql, STRICT)
    assert answer.route_taken == "analytic-aggregate"
    exact = db.query(sql, EXACT).scalar()
    assert answer.scalar() == pytest.approx(exact, rel=0.02)


# -- (c) one question, one stated error -------------------------------------------------


def test_a_vacuous_interval_does_not_change_the_stated_extreme_error(linear_db):
    plain = linear_db.query(ALL_FOUR, STRICT).approx
    vacuous = linear_db.query(f"{ALL_FOUR} WHERE x >= -1", STRICT).approx
    assert (plain.route, vacuous.route) == ("analytic-aggregate", "range-aggregate")
    for name in ("lo", "hi"):
        assert plain.column_errors[name] == vacuous.column_errors[name] > 0.0
    # Same kernel, same corners: the extremes themselves agree too.
    assert plain.rows()[0][:2] == vacuous.rows()[0][:2]


# -- (d) a band is a coverage claim -----------------------------------------------------
#
# Every route × model × function × input kind the aggregate kernel admits,
# over seeded tables with known laws: the stated 95 % band must hold the exact
# answer at its nominal rate (README, "Answer routes", holds the table).

FIVE = "count(*) AS n, sum(y) AS s, avg(y) AS m, min(y) AS lo, max(y) AS hi"
COVERAGE_STATEMENTS = {
    ("grouped-model", "grouped"): f"SELECT g, {FIVE} FROM t WHERE x BETWEEN 1 AND 5 GROUP BY g",
    ("range-aggregate", "grouped"): f"SELECT {FIVE} FROM t WHERE x BETWEEN 1 AND 5",
    ("analytic-aggregate", "grouped"): f"SELECT {FIVE} FROM t",
    ("range-aggregate", "ungrouped"): f"SELECT {FIVE} FROM u WHERE x BETWEEN 1 AND 5",
    ("analytic-aggregate", "ungrouped"): f"SELECT {FIVE} FROM u",
}


def _coverage_db(seed: int, kind: str) -> LawsDatabase:
    """``t``: 8 groups, each its own line in x; ``u``: one line.  x takes 8
    values (enumerable) or is uniform on [0, 8) with more distinct values than
    the catalog enumerates (continuous)."""
    rng = np.random.default_rng(seed)
    per_group = 64 if kind == "enumerable" else 520
    g = np.repeat(np.arange(8), per_group)

    def inputs() -> np.ndarray:
        if kind == "enumerable":
            return rng.integers(0, 8, g.size).astype(float)
        return rng.uniform(0.0, 8.0, g.size)

    x, ux = inputs(), inputs()
    a, b = rng.uniform(0.0, 10.0, 8), rng.uniform(0.5, 2.0, 8)
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    y = a[g] + b[g] * x + rng.normal(0.0, 0.5, g.size)
    db.load_dict("t", {"g": g.tolist(), "x": x.tolist(), "y": y.tolist()})
    db.load_dict("u", {"x": ux.tolist(), "y": (3.0 + 1.5 * ux + rng.normal(0.0, 0.5, g.size)).tolist()})
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
    assert db.fit("u", "y ~ linear(x)").accepted
    return db


def coverage_table(kind: str, tables: int = 40) -> dict[tuple[str, str, str], tuple[int, int]]:
    """``(route, model, column) -> (answers inside their 95 % band, answers)``."""
    counts: dict[tuple[str, str, str], list[int]] = {}
    for seed in range(tables):
        db = _coverage_db(2_000 + seed, kind)
        for (route, model), sql in COVERAGE_STATEMENTS.items():
            answer = db.query(sql, STRICT).approx
            assert answer.route == route, (kind, sql, answer.route)
            exact = db.query(sql, EXACT).query_result.table
            for row in exact.to_rows():
                for position, name in enumerate(exact.schema.names):
                    if name == "g":
                        continue
                    if route == "grouped-model":
                        estimate = answer.group_error_estimate(row[0], name)
                    else:
                        estimate = answer.error_estimate(name)
                    inside = abs(estimate.value - row[position]) <= 1.96 * estimate.standard_error + 1e-9
                    tally = counts.setdefault((route, model, name), [0, 0])
                    tally[0] += inside
                    tally[1] += 1
        db.close()
    return {key: (inside, total) for key, (inside, total) in counts.items()}


@pytest.mark.parametrize("kind", ["enumerable", "continuous"])
def test_nominal_95_percent_bands_cover_at_their_rate(kind):
    table = coverage_table(kind)
    assert len(table) == 5 * len(COVERAGE_STATEMENTS)
    rates = {key: inside / total for key, (inside, total) in table.items()}
    assert min(rates.values()) >= 0.9, {key: rate for key, rate in rates.items() if rate < 0.9}


# -- (e) the values are the deleted closed form's, to the last bit ----------------------
#
# ``core/approx/aggregates.py::analytic_aggregate`` as it stood when it was
# deleted, minus argument validation and the error estimate.


def reference_analytic_value(fit, input_columns, function, input_ranges, row_count, input_means):
    if function in ("min", "max"):
        value, _ = _extreme_value(fit, input_columns, input_ranges, function)
    elif function == "avg":
        value, _ = _average_value(fit, input_columns, input_ranges, input_means)
    else:  # sum
        avg_value, _ = _average_value(fit, input_columns, input_ranges, input_means)
        value = avg_value * row_count
    return value


def _extreme_value(
    fit: FitResult,
    input_columns: tuple[str, ...],
    input_ranges: Mapping[str, tuple[float, float]],
    function: str,
) -> tuple[float, str]:
    family = fit.family
    if isinstance(family, (Constant, LinearModel, PowerLaw, Exponential)):
        corners = _corner_grid(input_columns, input_ranges)
        values = fit.predict(corners)
        value = float(np.min(values) if function == "min" else np.max(values))
        return value, "endpoint"
    # General fallback: dense scan of the input box (still no data IO).
    grid = _dense_grid(input_columns, input_ranges)
    values = fit.predict(grid)
    value = float(np.min(values) if function == "min" else np.max(values))
    return value, "domain-scan"


def _average_value(
    fit: FitResult,
    input_columns: tuple[str, ...],
    input_ranges: Mapping[str, tuple[float, float]],
    input_means: Mapping[str, float] | None = None,
) -> tuple[float, str]:
    family = fit.family
    # Linearity of expectation needs linearity in the *inputs*, not just the
    # parameters — a Polynomial must fall through to the domain scan.
    if isinstance(family, (Constant, LinearModel)):
        if input_means is not None and all(name in input_means for name in input_columns):
            points = {name: np.array([float(input_means[name])]) for name in input_columns}
            return float(fit.predict(points)[0]), "linearity"
        midpoints = {
            name: np.array([(low + high) / 2.0]) for name, (low, high) in input_ranges.items()
        }
        return float(fit.predict(midpoints)[0]), "linearity-uniform"
    grid = _dense_grid(input_columns, input_ranges)
    return float(np.mean(fit.predict(grid))), "domain-scan"


def _corner_grid(
    input_columns: tuple[str, ...], input_ranges: Mapping[str, tuple[float, float]]
) -> dict[str, np.ndarray]:
    """All corners of the input bounding box."""
    num_inputs = len(input_columns)
    corners = {name: [] for name in input_columns}
    for mask in range(2**num_inputs):
        for bit, name in enumerate(input_columns):
            low, high = input_ranges[name]
            corners[name].append(high if (mask >> bit) & 1 else low)
    return {name: np.asarray(values, dtype=np.float64) for name, values in corners.items()}


def _dense_grid(
    input_columns: tuple[str, ...],
    input_ranges: Mapping[str, tuple[float, float]],
    points_per_dim: int = 101,
) -> dict[str, np.ndarray]:
    """A dense regular grid over the input box (meshgrid, flattened)."""
    axes = [
        np.linspace(input_ranges[name][0], input_ranges[name][1], points_per_dim)
        for name in input_columns
    ]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    return {name: grid.ravel() for name, grid in zip(input_columns, mesh)}


@pytest.mark.parametrize(
    "formula",
    [
        "y ~ constant(x)",
        "y ~ linear(x)",
        "y ~ linear(x, z)",
        "y ~ powerlaw(x)",
        "y ~ exponential(x)",
        "y ~ poly(x, degree=2)",
    ],
)
def test_values_equal_the_deleted_closed_form(formula):
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 5.0, 600)
    z = rng.uniform(-2.0, 3.0, 600)
    y = 3.0 * x**1.5 - 0.4 * z + rng.normal(0.0, 0.1, 600)
    # Any fit is admitted: this compares arithmetic, not accuracy.
    db = LawsDatabase(observability=False, quality_policy=QualityPolicy(min_r_squared=-np.inf))
    db.register_table(Table.from_dict("u", {"x": x.tolist(), "z": z.tolist(), "y": y.tolist()}))
    model = db.fit("u", formula).model
    stats = db.database.stats("u")
    ranges = {
        name: (float(stats.columns[name].min_value), float(stats.columns[name].max_value))
        for name in model.input_columns
    }
    means = {name: float(stats.columns[name].mean) for name in model.input_columns}

    answer = db.query(ALL_FOUR, STRICT).approx
    assert answer.route == "analytic-aggregate"
    for function, value in zip(FUNCTIONS, answer.rows()[0]):
        expected = reference_analytic_value(
            model.fit, model.input_columns, function, ranges, stats.row_count, means
        )
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), function
