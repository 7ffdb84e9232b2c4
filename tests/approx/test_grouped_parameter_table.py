"""The grouped model as a parameter table: batched == one group at a time.

Capture (``GroupedFitter``) and the two answering routes (``grouped-model``,
``range-aggregate``) work column-wise over a (groups × parameters) matrix.
The reference here is the obvious implementation — a Python loop over rows to
group them, and one scalar evaluation per group to answer — kept in this file
so the batched path always has something slow and simple to be compared with:
values and standard errors must agree to 1e-12 relative.

NumPy only: this file runs in the ``no-scipy`` CI job.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.approx.routes.aggcalc import (
    analyse_select_items,
    growth_scale,
    restricted_domains,
    staleness_rows,
)
from repro.core.approx.routes.grouped import GroupedRoutePlan, analyse_grouped_statement
from repro.core.approx.routes.router import plan_group_routing
from repro.core.captured_model import CapturedModel, ModelCoverage
from repro.core.quality import ModelQuality
from repro.db.constraints import extract_constraints
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.fitting.families import Constant, LinearModel, PowerLaw
from repro.fitting.grouped import GroupedFitResult, GroupedFitter, GroupFitRecord
from repro.fitting.model import FitResult, ModelFamily

from tests.conftest import APPROX

REL = 1e-12


# ---------------------------------------------------------------------------
# The reference: one row, one group, one scalar at a time
# ---------------------------------------------------------------------------


def reference_group_rows(table: Table, group_columns) -> dict[tuple, list[int]]:
    """Row positions per group key, first occurrence first; NULL keys skipped."""
    key_lists = [table.column(name).to_pylist() for name in group_columns]
    groups: dict[tuple, list[int]] = {}
    for row in range(table.num_rows):
        key = tuple(keys[row] for keys in key_lists)
        if any(part is None for part in key):
            continue
        groups.setdefault(key, []).append(row)
    return groups


def reference_aggregates(
    fit: FitResult,
    input_columns,
    restriction,
    observations: float,
    scale: float,
    stale_rows: float | None,
    active: bool,
    null_fraction: float,
    specs,
) -> dict[str, tuple] | None:
    """``{aggregate name: (value, standard error)}`` for one group, or None
    when the restriction keeps no domain point."""
    combos = list(itertools.product(*[restriction.domains[name] for name in input_columns]))
    weight_combos = list(itertools.product(*[restriction.weights[name] for name in input_columns]))
    if input_columns:
        if not combos:
            return None
        arrays = {
            name: np.array([combo[i] for combo in combos], dtype=np.float64)
            for i, name in enumerate(input_columns)
        }
        predictions = [float(p) for p in fit.predict(arrays)]
        weights = [math.prod(combo) for combo in weight_combos]
    else:
        predictions = [float(fit.family.predict(np.zeros(1), fit.params)[0])]
        weights = [1.0]

    fraction = restriction.fraction
    covered = max(float(observations) * fraction * scale, 0.0)
    rse = float(fit.residual_standard_error)
    f = min(max(fraction, 0.0), 1.0)
    rows_error = 0.0 if f in (0.0, 1.0) else math.sqrt(covered / f * f * (1.0 - f))
    if stale_rows is not None:
        cardinality_error = math.hypot(rows_error, stale_rows * fraction)
    elif not active:
        cardinality_error = math.hypot(rows_error, math.sqrt(max(covered, 1.0)))
    else:
        cardinality_error = rows_error
    non_null = covered * (1.0 - null_fraction)
    null_error = math.sqrt(covered * null_fraction * (1.0 - null_fraction))

    if sum(weights) > 0.0:
        mean = sum(p * w for p, w in zip(predictions, weights)) / sum(weights)
        occupied = [p for p, w in zip(predictions, weights) if w > 0.0]
    else:
        mean = sum(predictions) / len(predictions)
        occupied = predictions

    out: dict[str, tuple] = {}
    for spec in specs:
        if spec.kind != "aggregate":
            continue
        function = spec.function
        if function == "count" and spec.argument is None:
            out[spec.name] = (round(covered), cardinality_error)
        elif function == "count":
            out[spec.name] = (round(non_null), math.hypot(cardinality_error, null_error))
        elif function == "sum":
            noise = rse * math.sqrt(2.0 * max(non_null, 1.0))
            spread = mean * math.hypot(cardinality_error, null_error)
            out[spec.name] = (mean * non_null, math.sqrt(noise * noise + spread * spread))
        elif function == "avg":
            out[spec.name] = (mean, rse / math.sqrt(len(predictions)))
        else:
            extreme = min(occupied) if function == "min" else max(occupied)
            out[spec.name] = (extreme, rse * math.sqrt(2.0 * math.log(max(covered, 2.0))))
    return out


def _live_rows(stats, group_columns) -> dict[tuple, float] | None:
    if len(group_columns) != 1:
        return None
    column = stats.columns.get(group_columns[0])
    if column is None or column.domain is None or column.domain_counts is None:
        return None
    return {(value,): float(count) for value, count in zip(column.domain, column.domain_counts)}


def reference_per_group(model: CapturedModel, stats, constraints, specs) -> dict[tuple, dict]:
    """Every fitted, predicate-admitted group of ``model`` answered on its own."""
    restriction = restricted_domains(model, stats, constraints)
    assert restriction is not None
    live = _live_rows(stats, model.group_columns)
    output = stats.columns.get(model.output_column)
    answers: dict[tuple, dict] = {}
    for record in model.fit.records:
        if record.result is None:
            continue
        if not all(constraints.admits(c, record.key[i]) for i, c in enumerate(model.group_columns)):
            continue
        if live is not None and record.key in live:
            observations, scale, stale = live[record.key], 1.0, 0.0
        else:
            observations = record.result.n_observations
            scale, stale = growth_scale(model, stats), staleness_rows(model, stats)
        answer = reference_aggregates(
            record.result,
            model.input_columns,
            restriction,
            observations,
            scale,
            stale,
            active=model.status == "active",
            null_fraction=output.null_fraction if output is not None else 0.0,
            specs=specs,
        )
        if answer is not None:
            answers[record.key] = answer
    return answers


def reference_combined(model: CapturedModel, stats, constraints, specs) -> dict[str, tuple]:
    """The range route's global aggregates: per-group answers, then combined."""
    restriction = restricted_domains(model, stats, constraints)
    live = _live_rows(stats, model.group_columns)
    groups = {
        key: answer
        for key, answer in reference_per_group(model, stats, constraints, specs).items()
        if live is None or live.get(key, 0.0) > 0.0
    }
    covered = {}
    for key in groups:
        record = next(r for r in model.fit.records if r.key == key)
        observations = live[key] if live is not None else record.result.n_observations * growth_scale(model, stats)
        covered[key] = observations * restriction.fraction
    total = sum(covered.values())
    out: dict[str, tuple] = {}
    for spec in specs:
        pairs = [groups[key][spec.name] for key in groups]
        if spec.function in ("count", "sum"):
            out[spec.name] = (sum(v for v, _ in pairs), math.sqrt(sum(e * e for _, e in pairs)))
        elif spec.function == "avg":
            weights = [covered[key] / total for key in groups]
            out[spec.name] = (
                sum(w * v for w, (v, _) in zip(weights, pairs)),
                math.sqrt(sum((w * e) ** 2 for w, (_, e) in zip(weights, pairs))),
            )
        else:
            chooser = min if spec.function == "min" else max
            index = chooser(range(len(pairs)), key=lambda i: pairs[i][0])
            rse = next(r for r in model.fit.records if r.key == list(groups)[index]).result.residual_standard_error
            out[spec.name] = (pairs[index][0], rse * math.sqrt(2.0 * math.log(max(total, 2.0))))
    return out


def _close(got, want) -> bool:
    return got == want or abs(got - want) <= REL * max(abs(got), abs(want))


def assert_grouped_matches(answer, reference: dict[tuple, dict]) -> None:
    """Values and errors of every model-served group equal the reference's;
    the result table carries the same numbers."""
    assert set(answer.group_values) == set(reference)
    for key, expected in reference.items():
        values, errors = answer.group_values[key], answer.group_errors[key]
        assert set(values) == set(errors) == set(expected)
        for name, (value, error) in expected.items():
            assert _close(values[name], value), (key, name, values[name], value)
            assert _close(errors[name], error), (key, name, errors[name], error)


def assert_range_matches(answer, reference: dict[str, tuple]) -> None:
    (row,) = answer.table.to_rows()
    for position, name in enumerate(answer.table.schema.names):
        value, error = reference[name]
        assert _close(row[position], value), (name, row[position], value)
        assert _close(answer.column_errors[name], error), (name, answer.column_errors[name], error)


def _grouped(db: LawsDatabase, sql: str):
    """``(answer, reference)`` of a GROUP BY statement served from ``db``'s best model."""
    analysis = analyse_grouped_statement(parse(sql))
    table_name = parse(sql).table.name
    model = db.best_model(table_name, analysis.output_column)
    stats = db.database.stats(table_name)
    reference = reference_per_group(model, stats, analysis.constraints, analysis.specs)
    return db.query(sql, APPROX).approx, reference


def _ranged(db: LawsDatabase, sql: str, output: str):
    statement = parse(sql)
    model = db.best_model(statement.table.name, output)
    specs, _ = analyse_select_items(statement, group_columns=())
    constraints = extract_constraints(statement.where)
    stats = db.database.stats(statement.table.name)
    return db.query(sql, APPROX).approx, reference_combined(model, stats, constraints, specs)


ALL_AGGREGATES = "count(*) AS n, count(y) AS c, sum(y) AS s, avg(y) AS m, min(y) AS lo, max(y) AS hi"


def _linear_db(seed: int = 7, groups: int = 6, skew: bool = True, null_outputs: int = 0) -> LawsDatabase:
    """``t(g, x, y)``: per-group linear laws over a skewed integer x domain."""
    rng = np.random.default_rng(seed)
    g, x, y = [], [], []
    for group in range(groups):
        for value in range(5):
            for _ in range(3 + (4 * value if skew else 4)):
                g.append(group)
                x.append(float(value))
                y.append(1.5 + 0.7 * group + (0.4 + 0.1 * group) * value + rng.normal(0.0, 0.1))
    y = y + [None] * null_outputs
    g = g + [0] * null_outputs
    x = x + [2.0] * null_outputs
    db = LawsDatabase(ingest_batch_size=64)
    db.load_dict("t", {"g": g, "x": x, "y": y})
    return db


# ---------------------------------------------------------------------------
# Answering: batched route == per-group reference
# ---------------------------------------------------------------------------


class TestBatchedEqualsPerGroup:
    @pytest.mark.parametrize("where", ["", " WHERE x BETWEEN 1 AND 3", " WHERE x IN (0, 4) AND g >= 2"])
    def test_linear_family_every_aggregate(self, where):
        db = _linear_db(null_outputs=3)
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        answer, reference = _grouped(db, f"SELECT g, {ALL_AGGREGATES} FROM t{where} GROUP BY g")
        assert answer.route == "grouped-model"
        assert len(reference) == (4 if "g >=" in where else 6)
        assert_grouped_matches(answer, reference)
        # The table is the same numbers, one row per group.
        names = answer.table.schema.names
        for row in answer.rows():
            for name, cell in zip(names[1:], row[1:]):
                assert _close(cell, reference[(row[0],)][name][0])

    def test_range_route_combines_groups(self):
        db = _linear_db(null_outputs=3)
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        answer, reference = _ranged(db, f"SELECT {ALL_AGGREGATES} FROM t WHERE x BETWEEN 1 AND 3 AND g <= 4", "y")
        assert answer.route == "range-aggregate"
        assert_range_matches(answer, reference)

    def test_nonlinear_family_power_law(self, lofar_db):
        sql = (
            "SELECT source, count(*) AS n, sum(intensity) AS s, avg(intensity) AS m, "
            "min(intensity) AS lo, max(intensity) AS hi FROM measurements "
            "WHERE frequency > 0.13 GROUP BY source"
        )
        answer, reference = _grouped(lofar_db, sql)
        assert answer.route == "grouped-model"
        assert len(reference) == 120
        assert_grouped_matches(answer, reference)
        ranged, combined = _ranged(
            lofar_db,
            "SELECT avg(intensity) AS m, max(intensity) AS hi, count(*) AS n FROM measurements WHERE frequency > 0.13",
            "intensity",
        )
        assert ranged.route == "range-aggregate"
        assert_range_matches(ranged, combined)

    def test_multi_column_and_string_keys(self):
        rng = np.random.default_rng(3)
        region, unit, x, y = [], [], [], []
        for r_index, r in enumerate(["north", "south", "east"]):
            for u in (10, 20):
                for value in range(4):
                    for _ in range(6):
                        region.append(r)
                        unit.append(u)
                        x.append(float(value))
                        y.append(2.0 + r_index + 0.01 * u + 0.5 * value + rng.normal(0.0, 0.05))
        db = LawsDatabase()
        db.load_dict("t", {"region": region, "unit": unit, "x": x, "y": y})
        report = db.fit("t", "y ~ linear(x)", group_by=["region", "unit"])
        assert report.accepted
        # Capture numbered the groups by first occurrence, keys as python values.
        assert [r.key for r in report.model.fit.records] == [
            (r, u) for r in ("north", "south", "east") for u in (10, 20)
        ]
        answer, reference = _grouped(
            db, f"SELECT region, unit, {ALL_AGGREGATES} FROM t WHERE x >= 1 GROUP BY region, unit"
        )
        assert answer.route == "grouped-model"
        assert len(reference) == 6
        assert_grouped_matches(answer, reference)

    def test_failed_and_too_small_groups_are_left_to_exact(self):
        rng = np.random.default_rng(5)
        g, x, y = [], [], []
        for group in range(5):
            for value in range(4):
                # Group 3 keeps 2 observations: below the 3 a line needs.
                for _ in range(8 if group != 3 or value < 1 else 0):
                    g.append(group)
                    x.append(float(value))
                    y.append(1.0 + group + 0.6 * value + rng.normal(0.0, 0.1))
        db = LawsDatabase()
        db.load_dict("t", {"g": g[:-6], "x": x[:-6], "y": y[:-6]})  # group 4 loses rows too
        report = db.fit("t", "y ~ linear(x)", group_by="g", min_observations=9)
        failed = [r.key for r in report.model.fit.records if not r.succeeded]
        assert failed == [(3,)]
        answer, reference = _grouped(db, f"SELECT g, {ALL_AGGREGATES} FROM t GROUP BY g")
        assert answer.route == "grouped-hybrid"
        assert answer.group_routes[(3,)] == "exact" and (3,) not in reference
        assert_grouped_matches(answer, reference)
        # A global aggregate cannot leave the failed group out: the range route declines.
        ranged = db.query("SELECT sum(y) AS s FROM t WHERE x >= 1", APPROX).approx
        assert ranged.route != "range-aggregate"

    def test_stale_model_uses_live_catalog_counts(self):
        db = _linear_db(skew=False)
        report = db.fit("t", "y ~ linear(x)", group_by="g")
        rng = np.random.default_rng(11)
        # Growth lands in group 0 only; the catalog's per-value counts see it.
        db.ingest("t", [(0, float(v), 1.5 + 0.4 * v + rng.normal(0.0, 0.1)) for v in range(5) for _ in range(20)], flush=True)
        assert report.model.status == "stale"
        answer, reference = _grouped(db, f"SELECT g, {ALL_AGGREGATES} FROM t WHERE x <= 3 GROUP BY g")
        assert answer.route == "grouped-model"
        assert reference[(0,)]["n"][0] > reference[(1,)]["n"][0]
        assert_grouped_matches(answer, reference)
        ranged, combined = _ranged(db, f"SELECT {ALL_AGGREGATES} FROM t WHERE x <= 3", "y")
        assert ranged.route == "range-aggregate"
        assert_range_matches(ranged, combined)

    @pytest.mark.parametrize("status", ["active", "stale"])
    def test_partial_segment_model_without_live_counts(self, status):
        """Multi-column keys have no live per-group counts and a partial model
        no knowable growth: fit-time cardinalities, and (stale) the sqrt(n)
        allowance."""
        rng = np.random.default_rng(13)
        a, b, x, y = [], [], [], []
        for key_a in (1, 2):
            for key_b in (1, 2, 3):
                for value in range(4):
                    for _ in range(5):
                        a.append(key_a)
                        b.append(key_b)
                        x.append(float(value))
                        y.append(key_a + 0.3 * key_b + 0.8 * value + rng.normal(0.0, 0.05))
        db = LawsDatabase()
        db.load_dict("t", {"a": a, "b": b, "x": x, "y": y})
        report = db.fit("t", "y ~ linear(x)", group_by=["a", "b"], predicate_sql="x <= 2")
        model = report.model
        assert not model.coverage.covers_whole_table
        model.status = status
        sql = f"SELECT a, b, {ALL_AGGREGATES} FROM t WHERE x >= 1 GROUP BY a, b"
        analysis = analyse_grouped_statement(parse(sql))
        stats = db.database.stats("t")
        # Planned by hand: on its own a partial model cannot prove the group
        # set complete, which is the planner's concern, not the evaluation's.
        keys = [record.key for record in model.fit.records]
        routing = plan_group_routing(db.models, "t", "y", ("a", "b"), keys, models=[model])
        route_plan = GroupedRoutePlan(analysis, [model], routing, output_null_fraction=0.0)
        answer = db.approx.answer(sql, allow_fallback=False, grouped_route_plan=route_plan)
        assert answer.route == "grouped-model"
        assert_grouped_matches(answer, reference_per_group(model, stats, analysis.constraints, analysis.specs))

    def test_input_free_constant_model(self):
        """A model with no inputs predicts one value per group."""
        family = Constant()
        levels = {(1,): 4.0, (2,): -2.5, (3,): 0.125}
        records = [
            GroupFitRecord(
                key=key,
                n_observations=10 * key[0],
                result=FitResult(
                    family=family, params=np.array([level]), input_names=(), output_name="y",
                    n_observations=10 * key[0], residual_standard_error=0.1 * key[0],
                    r_squared=0.9, adjusted_r_squared=0.9, sum_squared_residuals=1.0,
                ),
            )
            for key, level in levels.items()
        ]  # fmt: skip
        fit = GroupedFitResult(family=family, group_columns=("g",), input_columns=(), output_column="y", records=records)
        db = LawsDatabase()
        db.load_dict("t", {"g": [k[0] for k in levels for _ in range(10 * k[0])], "y": [v for k, v in levels.items() for _ in range(10 * k[0])]})
        model = db.models.add(CapturedModel(
            coverage=ModelCoverage("t", (), "y", ("g",)), formula="y ~ constant()", fit=fit,
            quality=ModelQuality(0.9, 0.9, 0.1, 60), accepted=True, fitted_row_count=60,
        ))  # fmt: skip
        sql = f"SELECT g, {ALL_AGGREGATES} FROM t GROUP BY g"
        analysis = analyse_grouped_statement(parse(sql))
        stats = db.database.stats("t")
        answer = db.query(sql, APPROX).approx
        assert answer.route == "grouped-model" and answer.virtual_rows_generated == 3
        assert_grouped_matches(answer, reference_per_group(model, stats, analysis.constraints, analysis.specs))
        assert answer.group_values[(2,)]["m"] == -2.5 and answer.group_values[(3,)]["n"] == 30

    def test_empty_restriction(self):
        db = _linear_db()
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        answer, reference = _grouped(db, f"SELECT g, {ALL_AGGREGATES} FROM t WHERE x > 99 GROUP BY g")
        assert reference == {}
        assert answer.route == "grouped-model"
        assert answer.rows() == [] and len(answer.group_values) == 0 and answer.column_errors["m"] == 0.0
        assert all("empty restriction" in route for route in answer.group_routes.values())
        ranged = db.query(f"SELECT {ALL_AGGREGATES} FROM t WHERE x > 99", APPROX).approx
        assert ranged.route == "range-aggregate"
        assert ranged.rows() == [(0, 0, None, None, None, None)]

    def test_single_fit_is_the_one_group_case(self):
        """An ungrouped model's range answer is the G = 1 call of the same code."""
        db = _linear_db(groups=1, null_outputs=2)
        assert db.fit("t", "y ~ linear(x)").accepted
        sql = f"SELECT {ALL_AGGREGATES} FROM t WHERE x BETWEEN 1 AND 3"
        statement = parse(sql)
        model = db.best_model("t", "y")
        specs, _ = analyse_select_items(statement, group_columns=())
        constraints = extract_constraints(statement.where)
        stats = db.database.stats("t")
        reference = reference_aggregates(
            model.fit, model.input_columns, restricted_domains(model, stats, constraints),
            observations=stats.row_count, scale=1.0, stale_rows=0.0, active=True,
            null_fraction=stats.columns["y"].null_fraction, specs=specs,
        )  # fmt: skip
        answer = db.query(sql, APPROX).approx
        assert answer.route == "range-aggregate"
        assert_range_matches(answer, reference)


# ---------------------------------------------------------------------------
# Capture: factorised grouping == the row loop
# ---------------------------------------------------------------------------


class TestCapture:
    def _table(self) -> Table:
        rng = np.random.default_rng(2)
        region = ["b", "a", None, "b", "c", "a", "b", None, "c", "a"] * 6
        unit = [2, 1, 1, 2, None, 1, 3, 2, 2, 1] * 6
        x = rng.uniform(0.0, 5.0, len(region))
        return Table.from_dict(
            "t", {"region": region, "unit": unit, "x": x.tolist(), "y": (1.0 + 2.0 * x).tolist()}
        )

    def test_records_follow_first_occurrence_and_skip_null_keys(self):
        table = self._table()
        grouped = GroupedFitter(LinearModel(("x",)), ["x"], "y", ["region", "unit"]).fit(table)
        expected = reference_group_rows(table, ["region", "unit"])
        assert [record.key for record in grouped.records] == list(expected)
        assert list(expected)[:3] == [("b", 2), ("a", 1), ("b", 3)]
        assert all(None not in record.key for record in grouped.records)
        assert [record.n_observations for record in grouped.records] == [len(rows) for rows in expected.values()]
        # Each group was fitted on exactly its own rows.
        x, y = table.column("x").to_numpy(), table.column("y").to_numpy()
        for record, rows in zip(grouped.records, expected.values()):
            assert np.allclose(record.result.predict({"x": x[rows]}), y[rows])

    def test_all_null_group_column_fits_nothing(self):
        table = Table.from_dict("t", {"g": [None, None, None], "x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        grouped = GroupedFitter(LinearModel(("x",)), ["x"], "y", ["g"]).fit(table)
        assert grouped.records == [] and grouped.stacked().params.shape == (0, 2)
        assert grouped.result_for(1) is None

    def test_stacked_view_tracks_appended_records(self):
        """``records`` stays the source of truth (the warehouse restore path
        appends to it); the stacked view and the key lookup follow."""
        table = self._table()
        grouped = GroupedFitter(LinearModel(("x",)), ["x"], "y", ["region"], min_observations=15).fit(table)
        assert [r.key for r in grouped.failed] == [("c",)]
        view = grouped.stacked()
        assert view.params.shape == (3, 2) and np.isnan(view.params[2]).all() and np.isnan(view.rse[2])
        assert view.n_obs.tolist() == [18.0, 18.0, 12.0]
        assert grouped.result_for("a") is grouped.records[1].result and grouped.result_for("c") is None
        extra = dataclasses.replace(grouped.records[0], key=("z",))
        grouped.records.append(extra)
        assert grouped.result_for("z") is extra.result
        assert grouped.stacked().params.shape == (4, 2)

    def test_per_row_predictions_match_the_row_loop(self):
        table = self._table()
        grouped = GroupedFitter(LinearModel(("x",)), ["x"], "y", ["region", "unit"], min_observations=7).fit(table)
        x = table.column("x").to_numpy()
        expected = np.full(table.num_rows, np.nan)
        for key, rows in reference_group_rows(table, ["region", "unit"]).items():
            fit = grouped.result_for(key)
            if fit is not None:
                expected[rows] = fit.predict({"x": x[rows]})
        keys = [table.column("region"), table.column("unit")]
        assert np.array_equal(grouped.predict_rows({"x": x}, keys), expected, equal_nan=True)
        # Plain value lists are accepted too; unfitted rows take the caller's fill.
        lists = [column.to_pylist() for column in keys]
        filled = grouped.predict_rows({"x": x}, lists, fill=0.0)
        assert np.array_equal(filled, np.nan_to_num(expected))
        assert np.isnan(expected).any() and not np.isnan(expected).all()


# ---------------------------------------------------------------------------
# Scaling guard: model evaluations per query do not grow with the groups
# ---------------------------------------------------------------------------


def _lofar_shaped(num_sources: int, family: str) -> LawsDatabase:
    """``measurements(source, frequency, intensity)``: one law per source over
    eight shared frequencies, captured per source."""
    rng = np.random.default_rng(num_sources)
    frequencies = np.linspace(0.12, 0.18, 8)
    source = np.repeat(np.arange(num_sources), len(frequencies))
    frequency = np.tile(frequencies, num_sources)
    p = rng.uniform(1.0, 5.0, num_sources)[source]
    alpha = rng.uniform(-1.2, -0.4, num_sources)[source]
    if family == "powerlaw":
        clean = p * frequency**alpha
    else:
        clean = p + 10.0 * alpha * frequency
    intensity = clean * (1.0 + rng.normal(0.0, 0.002, len(source)))
    db = LawsDatabase(observability=False)
    db.register_table(
        Table.from_dict(
            "measurements",
            {"source": source.tolist(), "frequency": frequency.tolist(), "intensity": intensity.tolist()},
        )
    )
    assert db.fit("measurements", f"intensity ~ {family}(frequency)", group_by="source").accepted
    return db


@contextlib.contextmanager
def _counting_model_evaluations():
    """Counts every call that evaluates a model family, by method name."""
    calls: collections.Counter = collections.Counter()

    def counted(original, name):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    with contextlib.ExitStack() as stack:
        for cls in (ModelFamily, PowerLaw, LinearModel):
            for name in ("predict", "predict_many", "design_matrix", "jacobian"):
                if name in vars(cls):
                    stack.enter_context(
                        mock.patch.object(cls, name, counted(vars(cls)[name], f"{cls.__name__}.{name}"))
                    )
        yield calls


@pytest.mark.parametrize("family, many", [("powerlaw", 600), ("linear", 5000)])
def test_model_evaluations_per_query_do_not_depend_on_the_group_count(family, many):
    grouped_sql = "SELECT source, avg(intensity) AS m, max(intensity) AS hi, count(*) AS n FROM measurements GROUP BY source"
    ranged_sql = "SELECT avg(intensity) AS m, sum(intensity) AS s FROM measurements WHERE frequency BETWEEN 0.13 AND 0.17"
    counts = {}
    for num_sources in (25, many):
        db = _lofar_shaped(num_sources, family)
        with _counting_model_evaluations() as calls:
            grouped = db.query(grouped_sql, APPROX).approx
            ranged = db.query(ranged_sql, APPROX).approx
        counts[num_sources] = dict(calls)
        grouped_reference = _grouped(db, grouped_sql)[1]
        ranged_reference = _ranged(db, ranged_sql, "intensity")[1]
        assert (grouped.route, ranged.route) == ("grouped-model", "range-aggregate")
        assert grouped.table.num_rows == len(grouped_reference) == num_sources
        assert_grouped_matches(grouped, grouped_reference)
        assert_range_matches(ranged, ranged_reference)
    assert counts[25] == counts[many]
    # One batched evaluation per query: two queries, two calls.
    assert counts[many].get(f"{'PowerLaw' if family == 'powerlaw' else 'ModelFamily'}.predict_many") == 2
    assert sum(counts[many].values()) <= 4
