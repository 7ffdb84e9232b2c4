"""The grouped route's routing plan against a per-key oracle.

The plan is vectors over one typed key set: the requested keys (one column
per group column, ascending), ``owner`` (the serving candidate among the
ranked ones, −1 = exact) and ``row`` (the owner's parameter row).  The
oracle below is the obvious per-key loop: gather every candidate's keys and,
for one group column, the catalog domain; keep what the WHERE clause admits;
sort the tuples; then give each key to the first ranked candidate whose row
holds a fit with finite parameters.

NumPy only, seeded, no Hypothesis: this file runs in the ``no-scipy`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LawsDatabase
from repro.core.approx.routes.grouped import _requested_group_keys
from repro.core.approx.routes.router import plan_group_routing
from repro.db.constraints import extract_constraints
from repro.db.sql.parser import parse_expression

from tests.conftest import APPROX, EXACT, per_group


def oracle(candidates, stats, group_columns, constraints):
    """``(requested keys, owner, row, used model ids, ranked models)``, one key at a time."""
    keys: dict[tuple, None] = {}
    for model in candidates:
        columns = [model.fit.key_columns[model.group_columns.index(c)].to_pylist() for c in group_columns]
        keys.update(dict.fromkeys(zip(*columns)))
    if len(group_columns) == 1:
        column_stats = stats.columns.get(group_columns[0])
        if column_stats is not None and column_stats.domain is not None:
            for value in column_stats.domain:
                keys.setdefault((value,), None)
    requested = sorted(
        key for key in keys if all(constraints.admits(c, key[i]) for i, c in enumerate(group_columns))
    )
    ranked = sorted(
        (m for m in candidates if m.is_servable),
        key=lambda m: (m.status == "active", m.quality.adjusted_r_squared, m.model_id),
        reverse=True,
    )
    indexes = []
    for model in ranked:
        fit = model.fit
        columns = [fit.key_columns[model.group_columns.index(c)].to_pylist() for c in group_columns]
        indexes.append({key: row for row, key in enumerate(zip(*columns)) if fit.errors[row] is None})
    owner, rows, used = [], [], []
    for key in requested:
        served = (-1, -1)
        for position, (model, index) in enumerate(zip(ranked, indexes)):
            row = index.get(key)
            if row is not None and np.isfinite(model.fit.params[row]).all():
                served = (position, row)
                break
        owner.append(served[0])
        rows.append(served[1])
        if served[0] >= 0 and ranked[served[0]].model_id not in used:
            used.append(ranked[served[0]].model_id)
    return requested, owner, rows, used, ranked


def _table(rng, groups=12, fail=(3, 7)):
    """``t(g, s, b, h, x, y)``: ``g`` INT64, ``s`` STRING and ``b`` BOOL name
    the same groups (``b`` two of them), ``h = g % 3``; groups in ``fail``
    keep too few rows for a fit with ``min_observations=9``."""
    data: dict[str, list] = {name: [] for name in "gsbhxy"}
    for g in range(groups):
        xs = 2 if g in fail else 5
        for x in range(xs):
            for _ in range(2 if g in fail else int(rng.integers(3, 7))):
                data["g"].append(g)
                data["s"].append(f"k{g:02d}")
                data["b"].append(bool(g % 2))
                data["h"].append(g % 3)
                data["x"].append(float(x))
                data["y"].append(1.0 + 0.5 * g + 0.7 * x + rng.normal(0.0, 0.1))
    return data


def _append(db):
    """New rows: a group the captures never saw (``g = 40``) and one more row of ``g = 2``."""
    db.ingest("t", {
        "g": [40, 40, 2], "s": ["k40", "k40", "k02"], "b": [True, True, False],
        "h": [1, 1, 2], "x": [1.0, 2.0, 1.0], "y": [3.0, 4.0, 2.5],
    }, flush=True)  # fmt: skip


def _assert_plan_is_the_oracle(db, group_columns, where, candidates):
    stats = db.database.stats("t")
    constraints = extract_constraints(parse_expression(where) if where else None)
    keys = _requested_group_keys(candidates, stats, group_columns, constraints)
    plan = plan_group_routing(candidates, group_columns, keys)
    requested, owner, rows, used, ranked = oracle(candidates, stats, group_columns, constraints)

    table = db.database.table("t")
    assert [column.dtype for column in keys] == [table.column(c).dtype for c in group_columns]
    assert list(zip(*(column.to_pylist() for column in keys))) == requested
    assert [m.model_id for m in plan.models] == [m.model_id for m in ranked]
    assert plan.owner.tolist() == owner
    assert plan.row.tolist() == rows
    assert plan.used_model_ids == used
    served = np.flatnonzero(plan.served)
    for batch in plan.batches:
        assert (plan.owner[served[batch.slots]] == plan.models.index(batch.model)).all()
        assert batch.rows.tolist() == plan.row[served[batch.slots]].tolist()
    assert sorted(slot for b in plan.batches for slot in b.slots.tolist()) == list(range(len(served)))
    return plan


WHERES = {
    ("g",): [
        None, "g = 2", "g IN (1, 5, 99)", "g > 3 AND g <= 9", "g BETWEEN 2 AND 6",
        "g = 2.0", "g IN (1.0, 4)", "g = 'a'", "g < 4.5", "g >= 3 AND x < 2",
    ],
    ("s",): [
        None, "s = 'k02'", "s IN ('k01', 'k05', 'zz')", "s > 'k05'", "s BETWEEN 'k02' AND 'k08'", "s = 3",
    ],
    ("b",): [None, "b = TRUE", "b IN (FALSE)", "b = 1"],
    ("g", "h"): [None, "g IN (1, 2, 3) AND h = 1", "h BETWEEN 0 AND 1", "g > 5", "h = 2.0"],
    ("h", "g"): [None, "g IN (1, 2, 3)", "h = 2", "h IN (0, 'x')"],
}  # fmt: skip
CASES = [(columns, where) for columns, wheres in WHERES.items() for where in wheres]


def _captured(rng, group_columns, min_observations=None, broken_rows=()):
    db = LawsDatabase()
    db.load_dict("t", _table(rng))
    kwargs = {} if min_observations is None else {"min_observations": min_observations}
    model = db.fit("t", "y ~ linear(x)", group_by=list(group_columns), **kwargs).model
    for row in broken_rows:
        if row < model.fit.num_groups:
            model.fit.params[row] = [np.nan, np.inf][row % 2]
    return db, model


@pytest.mark.parametrize("group_columns,where", CASES)
def test_failed_and_non_finite_rows_go_to_no_model(group_columns, where):
    rng = np.random.default_rng(len(CASES) + CASES.index((group_columns, where)))
    db, model = _captured(rng, group_columns, min_observations=9, broken_rows=(1, 4))
    _assert_plan_is_the_oracle(db, group_columns, where, [model])


@pytest.mark.parametrize("group_columns,where", CASES)
def test_catalog_values_unseen_by_the_capture(group_columns, where):
    rng = np.random.default_rng(CASES.index((group_columns, where)))
    db, model = _captured(rng, group_columns)
    _append(db)
    plan = _assert_plan_is_the_oracle(db, group_columns, where, [model])
    if group_columns == ("g",) and where is None:
        assert 40 in plan.keys_where(~plan.served)[0].to_pylist()


@pytest.mark.parametrize("group_columns,where", CASES)
@pytest.mark.parametrize("stale", ["whole", "segment"])
def test_two_overlapping_candidates_active_before_stale(group_columns, where, stale):
    """A whole-table capture and a segment capture (``x <= 2``) cover the same
    groups; the segment one is grouped by the same columns in reverse order.
    Whichever is stale serves only what the active one cannot."""
    rng = np.random.default_rng(2 * len(CASES) + CASES.index((group_columns, where)))
    db, whole = _captured(rng, group_columns, min_observations=9, broken_rows=(2,))
    reverse = list(reversed(group_columns))
    segment = db.fit("t", "y ~ linear(x)", group_by=reverse, predicate_sql="x <= 2", min_observations=3).model
    (whole if stale == "whole" else segment).status = "stale"
    plan = _assert_plan_is_the_oracle(db, group_columns, where, [whole, segment])
    active = whole if stale == "segment" else segment
    if plan.served.any():
        assert plan.models[0] is active


@pytest.mark.parametrize("group_columns", [("g",), ("s",), ("g", "h")])
def test_the_answer_routes_every_requested_group_as_planned(group_columns):
    rng = np.random.default_rng(11)
    db, model = _captured(rng, group_columns, min_observations=9, broken_rows=(1,))
    if len(group_columns) == 1:
        _append(db)  # a single group column's catalog domain reveals the new group
    keys = ", ".join(group_columns)
    answer = db.query(f"SELECT {keys}, avg(y) FROM t GROUP BY {keys}", APPROX).approx
    assert answer.route == "grouped-hybrid"
    stats = db.database.stats("t")
    constraints = extract_constraints(None)
    requested, owner, _, used, _ = oracle([model], stats, group_columns, constraints)
    assert answer.used_model_ids == used
    expected = {key: model.model_id if position == 0 else -1 for key, position in zip(requested, owner)}
    # Model-served groups come first, in key order, then the exact fill-in.
    routed = {key: model_id for key, (model_id, _, _) in per_group(answer).items()}
    assert routed == expected
    assert list(routed)[: owner.count(0)] == [k for k, o in zip(requested, owner) if o == 0]


def test_hybrid_fill_in_of_many_two_column_groups():
    """1 000 groups too small to fit beside 1 200 fitted ones: the exact
    fill-in selects its groups without a predicate as deep as the groups are
    many, and the answer is the exact one (counts exactly; the noise-free
    linear law's averages to rounding)."""
    a, b, x, y = [], [], [], []
    for group in range(2200):
        xs = (1.0, 2.0, 3.0) if group < 1000 else [float(j % 5) for j in range(20)]
        for value in xs:
            a.append(group)
            b.append(group % 13)
            x.append(value)
            y.append(0.25 * group + 0.5 * value)
    db = LawsDatabase()
    db.load_dict("t", {"a": a, "b": b, "x": x, "y": y})
    db.fit("t", "y ~ linear(x)", group_by=["a", "b"], min_observations=5)
    sql = "SELECT a, b, count(*) AS n, avg(y) AS m FROM t GROUP BY a, b ORDER BY a, b"
    answer = db.query(sql, APPROX).approx
    exact = db.query(sql, EXACT).query_result.table
    assert answer.route == "grouped-hybrid"
    assert np.count_nonzero(answer.groups.model_id < 0) == 1000
    for name in ("a", "b", "n"):
        assert answer.table.column(name).to_pylist() == exact.column(name).to_pylist()
    approx_m, exact_m = answer.table.column("m").to_pylist(), exact.column("m").to_pylist()
    assert approx_m[:1000] == exact_m[:1000]
    assert approx_m[1000:] == pytest.approx(exact_m[1000:], rel=1e-9)
