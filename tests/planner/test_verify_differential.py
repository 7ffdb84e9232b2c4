"""Verification of grouped answers against the per-key dict implementation.

Verification used to expand a grouped answer into tuple-keyed dicts, match
the exact rows to them in a Python loop and read each group's model back out
of a ``"model#<id>"`` route string.  That loop is kept here, verbatim, as the
oracle: fed the same answers (expanded by :func:`~tests.conftest.per_group`),
it must attribute the same per-model errors — within 1e-12 — record and
demote the same models in the same order and observe the same error as the
vector implementation.  Both sides run on two databases built alike, one
query sequence each; model ids are compared as capture positions.

The oracle matches the exact rows in SELECT order, so every statement here
lists its group columns in GROUP BY order (the other order is
``test_feedback_demotion.py``'s).  Seeded with NumPy, no Hypothesis.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from tests.conftest import per_group

VERIFY = AccuracyContract(mode="approx", verify_fraction=1.0)

STATEMENTS = [
    # One stale whole-table model and one active segment model overlap; the
    # group too small to fit is filled in exactly.
    "SELECT g, avg(y) AS m, sum(y) AS s, count(*) AS n FROM t GROUP BY g",
    "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g DESC LIMIT 4 OFFSET 1",
    # An aliased key; group 3's average and maximum are NaN.
    "SELECT g AS k, avg(y) AS m, max(y) AS hi FROM t WHERE x >= 7 GROUP BY g ORDER BY k",
    # An empty restriction: no group is emitted.
    "SELECT g, avg(y) AS m FROM t WHERE x > 99 GROUP BY g",
    # One model, two key columns: INT64 and STRING.
    "SELECT g, s, avg(y) AS m, count(y) AS n FROM u GROUP BY g, s",
    "SELECT g AS k, s AS kind, min(y) AS lo FROM u GROUP BY g, s ORDER BY lo LIMIT 5 OFFSET 2",
    # Only group 4's NULL outputs qualify: NULL aggregates, no evidence.
    "SELECT g, s, avg(y) AS m FROM u WHERE x > 7 GROUP BY g, s",
]


def _database(seed: int) -> LawsDatabase:
    """Two tables alike: group 0's outputs average exactly 0 (the 1e-12
    denominator rule), group 5 is too small to fit, group 3 holds a NaN
    output at x = 7 and group 4 NULL outputs at x = 7.5.  In ``t`` group 2
    drifts after the whole-table capture, which goes stale, and a segment
    capture is fitted after it; ``u`` is captured once, by two columns."""
    rng = np.random.default_rng(seed)
    rows = []
    for g in range(6):
        for s in ("p", "q"):
            for x in range(8) if g < 5 else (0, 1):
                for _ in range(3 if g < 5 else 1):
                    if g == 0:
                        y = 0.5 * (x - 3.5)
                    else:
                        y = 1.0 + g + 0.3 * (s == "q") + 0.5 * x + rng.normal(0.0, 0.05)
                    rows.append((g, s, float(x), y))
    rows += [(3, "p", 7.0, float("nan")), (4, "p", 7.5, None), (4, "q", 7.5, None)]
    db = LawsDatabase(observability=False, verify_sample_fraction=0.0)
    for table in ("t", "u"):
        db.load_dict(table, {name: [row[i] for row in rows] for i, name in enumerate("gsxy")})
    assert db.fit("t", "y ~ linear(x)", group_by="g", min_observations=9).accepted
    drift = [(2, s, float(x), 20.0 + 5.0 * x + rng.normal(0.0, 0.05)) for s in ("p", "q") for x in range(8)]
    db.insert_rows("t", drift * 4)
    assert db.fit("t", "y ~ linear(x)", group_by="g", predicate_sql="g >= 3", min_observations=9).accepted
    assert db.fit("u", "y ~ linear(x)", group_by=["g", "s"], min_observations=9).accepted
    return db


def _parent_grouped_errors(self, answer, exact) -> "dict[int, float] | None":
    """Per-model mean relative error over the groups each model served.

    Rows are matched by group key (``group_values``/``group_routes``
    carry the model-served groups and their provenance), so result
    ordering differences and exact fill-in rows cannot misalign the
    comparison.
    """
    agg_columns = set(answer.column_errors)
    key_columns = [
        name for name in answer.table.schema.names if name not in agg_columns
    ]
    positions = {name: i for i, name in enumerate(exact.schema.names)}
    if any(name not in positions for name in key_columns):
        return None
    exact_by_key = {}
    for row in exact.to_rows():
        key = tuple(row[positions[name]] for name in key_columns)
        exact_by_key[key] = {
            name: row[positions[name]] for name in agg_columns if name in positions
        }
    samples: dict[int, list[float]] = {}
    for key, values in answer.group_values.items():
        exact_values = exact_by_key.get(key)
        if exact_values is None:
            continue
        match = re.match(r"model#(\d+)", answer.group_routes.get(key, ""))
        if match is None:
            continue
        model_id = int(match.group(1))
        for column, approx_value in values.items():
            exact_value = exact_values.get(column)
            try:
                approx_f, exact_f = float(approx_value), float(exact_value)
            except (TypeError, ValueError):
                continue
            if not (math.isfinite(approx_f) and math.isfinite(exact_f)):
                continue
            denominator = abs(exact_f) if abs(exact_f) > 1e-12 else 1.0
            samples.setdefault(model_id, []).append(
                abs(approx_f - exact_f) / denominator
            )
    if not samples:
        return None
    return {
        model_id: sum(values) / len(values) for model_id, values in samples.items()
    }


def _oracle(feedback):
    """``feedback``'s grouped scoring replaced by the oracle over the dicts."""

    def grouped_errors(answer, exact):
        groups = per_group(answer)
        served = {key: (model_id, values) for key, (model_id, values, _) in groups.items() if model_id >= 0}
        as_dicts = SimpleNamespace(
            table=answer.table,
            column_errors=answer.column_errors,
            group_values={key: values for key, (_, values) in served.items()},
            group_routes={key: f"model#{model_id}" for key, (model_id, _) in served.items()},
        )
        return _parent_grouped_errors(feedback, as_dicts, exact)

    return grouped_errors


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= 1e-12 * max(abs(got), abs(want), 1.0)


def _run(db: LawsDatabase, rounds: int) -> list[tuple]:
    position = {model.model_id: n for n, model in enumerate(db.models.all_models())}
    steps = []
    for _ in range(rounds):
        for sql in STATEMENTS:
            answer = db.query(sql, VERIFY)
            feedback = answer.feedback
            steps.append((
                sql,
                answer.route_taken,
                answer.table.to_rows(),
                None if feedback is None else feedback.observed_relative_error,
                None if feedback is None else [position[i] for i in feedback.recorded_model_ids],
                None if feedback is None else [position[i] for i in feedback.demoted_model_ids],
            ))  # fmt: skip
    windows = [list(model.observed_errors) for model in db.models.all_models()]
    return steps, windows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verification_agrees_with_the_per_key_oracle(seed):
    vectors, dicts = _database(seed), _database(seed)
    dicts.planner.feedback._grouped_errors = _oracle(dicts.planner.feedback)
    got, got_windows = _run(vectors, rounds=4)
    want, want_windows = _run(dicts, rounds=4)
    for step, expected in zip(got, want):
        sql = step[0]
        assert step[:3] == expected[:3], sql
        assert _close(step[3], expected[3]), (sql, step[3], expected[3])
        assert step[4:] == expected[4:], sql
    assert len(got_windows) == len(want_windows)
    for window, expected in zip(got_windows, want_windows):
        assert len(window) == len(expected) and all(map(_close, window, expected))
    # The sequence reaches every case it is written for.
    assert any(step[1] == "grouped-hybrid" and len(step[4]) == 2 for step in got)
    assert any(step[5] for step in got)
    assert any(step[4] == [] for step in got)  # the empty restriction: no evidence
