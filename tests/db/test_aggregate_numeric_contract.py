"""The numeric contract of ``db/operators/aggregate.py``, against a rational oracle.

Hypothesis draws adversarial columns — FLOAT64 ``±1e308``, ``±1e200``, subnormals,
``-0.0``, ``1e16 + small``, NULLs; INT64 extremes — and every exact
aggregate runs in each execution shape: serial global, serial grouped (one
group and many), blocks answered from synopses (at least two complete
blocks) and partitioned over two range partitions.  The oracle is
``fractions.Fraction`` arithmetic over the non-NULL values of each group:

* COUNT, MIN and MAX are exact.  Every aggregate but COUNT is FLOAT64, so
  over an INT64 input "exact" is the extreme correctly rounded to FLOAT64.
* SUM lies within ``(n − 1)·ε·Σ|x|`` of the exact sum and AVG within that
  bound divided by ``n`` of the exact mean — or is the exact value
  correctly rounded — wherever ``Σ|x|`` is finite.
* VAR and STDDEV are finite and non-negative wherever the exact variance
  and the group's exact sum are finite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import LawsDatabase
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.db.column import BLOCK_ROWS
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType

EPS = float(np.finfo(np.float64).eps)
INT_MAX = int(np.iinfo(np.int64).max)
INT_MIN = int(np.iinfo(np.int64).min) + 1  # the minimum itself is INT64's NULL

FLOATS = st.one_of(
    st.sampled_from([1e308, -1e308, 1e200, -1e200, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1.0]),
    st.floats(-8.0, 8.0).map(lambda small: 1e16 + small),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
INTS = st.one_of(
    st.sampled_from([INT_MAX, INT_MIN, INT_MAX - 1, INT_MIN + 1, 0, 1, -1]),
    st.integers(INT_MIN, INT_MAX),
    st.none(),
)
ROWS = st.lists(st.tuples(st.integers(0, 4), FLOATS, INTS), min_size=1, max_size=30)

SCHEMA = Schema(
    [
        ColumnDef("one", DataType.INT64),
        ColumnDef("g", DataType.INT64),
        ColumnDef("x", DataType.FLOAT64),
        ColumnDef("k", DataType.INT64),
    ]
)
FUNCTIONS = ("count", "sum", "avg", "min", "max", "var", "stddev")
AGGREGATES = ", ".join(f"{f}({c})" for c in ("x", "k") for f in FUNCTIONS)
#: The only aggregates a scan answers blocks of.
ANSWERABLE = "count(*), count(x), min(x), max(x), count(k), min(k), max(k)"


def _table(name, rows):
    return Table.from_rows(name, SCHEMA, [(0, g, x, k) for g, x, k in rows])


def _finite(value: Fraction) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _check(results: dict, values: list, context: str) -> None:
    """``results`` (function → answer) against the exact values of a group."""
    n = len(values)
    where = f"{context} over {values!r}: {results!r}"
    assert results["count"] == n, where
    if n == 0:
        assert all(results[f] is None for f in results if f != "count"), where
        return
    exact = [Fraction(v) for v in values]
    for function, extreme in (("min", min), ("max", max)):
        if function in results:
            assert results[function] == float(extreme(exact)), where
    if "sum" not in results:
        return
    total, magnitude = sum(exact), sum(abs(e) for e in exact)
    if _finite(magnitude):
        bound = (n - 1) * Fraction(EPS) * magnitude
        got = results["sum"]
        assert got == float(total) or abs(Fraction(got) - total) <= bound, where
        got = results["avg"]
        assert got == float(total / n) or abs(Fraction(got) - total / n) <= bound / n, where
    if n >= 2 and _finite(total):
        mean = total / n
        variance = sum((e - mean) ** 2 for e in exact) / (n - 1)
        if _finite(variance):
            for function in ("var", "stddev"):
                got = results[function]
                assert math.isfinite(got) and got >= 0.0, f"{function}: {where}"


def _columns(row, columns, functions):
    """Per input column, ``function → answer`` from a result row."""
    out, position = {}, 0
    for column in columns:
        out[column] = dict(zip(functions, row[position : position + len(functions)]))
        position += len(functions)
    return out


def _values(rows, column, keep=lambda row: True):
    index = {"x": 1, "k": 2}[column]
    return [row[index] for row in rows if keep(row) and row[index] is not None]


def _check_global(db, table, rows, context):
    (row,) = db.database.sql(f"SELECT {AGGREGATES} FROM {table}").rows()
    for column, results in _columns(row, ("x", "k"), FUNCTIONS).items():
        _check(results, _values(rows, column), f"{context} {column}")


def _check_grouped(db, table, rows, key, context):
    groups = db.database.sql(f"SELECT {key}, {AGGREGATES} FROM {table} GROUP BY {key}").rows()
    assert sorted(row[0] for row in groups) == sorted({0 if key == "one" else row[0] for row in rows})
    for row in groups:
        keep = (lambda r: True) if key == "one" else (lambda r, g=row[0]: r[0] == g)
        for column, results in _columns(row[1:], ("x", "k"), FUNCTIONS).items():
            _check(results, _values(rows, column, keep), f"{context} {key}={row[0]} {column}")


def _database():
    db = LawsDatabase(observability=False)
    db.obs.metrics.enabled = True
    # Free dispatch: a two-partition table this small fans out.
    db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
    return db


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS)
def test_serial_global_and_grouped_aggregates_keep_the_contract(rows):
    db = _database()
    db.register_table(_table("t", rows))
    _check_global(db, "t", rows, "global")
    _check_grouped(db, "t", rows, "one", "one group")
    _check_grouped(db, "t", rows, "g", "grouped")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS)
def test_answered_blocks_and_partitions_keep_the_contract(rows):
    """Two complete blocks without a NULL, which a scan answers COUNT / MIN /
    MAX of from synopses, and the drawn rows as the tail it reads; then the
    same table over two range partitions."""
    valued = [row for row in rows if row[1] is not None and row[2] is not None]
    assume(valued)
    rows = (valued * (2 * BLOCK_ROWS // len(valued) + 1))[: 2 * BLOCK_ROWS] + rows
    db = _database()
    db.register_table(_table("t", rows))
    explained = db.database.explain(f"SELECT {ANSWERABLE} FROM t")
    assert "answered=2" in explained, explained
    (row,) = db.database.sql(f"SELECT {ANSWERABLE} FROM t").rows()
    assert row[0] == len(rows)
    for column, results in _columns(row[1:], ("x", "k"), ("count", "min", "max")).items():
        _check(results, _values(rows, column), f"answered {column}")
    _check_global(db, "t", rows, "serial")

    db.partition_table("t", partitions=2, by="g", scheme="range")
    tasks = db.obs.metrics.counter_value("partition_tasks_total")
    _check_global(db, "t", rows, "partitioned")
    _check_grouped(db, "t", rows, "g", "partitioned grouped")
    assert db.obs.metrics.counter_value("partition_tasks_total") > tasks
