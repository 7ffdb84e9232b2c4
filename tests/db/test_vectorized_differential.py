"""Differential property test: vectorized operators vs row-at-a-time oracles.

The oracles below are the seed's original dict-and-loop implementations of
global and grouped aggregation and hash join, kept verbatim.  Every seeded
query from the approx harness's query generator (plus randomized join
scenarios with NULL and duplicate keys, and empty inputs) is executed through
both the vectorized operators and the oracles, and the results must be
identical: a global aggregate bit for bit (its reductions are NumPy's own,
as the oracle's are), a grouped one up to float summation-order noise well
below any stated error bound.
"""

import math
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "approx"))

from query_gen import TableProfile, generate_queries  # noqa: E402

import repro.db.sql.planner as planner_module  # noqa: E402
from repro.db.column import Column  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.expressions import ColumnRef  # noqa: E402
from repro.db.operators.aggregate import Aggregate, AggregateSpec  # noqa: E402
from repro.db.operators.join import HashJoin  # noqa: E402
from repro.db.operators.morsel import Piece  # noqa: E402
from repro.db.operators.scan import MaterializedInput  # noqa: E402
from repro.db.schema import ColumnDef, Schema  # noqa: E402
from repro.db.table import Table  # noqa: E402
from repro.db.types import DataType  # noqa: E402
from repro.errors import ExecutionError  # noqa: E402

REL_TOL = 1e-9
ABS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Oracles: the seed's row-at-a-time implementations, verbatim
# ---------------------------------------------------------------------------


def compute_aggregate(function: str, values: np.ndarray) -> Any:
    """Compute a single aggregate over non-NULL float values."""
    function = function.lower()
    if function == "count":
        return int(len(values))
    if len(values) == 0:
        return None
    if function == "sum":
        return float(np.sum(values))
    if function == "avg":
        return float(np.mean(values))
    if function == "min":
        return float(np.min(values))
    if function == "max":
        return float(np.max(values))
    if function in ("stddev", "var"):
        if len(values) < 2:
            return 0.0
        # The deviations scaled by the largest magnitude before they are
        # squared: finite wherever the true value is.
        scale = float(np.max(np.abs(values)))
        unit_var = float(np.var(values / (scale if scale > 0 else 1.0), ddof=1))
        return math.sqrt(unit_var) * scale if function == "stddev" else unit_var * scale * scale
    raise ExecutionError(f"unsupported aggregate function {function!r}")


class OracleAggregate(Aggregate):
    """Global aggregation by one NumPy reduction per aggregate, grouped
    aggregation via python-value dict hashing (seed algorithm)."""

    def apply(self, table):
        key_columns = [expr.evaluate(table) for expr in self.group_by]
        agg_inputs = []
        for spec in self.aggregates:
            if spec.expression is None:
                agg_inputs.append(None)
            else:
                agg_inputs.append(spec.expression.evaluate(table))

        if not self.group_by:
            return self._global_aggregate(table, agg_inputs)
        return self._grouped_aggregate(table, key_columns, agg_inputs)

    def _global_aggregate(self, table, agg_inputs):
        values = {}
        defs = []
        for spec, column in zip(self.aggregates, agg_inputs):
            values[spec.name] = [self._aggregate_one(spec, column, table.num_rows)]
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        columns = {
            name: Column.from_values(next(d.dtype for d in defs if d.name == name), vals)
            for name, vals in values.items()
        }
        return Table("aggregate", Schema(defs), columns)

    def _grouped_aggregate(self, table, key_columns, agg_inputs):
        groups = {}
        key_lists = [column.to_pylist() for column in key_columns]
        for row_index in range(table.num_rows):
            key = tuple(key_list[row_index] for key_list in key_lists)
            groups.setdefault(key, []).append(row_index)

        key_names = []
        for expr in self.group_by:
            key_names.append(expr.name if isinstance(expr, ColumnRef) else expr.output_name())

        out_values = {name: [] for name in key_names}
        for spec in self.aggregates:
            out_values[spec.name] = []

        for key, indices in groups.items():
            for name, key_value in zip(key_names, key):
                out_values[name].append(key_value)
            row_indices = np.array(indices, dtype=np.int64)
            for spec, column in zip(self.aggregates, agg_inputs):
                subset = column.take(row_indices) if column is not None else None
                out_values[spec.name].append(self._aggregate_one(spec, subset, len(indices)))

        defs = []
        columns = {}
        for name, key_column in zip(key_names, key_columns):
            columns[name] = Column.from_values(key_column.dtype, out_values[name])
            defs.append(ColumnDef(name, key_column.dtype))
        for spec in self.aggregates:
            columns[spec.name] = Column.from_values(spec.output_dtype, out_values[spec.name])
            defs.append(ColumnDef(spec.name, spec.output_dtype))
        return Table("aggregate", Schema(defs), columns)

    @staticmethod
    def _aggregate_one(spec: AggregateSpec, column: Column | None, group_size: int) -> Any:
        function = spec.function.lower()
        if column is None:
            if function != "count":
                raise ExecutionError(f"aggregate {function!r} requires an argument")
            return group_size
        if function == "count":
            return group_size - column.null_count
        if not column.dtype.is_numeric:
            raise ExecutionError(f"aggregate {function!r} requires a numeric argument")
        return compute_aggregate(function, column.nonnull_numpy().astype(np.float64, copy=False))


class OracleHashJoin(HashJoin):
    """Inner equi-join via per-row python loops (seed algorithm)."""

    def _match(self, left_table, right_table, pair_right):
        """The loop's matches, as one piece of left rows and one of right rows."""
        build = {}
        right_key_lists = [right_table.column(k).to_pylist() for k in self.right_keys]
        for row_index in range(right_table.num_rows):
            key = tuple(key_list[row_index] for key_list in right_key_lists)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(row_index)

        left_indices = []
        right_indices = []
        left_key_lists = [left_table.column(k).to_pylist() for k in self.left_keys]
        for row_index in range(left_table.num_rows):
            key = tuple(key_list[row_index] for key_list in left_key_lists)
            if any(part is None for part in key):
                continue
            for match in build.get(key, ()):
                left_indices.append(row_index)
                right_indices.append(match)
        count = len(left_indices)
        return (
            [Piece(0, left_table.num_rows, np.array(left_indices, dtype=np.int64), count)],
            [Piece(0, right_table.num_rows, np.array(right_indices, dtype=np.int64), count)],
        )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _cell_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return (
            abs(float(a) - float(b)) <= ABS_TOL + REL_TOL * max(abs(float(a)), abs(float(b)))
        )
    return a == b


def _assert_bits_identical(vectorized, oracle, context):
    """Same schema, and every column stored bit for bit — a NaN, a NULL and
    the value under a NULL alike."""
    assert vectorized.schema.names == oracle.schema.names, context
    for name in vectorized.schema.names:
        v, o = vectorized.column(name), oracle.column(name)
        assert v.dtype is o.dtype, f"{context}: {name}"
        assert np.array_equal(v.validity, o.validity), f"{context}: {name} validity"
        assert v.values.tobytes() == o.values.tobytes(), (
            f"{context}: {name}: {v.values!r} != {o.values!r}"
        )


def _assert_tables_identical(vectorized, oracle, context):
    assert vectorized.schema.names == oracle.schema.names, context
    assert [c.dtype for c in vectorized.schema] == [c.dtype for c in oracle.schema], context
    v_rows = vectorized.to_rows()
    o_rows = oracle.to_rows()
    assert len(v_rows) == len(o_rows), f"{context}: {len(v_rows)} vs {len(o_rows)} rows"
    for i, (vr, orow) in enumerate(zip(v_rows, o_rows)):
        for j, (a, b) in enumerate(zip(vr, orow)):
            assert _cell_equal(a, b), (
                f"{context}: row {i} col {vectorized.schema.names[j]}: {a!r} != {b!r}"
            )


# ---------------------------------------------------------------------------
# SQL-level differential over the seeded query generator
# ---------------------------------------------------------------------------

GROUPS = tuple(range(8))
X_DOMAIN = tuple(float(v) for v in range(5))

PROFILE = TableProfile(
    name="readings",
    group_column="g",
    input_column="x",
    output_column="y",
    group_values=GROUPS,
    input_domain=X_DOMAIN,
    input_low=min(X_DOMAIN),
    input_high=max(X_DOMAIN),
)


def _readings_with_nulls(rng, rows=600):
    """Synthetic rows with NULLs sprinkled into both the key and the value."""
    g = [int(v) if rng.random() > 0.06 else None for v in rng.integers(0, len(GROUPS), rows)]
    x = [float(X_DOMAIN[int(i)]) for i in rng.integers(0, len(X_DOMAIN), rows)]
    y = [float(v) if rng.random() > 0.08 else None for v in rng.normal(10.0, 4.0, rows)]
    return {"g": g, "x": x, "y": y}


def _fresh_db(data):
    db = Database()
    schema = Schema(
        [
            ColumnDef("g", DataType.INT64),
            ColumnDef("x", DataType.FLOAT64),
            ColumnDef("y", DataType.FLOAT64),
        ]
    )
    db.register_table(Table.from_dict("readings", data, schema))
    return db


@pytest.mark.parametrize("seed", [11, 401])
def test_seeded_query_workload_matches_oracle(monkeypatch, seed):
    """Generator queries produce identical results via oracle and vectorized ops."""
    rng = np.random.default_rng(seed)
    data = _readings_with_nulls(rng)
    queries = generate_queries(rng, PROFILE, count=60)

    db = _fresh_db(data)
    vectorized_results = [db.query(q.sql) for q in queries]

    oracle_db = _fresh_db(data)
    monkeypatch.setattr(planner_module, "Aggregate", OracleAggregate)
    oracle_results = [oracle_db.query(q.sql) for q in queries]

    for query, vec, orc in zip(queries, vectorized_results, oracle_results):
        _assert_tables_identical(vec, orc, query.sql)
        if query.shape == "range":  # a global aggregate
            _assert_bits_identical(vec, orc, query.sql)


def test_empty_table_workload_matches_oracle(monkeypatch):
    """Every generated query shape agrees on a completely empty table."""
    rng = np.random.default_rng(7)
    empty = {"g": [], "x": [], "y": []}
    queries = generate_queries(rng, PROFILE, count=20)

    db = _fresh_db(empty)
    vectorized_results = [db.query(q.sql) for q in queries]

    oracle_db = _fresh_db(empty)
    monkeypatch.setattr(planner_module, "Aggregate", OracleAggregate)
    oracle_results = [oracle_db.query(q.sql) for q in queries]

    for query, vec, orc in zip(queries, vectorized_results, oracle_results):
        _assert_tables_identical(vec, orc, query.sql)
        if query.shape == "range":  # a global aggregate
            _assert_bits_identical(vec, orc, query.sql)


def test_all_null_group_keys_match_oracle(monkeypatch):
    data = {"g": [None] * 40, "x": [1.0] * 40, "y": [float(i) for i in range(40)]}
    sql = "SELECT g, sum(y) AS s, count(y) AS n FROM readings GROUP BY g"
    vec = _fresh_db(data).query(sql)
    monkeypatch.setattr(planner_module, "Aggregate", OracleAggregate)
    orc = _fresh_db(data).query(sql)
    _assert_tables_identical(vec, orc, sql)


_GLOBAL_INPUTS = {
    "empty": [],
    "one": [2.5],
    "nulls": [1.0, None, 4.0, None, -3.25, 8.0],
    "all_null": [None, None, None],
    "nan": [1.0, float("nan"), 3.0, None],
    "inf": [1.0, float("inf"), -2.0],
    "large": [1e300, -1e300, 3e299, 1e-300],
    "spread": [float(v) for v in np.random.default_rng(5).normal(1e6, 1e-3, 5000)],
}


@pytest.mark.parametrize("dtype", [DataType.FLOAT64, DataType.INT64])
@pytest.mark.parametrize("case", sorted(_GLOBAL_INPUTS))
def test_global_aggregates_match_oracle_bit_for_bit(case, dtype):
    """Every global aggregate, over NULL, NaN, empty and wide inputs, is the
    oracle's NumPy reduction to the bit."""
    values = _GLOBAL_INPUTS[case]
    if dtype is DataType.INT64:
        values = [None if v is None or not np.isfinite(v) or abs(v) > 1e15 else int(v) for v in values]
    table = Table.from_dict("t", {"v": values}, Schema([ColumnDef("v", dtype)]))
    functions = ["count", "sum", "avg", "min", "max", "stddev", "var"]
    specs = [AggregateSpec(f, ColumnRef("v")) for f in functions] + [AggregateSpec("count", None)]
    vec = Aggregate(MaterializedInput(table), [], specs).execute()
    orc = OracleAggregate(MaterializedInput(table), [], specs).execute()
    _assert_bits_identical(vec, orc, f"{case} {dtype.value}")


# ---------------------------------------------------------------------------
# Operator-level differential for joins (the generator is single-table)
# ---------------------------------------------------------------------------


def _random_join_tables(rng, left_rows, right_rows, dtype):
    def keys(n):
        if dtype is DataType.INT64:
            raw = [int(v) for v in rng.integers(0, 12, n)]
        elif dtype is DataType.FLOAT64:
            raw = [float(v) for v in rng.integers(0, 12, n)]
        else:
            raw = [f"k{int(v)}" for v in rng.integers(0, 12, n)]
        return [None if rng.random() < 0.1 else v for v in raw]

    left = Table.from_dict(
        "l",
        {"k": keys(left_rows), "lv": [float(v) for v in rng.normal(size=left_rows)]},
        Schema([ColumnDef("k", dtype), ColumnDef("lv", DataType.FLOAT64)]),
    )
    right = Table.from_dict(
        "r",
        {"k2": keys(right_rows), "rv": [int(v) for v in rng.integers(0, 100, right_rows)]},
        Schema([ColumnDef("k2", dtype), ColumnDef("rv", DataType.INT64)]),
    )
    return left, right


@pytest.mark.parametrize("dtype", [DataType.INT64, DataType.FLOAT64, DataType.STRING])
@pytest.mark.parametrize("seed", [3, 17, 1001])
def test_random_joins_match_oracle(dtype, seed):
    rng = np.random.default_rng(seed)
    for left_rows, right_rows in [(0, 10), (10, 0), (1, 1), (40, 25), (120, 90)]:
        left, right = _random_join_tables(rng, left_rows, right_rows, dtype)
        vec = HashJoin(
            MaterializedInput(left), MaterializedInput(right), ["k"], ["k2"]
        ).execute()
        orc = OracleHashJoin(
            MaterializedInput(left), MaterializedInput(right), ["k"], ["k2"]
        ).execute()
        _assert_tables_identical(
            vec, orc, f"join dtype={dtype.value} seed={seed} rows=({left_rows},{right_rows})"
        )


def test_multi_key_mixed_dtype_joins_match_oracle():
    rng = np.random.default_rng(99)
    left = Table.from_dict(
        "l",
        {
            "a": [None if rng.random() < 0.15 else int(v) for v in rng.integers(0, 4, 60)],
            "b": [float(v) for v in rng.integers(0, 3, 60)],
        },
        Schema([ColumnDef("a", DataType.INT64), ColumnDef("b", DataType.FLOAT64)]),
    )
    right = Table.from_dict(
        "r",
        {
            # Intentionally swapped dtypes: INT64 'a' joins FLOAT64 'a2'.
            "a2": [float(v) for v in rng.integers(0, 4, 45)],
            "b2": [None if rng.random() < 0.15 else int(v) for v in rng.integers(0, 3, 45)],
        },
        Schema([ColumnDef("a2", DataType.FLOAT64), ColumnDef("b2", DataType.INT64)]),
    )
    vec = HashJoin(
        MaterializedInput(left), MaterializedInput(right), ["a", "b"], ["a2", "b2"]
    ).execute()
    orc = OracleHashJoin(
        MaterializedInput(left), MaterializedInput(right), ["a", "b"], ["a2", "b2"]
    ).execute()
    _assert_tables_identical(vec, orc, "multi-key mixed-dtype join")
