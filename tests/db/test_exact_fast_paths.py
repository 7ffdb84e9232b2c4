"""Every data-dependent kernel of the exact path against its general path and a loop oracle.

The exact operators pick a kernel from what they observe in the arrays they
were handed — no NULLs, one key pair, unique build keys, integers over a
narrow span, a sorted column.  Each choice must be invisible in the result:

* join — index pairs equal a dict-of-python-values loop's, in order, whichever
  of own-codes / ranked codes, one pair / packed pairs, unique / duplicate
  build keys ran;
* grouped MIN / MAX — the ``ufunc.at`` scatters equal the sort + ``reduceat``
  reduction they replaced (kept here as the oracle), validity included;
* ``Table.filter`` / ``Column.take`` — the index gather equals the boolean
  gather, and an all-valid column's ``nonnull_numpy()`` is a read-only view
  that later appends do not reach;
* statistics — the value-count helper equals ``np.unique(return_counts=True)``
  and ``compute_table_stats`` equals the ``np.unique``-based function it
  replaced (kept here verbatim), field for field.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import lofar, sensors, tpcds_lite
from repro.db import stats as stats_module
from repro.db.column import Column
from repro.db.expressions import ColumnRef
from repro.db.operators import MaterializedInput
from repro.db.operators import join as join_module
from repro.db.operators.aggregate import Aggregate, AggregateSpec
from repro.db.operators.codes import factorize_keys
from repro.db.operators.join import HashJoin
from repro.db.schema import ColumnDef, Schema
from repro.db.stats import ColumnStats, compute_column_stats, compute_table_stats
from repro.db.table import Table
from repro.db.types import DataType, python_value

SETTINGS = settings(max_examples=150, deadline=None)
INT64 = np.iinfo(np.int64)

#: Values every key strategy draws from: few enough to collide, and holding
#: each representation of "cannot match" (None, the INT64 sentinel, NaN, ±inf,
#: a non-integral float) next to the 2**53 neighbours float64 cannot tell apart.
POOLS = {
    DataType.INT64: [0, 1, 2, 3, 5, -1, 2**53, 2**53 + 1, INT64.max, INT64.min, None],
    DataType.FLOAT64: [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, float(2**53), 1e300,
                       math.nan, math.inf, -math.inf, None],
    DataType.BOOL: [True, False, None],
    DataType.STRING: ["a", "b", "", "ab", None],
}
KEY_PAIRS = [
    (DataType.INT64, DataType.INT64),
    (DataType.BOOL, DataType.BOOL),
    (DataType.FLOAT64, DataType.FLOAT64),
    (DataType.STRING, DataType.STRING),
    (DataType.BOOL, DataType.INT64),
    (DataType.INT64, DataType.FLOAT64),
    (DataType.FLOAT64, DataType.INT64),
    (DataType.BOOL, DataType.FLOAT64),
    (DataType.INT64, DataType.STRING),
]


def _table(name: str, columns: dict[str, Column]) -> Table:
    schema = Schema([ColumnDef(n, c.dtype) for n, c in columns.items()])
    return Table(name, schema, columns)


# ---------------------------------------------------------------------------
# (a) join
# ---------------------------------------------------------------------------


def _oracle_pairs(left_columns: list[Column], right_columns: list[Column]) -> tuple[list[int], list[int]]:
    """Dict-of-python-values inner join: ``1 == 1.0 == True``, NULL never matches."""
    build: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*(c.to_pylist() for c in right_columns))):
        if None not in key:
            build.setdefault(key, []).append(row)
    left_rows, right_rows = [], []
    for row, key in enumerate(zip(*(c.to_pylist() for c in left_columns))):
        if None in key:
            continue
        for match in build.get(key, ()):
            left_rows.append(row)
            right_rows.append(match)
    return left_rows, right_rows


def _join_pairs(left_columns: list[Column], right_columns: list[Column]) -> tuple[list[int], list[int]]:
    """The row pairs a join emits, in order, read off row-number columns it hands on."""
    left_keys = {f"l{i}": c for i, c in enumerate(left_columns)}
    right_keys = {f"r{i}": c for i, c in enumerate(right_columns)}
    left = _table("l", {**left_keys, "lrow": Column(DataType.INT64, np.arange(len(left_columns[0])))})
    right = _table("r", {**right_keys, "rrow": Column(DataType.INT64, np.arange(len(right_columns[0])))})
    join = HashJoin(MaterializedInput(left), MaterializedInput(right), list(left_keys), list(right_keys))
    out = join.execute()
    return out.column("lrow").to_pylist(), out.column("rrow").to_pylist()


@st.composite
def _join_sides(draw):
    pairs = draw(st.lists(st.sampled_from(KEY_PAIRS), min_size=1, max_size=3))
    num_left = draw(st.integers(0, 24))
    num_right = draw(st.integers(0, 24))
    left = [draw(st.lists(st.sampled_from(POOLS[l]), min_size=num_left, max_size=num_left)) for l, _ in pairs]
    right = [draw(st.lists(st.sampled_from(POOLS[r]), min_size=num_right, max_size=num_right)) for _, r in pairs]
    if draw(st.booleans()):
        # Unique build keys (under python equality, the oracle's): drop every
        # right row whose key was seen before.
        seen: set[tuple] = set()
        keep = []
        for row, key in enumerate(zip(*(Column.from_values(r, v).to_pylist() for (_, r), v in zip(pairs, right)))):
            if None in key or key not in seen:
                keep.append(row)
                seen.add(key)
        right = [[values[row] for row in keep] for values in right]
    left_columns = [Column.from_values(l, values) for (l, _), values in zip(pairs, left)]
    right_columns = [Column.from_values(r, values) for (_, r), values in zip(pairs, right)]
    return left_columns, right_columns


@SETTINGS
@given(_join_sides())
def test_join_pairs_equal_the_dict_oracle(sides):
    left_columns, right_columns = sides
    assert _join_pairs(left_columns, right_columns) == _oracle_pairs(left_columns, right_columns)


@pytest.mark.parametrize("over", [0, 1], ids=["span-at-bound", "span-over-bound"])
def test_integer_build_keys_are_coded_through_their_span_up_to_the_bound(over):
    """``4 * n_build + 64`` is the widest build-key span coded through
    ``value - min``; one more and the build keys are coded by sorted search —
    same pairs either way."""
    left_values = [0, 7, 7, 3, 50, 0, None]
    right_values = [7, 0, 3, 7, None]
    bound = 4 * len(right_values) + 64
    # The smallest build key is 0, so the span is the largest key + 1.
    left_values[-1] = right_values[-1] = bound - 1 + over
    left = [Column.from_values(DataType.INT64, left_values)]
    right = [Column.from_values(DataType.INT64, right_values)]
    (dictionary,) = join_module._Build(right, left).dictionaries
    assert (dictionary.uniques is not None) == bool(over)
    assert _join_pairs(left, right) == _oracle_pairs(left, right)


@pytest.mark.parametrize("duplicates", [False, True], ids=["unique-build", "duplicate-build"])
@pytest.mark.parametrize("num_keys", [1, 2, 3])
def test_pair_expansion_runs_only_for_duplicate_build_keys(duplicates, num_keys):
    rng = np.random.default_rng(num_keys)
    right_rows = [tuple(int(v) for v in np.unravel_index(i, (4,) * num_keys)) for i in range(4**num_keys)]
    if duplicates:
        right_rows += right_rows[::3]
    left_rows = [right_rows[i] for i in rng.integers(0, len(right_rows), 40)] + [(9,) * num_keys]
    left = [Column.from_values(DataType.INT64, [row[k] for row in left_rows]) for k in range(num_keys)]
    right = [Column.from_values(DataType.INT64, [row[k] for row in right_rows]) for k in range(num_keys)]
    with mock.patch.object(join_module, "argsort_codes", wraps=join_module.argsort_codes) as sort_build:
        pairs = _join_pairs(left, right)
    assert sort_build.called == duplicates
    assert pairs == _oracle_pairs(left, right)


# ---------------------------------------------------------------------------
# (b) grouped MIN / MAX
# ---------------------------------------------------------------------------


def _sorted_segment_extremes(key_columns: list[Column], column: Column):
    """The reduction this PR deleted: cluster rows by group with a stable sort,
    ``reduceat`` each group's segment.  Groups in first-occurrence order."""
    num_rows = len(column)
    group_ids, _, num_groups = factorize_keys(key_columns, num_rows)
    row_order = np.argsort(group_ids, kind="stable")
    valid = column.validity
    sorted_vals = column.values[row_order][valid[row_order]].astype(np.float64)
    counts = np.bincount(group_ids[valid], minlength=num_groups)
    nonempty = counts > 0
    starts = np.zeros(num_groups, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    mins = np.full(num_groups, np.nan)
    maxs = np.full(num_groups, np.nan)
    if nonempty.any():
        mins[nonempty] = np.minimum.reduceat(sorted_vals, starts[nonempty])
        maxs[nonempty] = np.maximum.reduceat(sorted_vals, starts[nonempty])
    return mins, maxs, nonempty


_GROUP_VALUES = [0.0, -0.0, 1.5, -2.0, 7.0, math.inf, -math.inf, math.nan, None]


@st.composite
def _grouped_input(draw):
    num_rows = draw(st.integers(0, 40))
    key_dtype = draw(st.sampled_from([DataType.INT64, DataType.STRING, DataType.FLOAT64]))
    key_pool = draw(st.sampled_from([POOLS[key_dtype], POOLS[key_dtype][:1], POOLS[key_dtype][:3]]))
    keys = draw(st.lists(st.sampled_from(key_pool), min_size=num_rows, max_size=num_rows))
    values = draw(st.lists(st.sampled_from(_GROUP_VALUES), min_size=num_rows, max_size=num_rows))
    value_dtype = draw(st.sampled_from([DataType.FLOAT64, DataType.INT64]))
    if value_dtype is DataType.INT64:
        values = [None if v is None or not math.isfinite(v) else int(v) for v in values]
    return Column.from_values(key_dtype, keys), Column.from_values(value_dtype, values)


@SETTINGS
@given(_grouped_input())
def test_grouped_min_max_equal_the_sorted_segment_reduction(columns):
    key, value = columns
    table = _table("t", {"k": key, "v": value})
    value_ref = ColumnRef("v")
    aggregate = Aggregate(
        MaterializedInput(table),
        [ColumnRef("k")],
        [AggregateSpec("min", value_ref), AggregateSpec("max", value_ref)],
    )
    mins, maxs, nonempty = _sorted_segment_extremes([key], value)
    result = aggregate.execute()
    for name, expected in (("min(v)", mins), ("max(v)", maxs)):
        column = result.column(name)
        assert np.array_equal(column.validity, nonempty)
        assert np.array_equal(column.values, expected, equal_nan=True)

    # The mergeable state holds the same two reductions, with ±inf (the
    # merge's identities) where a group has no value.
    if len(key):
        (entry,) = aggregate.reduce(table).inputs.values()
        assert np.array_equal(entry.mins, np.where(nonempty, mins, np.inf), equal_nan=True)
        assert np.array_equal(entry.maxs, np.where(nonempty, maxs, -np.inf), equal_nan=True)


# ---------------------------------------------------------------------------
# (c) Table.filter / Column.take / nonnull_numpy
# ---------------------------------------------------------------------------


def _same_storage(a: Column, b: Column) -> bool:
    if a.dtype is not b.dtype or not np.array_equal(a.validity, b.validity):
        return False
    if a.dtype is DataType.STRING:
        return list(a.values) == list(b.values)
    return np.array_equal(a.values, b.values, equal_nan=a.dtype is DataType.FLOAT64)


@st.composite
def _column_and_mask(draw):
    dtype = draw(st.sampled_from(list(POOLS)))
    num_rows = draw(st.integers(0, 30))
    pool = POOLS[dtype] if draw(st.booleans()) else [v for v in POOLS[dtype] if v is not None]
    values = draw(st.lists(st.sampled_from(pool), min_size=num_rows, max_size=num_rows))
    mask = draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows))
    return Column.from_values(dtype, values), np.array(mask, dtype=bool)


@SETTINGS
@given(_column_and_mask())
def test_filter_and_take_equal_the_boolean_gather(drawn):
    column, mask = drawn
    expected = Column(column.dtype, column.values[mask], column.validity[mask])
    assert _same_storage(column.filter(mask), expected)
    assert _same_storage(column.take(np.flatnonzero(mask)), expected)
    table = _table("t", {"a": column, "b": column})
    filtered = table.filter(mask)
    assert filtered.num_rows == int(mask.sum())
    assert _same_storage(filtered.column("a"), expected) and _same_storage(filtered.column("b"), expected)


def test_nonnull_numpy_of_an_all_valid_column_is_a_frozen_view():
    column = Column.from_values(DataType.INT64, [3, 1, 2]).concat(Column.from_values(DataType.INT64, [4]))
    view = column.nonnull_numpy()
    assert view.tolist() == [3, 1, 2, 4]
    assert not view.flags.writeable and np.shares_memory(view, column.values)
    with pytest.raises(ValueError):
        view[0] = 9
    # An append lands in the buffer's spare capacity, beyond the view.
    longer = column.concat(Column.from_values(DataType.INT64, [5, 6]))
    assert np.shares_memory(longer.values, column.values)
    assert view.tolist() == [3, 1, 2, 4] and column.to_pylist() == [3, 1, 2, 4]
    assert column.null_count == 0 and not column.has_nulls

    with_null = Column.from_values(DataType.INT64, [3, None, 2])
    gathered = with_null.nonnull_numpy()
    assert gathered.tolist() == [3, 2] and gathered.flags.writeable
    assert with_null.null_count == 1


# ---------------------------------------------------------------------------
# (d) statistics
# ---------------------------------------------------------------------------

_rng = np.random.default_rng(22)
VALUE_COUNT_CASES = {
    "int-narrow": _rng.integers(-5, 40, 500),
    "int-wide": _rng.integers(-(2**40), 2**40, 300).repeat(2),
    "int-sorted-distinct": np.arange(10, 700, 3),
    "int-sorted-ties": np.sort(_rng.integers(0, 9, 200)),
    "int-extremes": np.array([INT64.min, INT64.max, 0, INT64.max]),
    "int-single": np.array([42]),
    "int-one-value": np.full(50, -7),
    "int-many-distinct": _rng.permutation(6000),
    "bool-mixed": _rng.random(100) < 0.3,
    "bool-one-value": np.ones(5, dtype=bool),
    "bool-sorted": np.array([False, True]),
    "float-ties": _rng.integers(0, 20, 400) / 4.0,
    "float-signed-zero": np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
    "float-infinities": np.array([np.inf, -np.inf, 1.0, np.inf, 2.0, -np.inf]),
    "float-nan": np.array([1.0, np.nan, 0.5, np.nan, 1.0]),
    "float-sorted-distinct": np.linspace(0.0, 1.0, 77),
    "float-many-distinct": _rng.normal(size=5000),
    "string": np.array(["b", "a", "b", "", "ab", "a"], dtype=object),
    "string-sorted": np.array(["a", "b", "c"], dtype=object),
}


@pytest.mark.parametrize("case", VALUE_COUNT_CASES)
def test_value_counts_equal_np_unique(case):
    data = VALUE_COUNT_CASES[case]
    values, counts = np.unique(data, return_counts=True)
    distinct, got_values, got_counts = stats_module._value_counts(data)
    assert distinct == len(values)
    if distinct > stats_module.ENUMERABLE_DISTINCT_LIMIT:
        assert got_values is None and got_counts is None
        return
    assert got_values.dtype == values.dtype
    assert got_values.tolist() == values.tolist() or np.array_equal(got_values, values, equal_nan=True)
    assert got_counts.tolist() == counts.tolist()


def _reference_column_stats(name: str, column: Column) -> ColumnStats:
    """``compute_column_stats`` as it stood before the value-count helper:
    one ``np.unique(return_counts=True)`` per column.  Verbatim."""
    row_count = len(column)
    null_count = int((~column.validity).sum())
    data = column.values[column.validity]

    if column.dtype is DataType.STRING:
        values, value_counts = np.unique(data, return_counts=True) if len(data) else ([], [])
        distinct_count = len(values)
        domain = None
        domain_counts = None
        if 0 < distinct_count <= stats_module.ENUMERABLE_DISTINCT_LIMIT:
            domain = [str(v) for v in values]
            domain_counts = [int(c) for c in value_counts]
        return ColumnStats(
            name=name,
            dtype=column.dtype,
            row_count=row_count,
            null_count=null_count,
            distinct_count=distinct_count,
            min_value=domain[0] if domain else (min(data.tolist()) if len(data) else None),
            max_value=domain[-1] if domain else (max(data.tolist()) if len(data) else None),
            domain=domain,
            domain_counts=domain_counts,
        )

    if len(data) == 0:
        return ColumnStats(
            name=name, dtype=column.dtype, row_count=row_count, null_count=null_count, distinct_count=0
        )

    unique, unique_counts = np.unique(data, return_counts=True)
    distinct_count = len(unique)
    domain = None
    domain_counts = None
    if distinct_count <= stats_module.ENUMERABLE_DISTINCT_LIMIT:
        domain = unique.tolist()
        domain_counts = unique_counts.tolist()

    mean = None
    std = None
    min_value = None
    max_value = None
    if column.dtype.is_numeric:
        mean = float(np.mean(data))
        std = float(np.std(data))
        min_value = python_value(column.dtype, data.min())
        max_value = python_value(column.dtype, data.max())
    elif column.dtype is DataType.BOOL:
        min_value = bool(unique.min())
        max_value = bool(unique.max())

    return ColumnStats(
        name=name,
        dtype=column.dtype,
        row_count=row_count,
        null_count=null_count,
        distinct_count=distinct_count,
        min_value=min_value,
        max_value=max_value,
        mean=mean,
        std=std,
        domain=domain,
        domain_counts=domain_counts,
    )


def _benchmark_shapes() -> list[Table]:
    """The three table shapes the end-to-end benchmark generates (literal
    copies of their generators at a small size)."""
    rng = np.random.default_rng([0, 10])
    g, x = rng.integers(0, 64, 20_000), rng.integers(0, 16, 20_000)
    readings = {"g": g, "x": x, "y": 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, 20_000)}
    rng = np.random.default_rng([0, 20])
    fact = {
        "k": rng.integers(0, 1_000, 50_000),
        "x": rng.normal(10.0, 5.0, 50_000),
        "ts": np.arange(50_000, dtype=np.int64),
    }
    dim = {"k2": np.arange(1_000, dtype=np.int64), "w": rng.normal(0.0, 1.0, 1_000)}
    integer, real = DataType.INT64, DataType.FLOAT64
    return [
        Table.from_numpy("readings", Schema.of(g=integer, x=integer, y=real), readings),
        Table.from_numpy("fact", Schema.of(k=integer, x=real, ts=integer), fact),
        Table.from_numpy("dim", Schema.of(k2=integer, w=real), dim),
    ]


def _fixture_tables() -> list[Table]:
    tables = [
        lofar.generate(num_sources=40, observations_per_source=16, seed=5).to_table(),
        sensors.generate().to_table(),
        *tpcds_lite.generate().tables(),
        *_benchmark_shapes(),
        _table(
            "edge",
            {
                "i": Column.from_values(DataType.INT64, [3, None, 3, INT64.max, -1]),
                "f": Column.from_values(DataType.FLOAT64, [None, 0.5, 0.5, -0.0, 0.0]),
                "b": Column.from_values(DataType.BOOL, [True, None, True, True, True]),
                "s": Column.from_values(DataType.STRING, ["x", None, "", "x", "y"]),
                "n": Column.from_values(DataType.FLOAT64, [None] * 5),
            },
        ),
        Table("empty", Schema.of(a=DataType.INT64, s=DataType.STRING)),
    ]
    return tables


@pytest.mark.parametrize("table", _fixture_tables(), ids=lambda t: t.name)
def test_table_stats_equal_the_np_unique_reference(table):
    stats = compute_table_stats(table)
    assert list(stats.columns) == table.schema.names
    for name in table.schema.names:
        column = table.column(name)
        assert compute_column_stats(name, column) == stats.columns[name]
        assert stats.columns[name] == _reference_column_stats(name, column), name
