"""Narrow INT64 storage: a catalog's integer column is stored at 1, 2, 4 or 8 bytes, and nothing else changes.

The oracle is plain int64 NumPy: a column is ``(values, valid)`` with the
INT64 sentinel at every NULL, and NULL is ``~valid | (values == sentinel)``
(a sentinel marked valid reads back NULL, as it always has).  Against it:

* a narrowed column is stored at the narrowest signed width that holds every
  value its validity marks present, and reads back exactly — values,
  validity, NULL mask, floats, synopses, extremes — through ``take``,
  ``filter``, ``slice`` and ``stack`` too;
* an append chain widens mid-chain into a fresh buffer exactly when a value
  does not fit, while every older snapshot keeps reading its own rows;
* every comparison, arithmetic operator, ``IN``, ``BETWEEN``, ``GROUP BY``,
  join, ``DISTINCT``, top-N and ``MIN`` / ``MAX`` / ``SUM`` answers bit for
  bit what the same engine answers over int64 storage (the same statements
  with narrowing switched off);
* a checkpoint → reopen and a WAL replay bring the rows back at their width;
* serial and partitioned execution agree on rows and on pages.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.db import Database
from repro.db.column import BLOCK_ROWS, Column
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType

EXACT = AccuracyContract(mode="exact")
SENTINEL = int(np.iinfo(np.int64).min)
I64 = DataType.INT64

#: Every width's edges, and the sentinel stored as a value.
EDGES = [
    0, 1, -1, 127, 128, -128, -129, 32767, 32768, -32768, -32769,
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63 - 1, SENTINEL + 1, SENTINEL,
]  # fmt: skip
#: Magnitude bounds that keep a column at one width (or just past it).
BOUNDS = [100, 127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**62]


def _width(values: np.ndarray, valid: np.ndarray) -> int:
    """The oracle's width: the narrowest of 1, 2, 4, 8 bytes holding every marked-valid value."""
    present = values[valid]
    if not len(present):
        return 1
    low, high = int(present.min()), int(present.max())
    return next(size for size in (1, 2, 4, 8) if -(2 ** (8 * size - 1)) <= low and high < 2 ** (8 * size - 1))


@st.composite
def int_lists(draw, min_size: int = 0, max_size: int = 40) -> list[int | None]:
    """Python values for one INT64 column: mostly within one width, with edges and NULLs."""
    bound = draw(st.sampled_from(BOUNDS))
    value = st.one_of(
        st.integers(-bound - 1, bound),
        st.sampled_from([edge for edge in EDGES if abs(edge) <= bound + 1] or [0]),
        st.sampled_from(EDGES),
        st.none(),
    )
    return draw(st.lists(value, min_size=min_size, max_size=max_size))


def _oracle(values: list[int | None]) -> tuple[np.ndarray, np.ndarray]:
    valid = np.array([value is not None for value in values], dtype=bool)
    ints = np.array([SENTINEL if value is None else value for value in values], dtype=np.int64)
    return ints, valid


def _assert_reads_like(column: Column, values: np.ndarray, valid: np.ndarray) -> None:
    """``column`` reads back exactly the oracle's ``(values, valid)``."""
    assert column.dtype is I64 and len(column) == len(values)
    np.testing.assert_array_equal(column.validity, valid)
    np.testing.assert_array_equal(column.values, np.where(valid, values, SENTINEL))
    assert column.values.dtype == np.int64 and column.to_numpy().dtype == np.int64
    nulls = ~valid | (values == SENTINEL)
    np.testing.assert_array_equal(column.null_mask(), nulls)
    assert column.to_pylist() == [None if null else int(v) for v, null in zip(values, nulls)]
    floats = np.where(nulls, np.nan, values.astype(np.float64))
    np.testing.assert_array_equal(column.float_numpy(), floats)
    np.testing.assert_array_equal(column.nonnull_numpy(), values[valid])
    assert column.nonnull_numpy().dtype == column.stored.dtype  # as stored
    assert column.has_nulls == (not valid.all()) and column.null_count == int((~valid).sum())
    present = [int(v) for v in values[valid]]
    low, high = (min(present), max(present)) if present else (None, None)
    assert column.min() == (None if low == SENTINEL else low)  # read back as a value is
    assert column.max() == (None if high == SENTINEL else high)
    for index in range(len(values)):
        assert column[index] == (None if nulls[index] else int(values[index]))
    stored = column.stored
    if stored.dtype != np.int64:
        # A narrow NULL slot holds 0, and no consumer-facing array is narrow.
        assert not stored[~valid].any()


def _wide(values: np.ndarray, valid: np.ndarray) -> Column:
    return Column(I64, values.copy(), valid.copy())


def _synopsis_equal(left: Column, right: Column) -> None:
    for mine, theirs in zip(left.block_synopsis(), right.block_synopsis()):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)


# ---------------------------------------------------------------------------
# One column: width, reads, derivations
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(int_lists(), st.data())
def test_a_narrowed_column_reads_back_exactly_at_its_width(values, data) -> None:
    ints, valid = _oracle(values)
    narrow = _wide(ints, valid).narrowed()
    assert narrow.stored.dtype.itemsize == narrow.stored_width == _width(ints, valid)
    assert narrow.byte_size() == 8 * len(values)  # nominal, whatever the storage
    _assert_reads_like(narrow, ints, valid)

    positions = st.lists(st.integers(0, max(len(values) - 1, 0)), max_size=20)
    indices = np.array(data.draw(positions), dtype=np.int64)
    if len(values):
        taken = narrow.take(indices)
        assert taken.stored.dtype == narrow.stored.dtype
        _assert_reads_like(taken, ints[indices], valid[indices])
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
        kept = narrow.filter(mask)
        assert kept.stored.dtype == narrow.stored.dtype
        _assert_reads_like(kept, ints[mask], valid[mask])
    start = data.draw(st.integers(0, len(values)))
    stop = data.draw(st.integers(start, len(values)))
    part = narrow.slice(start, stop)
    assert part.stored.dtype == narrow.stored.dtype
    _assert_reads_like(part, ints[start:stop], valid[start:stop])

    other_values = data.draw(int_lists())
    other_ints, other_valid = _oracle(other_values)
    other = _wide(other_ints, other_valid).narrowed()
    stacked = Column.stack([narrow, other])
    _assert_reads_like(stacked, np.concatenate([ints, other_ints]), np.concatenate([valid, other_valid]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BOUNDS), st.sampled_from([0.0, 0.1, 1.0]))
def test_block_synopses_do_not_depend_on_the_width(seed, bound, null_rate) -> None:
    rng = np.random.default_rng(seed)
    n = 3 * BLOCK_ROWS + 17
    ints = rng.integers(-bound - 1, bound, n, dtype=np.int64, endpoint=True)
    valid = rng.random(n) >= null_rate
    ints[~valid] = SENTINEL
    narrow = _wide(ints, valid).narrowed()
    _synopsis_equal(narrow, _wide(ints, valid))
    _assert_reads_like(narrow, ints, valid)


# ---------------------------------------------------------------------------
# Append chains
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    int_lists(max_size=10),
    st.lists(st.tuples(int_lists(max_size=BLOCK_ROWS // 64), st.integers(0, 8)), max_size=8),
)
def test_an_append_chain_widens_mid_chain_and_older_snapshots_keep_their_rows(first, batches) -> None:
    ints, valid = _oracle(first)
    snapshots = [(_wide(ints, valid).narrowed(), first)]
    for batch, back in batches:
        # Mostly the newest snapshot (in place, while it fits); sometimes an
        # older one, whose buffer a newer sibling has already extended.
        base, rows = snapshots[max(len(snapshots) - 1 - back, 0)]
        if len(batch) == 1:
            grown = base.append_value(batch[0])
        else:
            grown = base.concat(Column.from_values(I64, batch))
        snapshots.append((grown, rows + batch))
        for column, expected in snapshots:
            expected_ints, expected_valid = _oracle(expected)
            _assert_reads_like(column, expected_ints, expected_valid)
            # Widening is minimal: a chain stays at the width its rows need.
            assert column.stored_width == _width(expected_ints, expected_valid)
    column, expected = snapshots[-1]
    _synopsis_equal(column, _wide(*_oracle(expected)))


def test_a_value_past_the_width_goes_to_a_fresh_buffer_and_never_wraps() -> None:
    column = Column.from_values(I64, [1, None, -128, 127]).narrowed()
    assert column.stored.dtype == np.int8
    _ = column.block_synopsis()
    for value, dtype in ((128, np.int16), (-32769, np.int32), (2**31, np.int64), (SENTINEL, np.int64)):
        longer = column.append_value(value)
        assert longer.stored.dtype == dtype
        assert longer.to_pylist() == [1, None, -128, 127, None if value == SENTINEL else value]
        assert column.to_pylist() == [1, None, -128, 127] and column.stored.dtype == np.int8
        assert longer.values[1] == SENTINEL and longer.validity.tolist() == [True, False, True, True, True]


def test_a_trailing_null_survives_takes_slices_appends_and_widening() -> None:
    """A NULL past every taken or sliced row leaves those rows NULL-free,
    and an append — in place or into a fresh, wider buffer — keeps it NULL."""
    n = 100_000
    valid = np.ones(n, dtype=bool)
    valid[-1] = False
    big = Column(I64, np.arange(n, dtype=np.int64), valid).narrowed()
    assert big.take(np.array([0, 5])).to_pylist() == [0, 5]
    assert not big.take(np.array([0, 5])).has_nulls
    assert big.take(np.array([n - 1, 3])).to_pylist() == [None, 3]
    assert not big.slice(0, 10).has_nulls and big.slice(n - 2, n).null_count == 1
    grown = big.concat(Column.from_values(I64, [7]))
    assert grown.has_nulls and grown.to_pylist()[-3:] == [n - 2, None, 7]
    widened = big.concat(Column.from_values(I64, [2**40]))
    assert widened.stored.dtype == np.int64 and widened.stored[n - 1] == SENTINEL  # 8 bytes: the sentinel
    assert widened.to_pylist()[-3:] == [n - 2, None, 2**40]

    chain = Column.from_values(I64, [1, 2, 3]).narrowed()
    longer = chain.concat(Column.from_values(I64, [4, None]))
    assert not chain.has_nulls and longer.has_nulls
    assert not longer.slice(0, 4).has_nulls and longer.slice(2, 5).null_count == 1


# ---------------------------------------------------------------------------
# Statements: narrow storage answers what int64 storage answers, bit for bit
# ---------------------------------------------------------------------------

_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _table(rng: np.random.Generator, n: int, bound: int) -> tuple[Table, Table]:
    """``t`` (``g`` group key, ``a`` / ``b`` INT64 with NULLs, ``x`` FLOAT64)
    and ``d`` (``k`` join key, ``w`` INT64)."""
    def ints(low: int, high: int, nulls: float) -> Column:
        values = rng.integers(low, high, n, dtype=np.int64, endpoint=True)
        values[rng.random(n) < 0.05] = rng.choice(EDGES)
        valid = rng.random(n) >= nulls
        values[~valid] = SENTINEL
        return Column(I64, values, valid)

    t = Table(
        "t",
        Schema([ColumnDef(name, I64) for name in "gab"] + [ColumnDef("x", DataType.FLOAT64)]),
        {
            "g": Column(I64, rng.integers(-3, 12, n, dtype=np.int64)),
            "a": ints(-bound - 1, bound, 0.1),
            "b": ints(-40, 40, 0.0),
            "x": Column(DataType.FLOAT64, rng.normal(0.0, 1.0, n)),
        },
    )
    d = Table(
        "d",
        Schema([ColumnDef("k", I64), ColumnDef("w", I64)]),
        {
            "k": Column(I64, np.arange(-3, 12, dtype=np.int64)),
            "w": Column(I64, np.arange(15, dtype=np.int64) * 1000),
        },
    )
    return t, d


def _statements(rng: np.random.Generator) -> list[str]:
    literal = lambda: int(rng.choice(EDGES + [3, -7, 100, 300, -300]))  # noqa: E731
    op = lambda: _OPS[int(rng.integers(len(_OPS)))]  # noqa: E731
    low, high = sorted((literal(), literal()))
    members = ", ".join(str(literal()) for _ in range(4))
    return [
        f"SELECT g, a FROM t WHERE a {op()} {literal()}",
        f"SELECT a, b FROM t WHERE {literal()} {op()} a",
        f"SELECT a, b FROM t WHERE a {op()} b",
        f"SELECT a FROM t WHERE a {op()} {literal() + 0.5}",
        f"SELECT a FROM t WHERE a IN ({members})",
        f"SELECT a FROM t WHERE a IN ({members}, 2.5)",
        f"SELECT a FROM t WHERE a BETWEEN {low} AND {high}",
        f"SELECT a + {literal()}, a - b, a * 3, a % 7, a / 3, -a FROM t",
        "SELECT g, count(*), count(a), sum(a), min(a), max(a), avg(b) FROM t GROUP BY g",
        f"SELECT g, sum(a), max(b) FROM t WHERE b {op()} {literal()} GROUP BY g",
        "SELECT count(*), count(a), sum(a), min(a), max(a), min(b), max(g) FROM t",
        f"SELECT count(*), min(a), max(a) FROM t WHERE g {op()} {int(rng.integers(-3, 12))}",
        "SELECT t.a, d.w FROM t JOIN d ON t.g = d.k",
        "SELECT g, sum(w) FROM t JOIN d ON t.b = d.k GROUP BY g",
        "SELECT DISTINCT a FROM t",
        "SELECT a, g FROM t ORDER BY a DESC, g LIMIT 7",
        "SELECT b, x FROM t ORDER BY b, x LIMIT 5",
    ]


def _answer(db: Database, sql: str):
    try:
        rows = db.query(sql).to_rows()
        return [tuple("NaN" if isinstance(v, float) and v != v else v for v in row) for row in rows]
    except Exception as exc:  # noqa: BLE001 - both storages must fail alike
        return type(exc)


def _databases(tables: list[Table]) -> tuple[Database, Database]:
    narrow = Database()
    for table in tables:
        narrow.register_table(table.pinned())
    with mock.patch.object(Table, "narrow_integers", lambda self: self):
        wide = Database()
        for table in tables:
            wide.register_table(table.pinned())
    return narrow, wide


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([5, 300, 2 * BLOCK_ROWS + 3]), st.sampled_from(BOUNDS))
def test_statements_answer_bit_for_bit_as_over_int64_storage(seed, n, bound) -> None:
    rng = np.random.default_rng(seed)
    narrow, wide = _databases(list(_table(rng, n, bound)))
    assert narrow.table("t").column("g").stored.dtype == np.int8
    assert wide.table("t").column("g").stored.dtype == np.int64
    for sql in _statements(rng):
        assert _answer(narrow, sql) == _answer(wide, sql), sql


@pytest.mark.parametrize(
    "values, members, expected",
    [
        ([100, -100, 5, None, 127], "-100, 100", [100, -100]),  # span 200 > int8's 127
        ([100, -100, 5, None, 127], "100, 1000, -300", [100]),  # candidates int8 cannot hold
        ([30000, -30000, 7, None, 128], "-30000, 30000", [30000, -30000]),  # span > int16's
        ([3, None, -4], "300, -300", []),
    ],
)
def test_in_over_a_narrow_column_with_a_wide_candidate_span(values, members, expected) -> None:
    db = Database()
    db.register_table(Table("t", Schema([ColumnDef("a", I64)]), {"a": Column.from_values(I64, values)}))
    assert db.table("t").column("a").stored.itemsize < 8
    assert [a for (a,) in db.query(f"SELECT a FROM t WHERE a IN ({members})").to_rows()] == expected


def test_a_narrow_scan_is_charged_its_stored_width() -> None:
    n = 4 * BLOCK_ROWS
    rng = np.random.default_rng(5)
    t, d = _table(rng, n, 100)
    narrow, wide = _databases([t, d])
    for db, width in ((narrow, 1), (wide, 8)):
        with db.io_model.scope() as scope:
            db.query("SELECT count(*) FROM t WHERE g > 100")  # every block pruned: g < 12
            assert scope.pages_read == 0
        with db.io_model.scope() as scope:
            db.query("SELECT g FROM t WHERE g + 0 > 100")  # no constraint: every row of g is read
        assert scope.bytes_read == width * n
    # The nominal accounting does not move: the cost model sees 8-byte integers.
    assert narrow.table("t").byte_size() == wide.table("t").byte_size()


# ---------------------------------------------------------------------------
# Durable: checkpoint -> reopen, and WAL replay
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(int_lists(min_size=1, max_size=30), int_lists(min_size=1, max_size=30), st.booleans())
def test_rows_come_back_from_a_checkpoint_and_from_the_wal_at_their_width(first, later, checkpoint) -> None:
    rows = [(i, value) for i, value in enumerate(first)]
    more = [(len(first) + i, value) for i, value in enumerate(later)]
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory) / "store"
        db = LawsDatabase.open(root)
        db.register_table(Table.from_rows("t", Schema([ColumnDef("i", I64), ColumnDef("v", I64)]), rows))
        db.insert_rows("t", more)  # may widen `v` mid-chain
        if checkpoint:
            db.checkpoint()
        live = db.table("t").to_pydict()
        widths = {name: db.table("t").column(name).stored_width for name in ("i", "v")}
        db.close()
        reopened = LawsDatabase.open(root)
        try:
            table = reopened.table("t")
            assert table.to_pydict() == live
            ints, valid = _oracle(first + later)
            assert widths["v"] == table.column("v").stored_width == _width(ints, valid)
            row_numbers = _oracle(list(range(len(rows + more))))
            assert table.column("i").stored_width == widths["i"] == _width(*row_numbers)
            _assert_reads_like(table.column("v"), ints, valid)
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Serial == partitioned
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_serial_and_partitioned_share_rows_and_pages(seed: int) -> None:
    rng = np.random.default_rng(seed)
    t, d = _table(rng, 6 * BLOCK_ROWS + 77, int(rng.choice(BOUNDS)))
    statements = _statements(rng)
    results = []
    for partitioned in (False, True):
        db = LawsDatabase(verify_sample_fraction=0.0)
        db.register_table(t.pinned())
        db.register_table(d.pinned())
        if partitioned:
            db.partition_table("t", partitions=4)
            db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
        answers = []
        for sql in statements:
            with db.database.io_model.scope() as scope:
                try:
                    rows = db.query(sql, EXACT).query_result.table.to_rows()
                except Exception as exc:  # noqa: BLE001 - both executions must fail alike
                    rows = type(exc)
            answers.append((sql, rows, scope.pages_read))
        results.append(answers)
    for (sql, serial, pages), (_, partitioned, fanned_pages) in zip(*results):
        assert pages == fanned_pages, sql
        # A partial-aggregate merge adds floats in another order: SUM / AVG
        # agree to 1e-9 (as everywhere serial meets partitioned), the rest exactly.
        assert _approximately(serial, partitioned), sql


def _approximately(left, right) -> bool:
    if isinstance(left, list) or isinstance(left, tuple):
        return type(left) is type(right) and len(left) == len(right) and all(map(_approximately, left, right))
    if isinstance(left, float) and isinstance(right, float):
        return (left != left and right != right) or math.isclose(left, right, rel_tol=1e-9)
    return left == right
