"""Late materialization: a filtered scan reads a column only in the blocks where a row survives.

The scan evaluates every WHERE conjunct that reads only its own table: the
predicate's columns over the blocks its synopses keep, every other column it
hands on only over the kept blocks that hold a surviving row.  The oracle
here is NumPy over the whole tables — SQL's three-valued logic written out
mask by mask, joins as a loop over row pairs — and, for the charge, the same
rule worked out from per-block reductions:

    bytes = Σ width(predicate columns) × kept rows
          + Σ width(other handed-on columns) × rows of the kept blocks holding a match,

the partial tail block clipped to the table, one charge (⌈bytes ÷ 8192⌉
pages) per scan; an INT64 column's width is the narrowest of 1, 2, 4 or 8
bytes that holds every value its validity marks present, the width a
catalog table stores it at.  Serial and partitioned execution must agree on
rows and pages alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.db.column import BLOCK_ROWS, Column
from repro.db.operators import Filter, TableScan
from repro.db.schema import ColumnDef, Schema
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.table import Table
from repro.db.types import DataType

SETTINGS = settings(max_examples=150, deadline=None)
EXACT = AccuracyContract(mode="exact")
PAGE = 8192
SENTINEL = int(np.iinfo(np.int64).min)
_INT = DataType.INT64

# Multi-block lengths first: hypothesis favours (and shrinks towards) early entries.
LENGTHS = [3 * BLOCK_ROWS + 7, 4 * BLOCK_ROWS + 600, 2 * BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS - 1, 5, 0]
WIDTH = {DataType.INT64: 8, DataType.FLOAT64: 8, DataType.STRING: 16, DataType.BOOL: 1}


def _width(column: Column) -> int:
    """Bytes per row a scan reads of ``column`` (see the module docstring)."""
    if column.dtype is not DataType.INT64:
        return WIDTH[column.dtype]
    present = column.values[column.validity].tolist()  # a marked-valid sentinel too
    low, high = (min(present), max(present)) if present else (0, 0)
    return next(size for size in (1, 2, 4, 8) if -(2 ** (8 * size - 1)) <= low and high < 2 ** (8 * size - 1))

#: ``t``: ``ts`` the row number (what pruning reads), ``i`` INT64 with NULLs
#: stored as the sentinel, ``f`` FLOAT64 with valid NaNs and NULLs, ``s``
#: STRING, ``b`` BOOL, ``k`` the join key.
BASE = [("ts", DataType.INT64), ("i", DataType.INT64), ("f", DataType.FLOAT64),
        ("s", DataType.STRING), ("b", DataType.BOOL), ("k", DataType.INT64)]  # fmt: skip
#: ``d``: ``k2`` the join key, ``w`` INT64 with NULLs, ``f`` shared with ``t``.
DIM = [("k2", DataType.INT64), ("w", DataType.INT64), ("f", DataType.FLOAT64)]


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------


def _codes(rng: np.random.Generator, n: int, clustered: bool) -> np.ndarray:
    """Small integers in [0, 20): in runs of ~700 rows when ``clustered``, so
    that a selective predicate leaves whole blocks without a survivor."""
    if clustered:
        return (np.arange(n) // 700 * 3 + rng.integers(0, 2, n)) % 20
    return rng.integers(0, 20, n)


def _column(rng: np.random.Generator, name: str, dtype: DataType, n: int, clustered: bool) -> Column:
    if name == "ts":
        return Column(dtype, np.arange(n, dtype=np.int64))
    if name in ("k", "k2"):
        return Column(dtype, rng.integers(0, 8, n).astype(np.int64))
    codes = _codes(rng, n, clustered)
    valid = rng.random(n) > 0.12
    if dtype is DataType.INT64:
        values = codes.astype(np.int64)
        values[~valid] = SENTINEL
    elif dtype is DataType.FLOAT64:
        values = codes * 0.5
        values[rng.random(n) < 0.05] = np.nan  # valid NaNs
        values[~valid] = np.nan
    elif dtype is DataType.STRING:
        values = np.array([f"s{code:02d}" for code in codes], dtype=object)
        values[~valid] = None
    else:
        values = codes >= 10
        values[~valid] = False
    return Column(dtype, values, valid)


def _table(name: str, spec, seed: int, n: int, clustered: bool) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        name,
        Schema([ColumnDef(column, dtype) for column, dtype in spec]),
        {column: _column(rng, column, dtype, n, clustered) for column, dtype in spec},
    )


base_tables = st.builds(
    lambda seed, n, clustered: _table("t", BASE, seed, n, clustered),
    st.integers(0, 2**32 - 1),
    st.sampled_from(LENGTHS),
    st.booleans(),
)


# ---------------------------------------------------------------------------
# Random predicates: SQL text beside its NumPy meaning
# ---------------------------------------------------------------------------

#: A truth value in three-valued logic: ``(true rows, NULL rows)``.
Truth = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Pred:
    """A predicate over one table: its SQL text, its NumPy evaluation and the columns it reads."""

    sql: str
    truth: Callable[[Table], Truth]
    columns: frozenset[str]

    def __repr__(self) -> str:
        return self.sql


_COMPARE = {
    "=": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}  # fmt: skip


def _compare(column: Column, op: str, literal) -> np.ndarray:
    values, valid = column.values, column.validity
    if column.dtype is DataType.STRING:
        hit = np.zeros(len(values), dtype=bool)
        hit[valid] = [_COMPARE[op](value, literal) for value in values[valid]]
        return hit
    if column.dtype is DataType.BOOL:
        values = values.astype(np.int64)
    with np.errstate(invalid="ignore"):
        return np.asarray(_COMPARE[op](values, literal), dtype=bool)


def _leaf(name: str, sql: str, hit: Callable[[Column], np.ndarray]) -> Pred:
    def truth(table: Table) -> Truth:
        column = table.column(name)
        return hit(column) & column.validity, ~column.validity

    return Pred(sql, truth, frozenset([name]))


def _comparison(name: str, spelling: str, op: str, value) -> Pred:
    return _leaf(name, f"{spelling} {op} {_sql_literal(value)}", lambda column: _compare(column, op, value))


def _is_null(name: str, spelling: str, negated: bool) -> Pred:
    def truth(table: Table) -> Truth:
        nulls = ~table.column(name).validity
        return (~nulls if negated else nulls), np.zeros(table.num_rows, dtype=bool)

    return Pred(f"{spelling} IS {'NOT ' if negated else ''}NULL", truth, frozenset([name]))


def _sql_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


LITERALS = {
    DataType.INT64: [0, 3, 7, 10, 19, -1, 25, 4.5],
    DataType.FLOAT64: [0.0, 1.5, 3.5, 5.0, 9.5, -1.0, 12.0],
    DataType.STRING: ["s00", "s03", "s07", "s10", "s19", "zz"],
    DataType.BOOL: [True, False],
}


def _leaves(name: str, spelling: str, dtype: DataType) -> st.SearchStrategy[Pred]:
    literal = st.sampled_from(LITERALS[dtype])
    ops = ["=", "!="] if dtype is DataType.BOOL else list(_COMPARE)

    def between(pair):
        low, high = sorted(pair)
        sql = f"{spelling} BETWEEN {_sql_literal(low)} AND {_sql_literal(high)}"
        return _leaf(name, sql, lambda column: _compare(column, ">=", low) & _compare(column, "<=", high))

    def in_list(values):
        sql = f"{spelling} IN ({', '.join(map(_sql_literal, values))})"

        def hit(column: Column) -> np.ndarray:
            out = np.zeros(len(column), dtype=bool)
            for value in values:
                out |= _compare(column, "=", value)
            return out

        return _leaf(name, sql, hit)

    forms = [
        st.builds(lambda op, value: _comparison(name, spelling, op, value), st.sampled_from(ops), literal),
        st.builds(in_list, st.lists(literal, min_size=1, max_size=3, unique=True)),
        st.builds(lambda negated: _is_null(name, spelling, negated), st.booleans()),
    ]
    if dtype in (DataType.INT64, DataType.FLOAT64):
        forms.append(st.builds(between, st.tuples(literal, literal)))
    return st.one_of(forms)


def _unanalysed_leaves(name: str, spelling: str, dtype: DataType) -> st.SearchStrategy[Pred]:
    """The leaves the constraint analysis keeps as residual: ``IS [NOT] NULL`` and ``!=``."""
    return st.one_of(
        st.builds(lambda negated: _is_null(name, spelling, negated), st.booleans()),
        st.builds(lambda value: _comparison(name, spelling, "!=", value), st.sampled_from(LITERALS[dtype])),
    )


def _and(left: Pred, right: Pred) -> Pred:
    def truth(table: Table) -> Truth:
        (lt, ln), (rt, rn) = left.truth(table), right.truth(table)
        false = (~lt & ~ln) | (~rt & ~rn)
        true = lt & rt
        return true, ~true & ~false

    return Pred(f"({left.sql} AND {right.sql})", truth, left.columns | right.columns)


def _or(left: Pred, right: Pred) -> Pred:
    def truth(table: Table) -> Truth:
        (lt, ln), (rt, rn) = left.truth(table), right.truth(table)
        true = lt | rt
        false = (~lt & ~ln) & (~rt & ~rn)
        return true, ~true & ~false

    return Pred(f"({left.sql} OR {right.sql})", truth, left.columns | right.columns)


def _not(inner: Pred) -> Pred:
    def truth(table: Table) -> Truth:
        true, null = inner.truth(table)
        return ~true & ~null, null

    return Pred(f"NOT ({inner.sql})", truth, inner.columns)


def _residuals(columns: list[tuple[str, str, DataType]]) -> st.SearchStrategy[Pred]:
    """Trees of AND / OR / NOT across ``(name, spelling, dtype)`` columns whose
    root the constraint analysis cannot use (OR, NOT, IS NULL, ``!=``), so
    that only the ``ts`` range prunes."""
    leaves = st.one_of([_leaves(name, spelling, dtype) for name, spelling, dtype in columns])
    trees = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(_and, inner, inner), st.builds(_or, inner, inner), st.builds(_not, inner)
        ),
        max_leaves=4,
    )
    residual_leaf = st.one_of([_unanalysed_leaves(*column) for column in columns])
    return st.one_of(st.builds(_or, trees, trees), st.builds(_not, trees), residual_leaf)


BASE_COLUMNS = [("i", "i", DataType.INT64), ("f", "f", DataType.FLOAT64),
                ("s", "s", DataType.STRING), ("b", "b", DataType.BOOL)]  # fmt: skip


@dataclass(frozen=True)
class Range:
    """The one pruning conjunct: ``ts`` between two bounds (either may be open)."""

    low: int | None
    high: int | None

    @property
    def sql(self) -> str:
        if self.low is not None and self.high is not None:
            return f"ts BETWEEN {self.low} AND {self.high}"
        return f"ts >= {self.low}" if self.low is not None else f"ts <= {self.high}"

    def admits(self, first: int, last: int) -> bool:
        return (self.low is None or last >= self.low) and (self.high is None or first <= self.high)

    def covers(self, first: int, last: int) -> bool:
        return (self.low is None or first >= self.low) and (self.high is None or last <= self.high)

    def pred(self) -> Pred:
        def truth(table: Table) -> Truth:
            ts = table.column("ts").values
            true = np.ones(len(ts), dtype=bool)
            if self.low is not None:
                true &= ts >= self.low
            if self.high is not None:
                true &= ts <= self.high
            return true, np.zeros(len(ts), dtype=bool)

        return Pred(self.sql, truth, frozenset(["ts"]))


_EDGES = [-3, 0, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 300, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 2, 9_999]
ranges = st.one_of(
    st.none(),
    st.builds(lambda pair: Range(*sorted(pair)), st.tuples(st.sampled_from(_EDGES), st.sampled_from(_EDGES))),
    st.builds(Range, st.sampled_from(_EDGES), st.none()),
    st.builds(Range, st.none(), st.sampled_from(_EDGES)),
)


def _where(parts: list[Pred]) -> Pred | None:
    where = None
    for part in parts:
        where = part if where is None else _and(where, part)
    return where


def _sql(select: str, source: str, parts: list[Pred]) -> str:
    if not parts:
        return f"SELECT {select} FROM {source}"
    return f"SELECT {select} FROM {source} WHERE {' AND '.join(part.sql for part in parts)}"


def _matches(table: Table, where: Pred | None) -> np.ndarray:
    if where is None:
        return np.ones(table.num_rows, dtype=bool)
    return where.truth(table)[0]


# ---------------------------------------------------------------------------
# The charge rule
# ---------------------------------------------------------------------------


def _size(table: Table, block: int) -> int:
    return min(BLOCK_ROWS, table.num_rows - block * BLOCK_ROWS)


def _kept_blocks(table: Table, where_range: Range | None, answered: Callable[[int], bool]) -> list[int]:
    """The blocks a scan reads: complete ones the ``ts`` range admits and that
    are not answered, and the partial tail, which has no synopsis."""
    kept = []
    for block in range(table.num_rows // BLOCK_ROWS):
        first, last = block * BLOCK_ROWS, (block + 1) * BLOCK_ROWS - 1
        if where_range is not None and not where_range.admits(first, last):
            continue
        if answered(block):
            continue
        kept.append(block)
    if table.num_rows % BLOCK_ROWS:
        kept.append(table.num_rows // BLOCK_ROWS)
    return kept


def _charge(table: Table, kept: list[int], where: Pred | None, handed_on: set[str]) -> int:
    """Bytes one scan of ``table`` is charged, by the rule in the module docstring."""
    width = lambda names: sum(_width(table.column(name)) for name in names)  # noqa: E731
    kept_rows = sum(_size(table, block) for block in kept)
    if where is None:
        return width(handed_on) * kept_rows
    matched = _matches(table, where)
    touched = [block for block in kept if matched[block * BLOCK_ROWS : (block + 1) * BLOCK_ROWS].any()]
    late = handed_on - where.columns
    return width(where.columns) * kept_rows + width(late) * sum(_size(table, block) for block in touched)


def _pages(num_bytes: int) -> int:
    return -(-num_bytes // PAGE)


# ---------------------------------------------------------------------------
# Running a statement serial and partitioned
# ---------------------------------------------------------------------------


def _database(tables: list[Table], partitioned: bool) -> LawsDatabase:
    db = LawsDatabase(verify_sample_fraction=0.0)
    for table in tables:
        db.register_table(table)
    if partitioned:
        db.partition_table("t", partitions=4)
        # Free dispatch: even these small tables fan out.
        db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
    return db


def _rows(table: Table) -> list[tuple]:
    """Rows with NaN made comparable."""
    return [tuple("NaN" if isinstance(v, float) and v != v else v for v in row) for row in table.to_rows()]


def _no_filter_over_a_scan(db: LawsDatabase, sql: str) -> None:
    stack = [plan_select(parse(sql), db.database.catalog).root]
    while stack:
        node = stack.pop()
        assert not (isinstance(node, Filter) and isinstance(node.child, TableScan)), sql
        stack.extend(node.children())


def _run_both(tables: list[Table], sql: str) -> tuple[list[tuple], int]:
    """Rows and pages of ``sql``, which serial and partitioned execution must share."""
    results = []
    for partitioned in (False, True):
        db = _database(tables, partitioned)
        _no_filter_over_a_scan(db, sql)
        tasks = db.obs.metrics.counter_total("partition_tasks_total")
        with db.database.io_model.scope() as scope:
            rows = _rows(db.query(sql, EXACT).query_result.table)
        if partitioned:
            fanned_out = db.obs.metrics.counter_total("partition_tasks_total") > tasks
            event(f"partitioned: {'fanned out' if fanned_out else 'serial'}")
        results.append((rows, scope.pages_read))
    assert results[0] == results[1], sql  # serial == partitioned: rows and pages
    return results[0]


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------

SELECTABLE = ["ts", "i", "f", "s", "b"]


@SETTINGS
@given(
    base_tables,
    ranges,
    st.lists(_residuals(BASE_COLUMNS), max_size=2),
    st.lists(st.sampled_from(SELECTABLE), min_size=1, max_size=3, unique=True),
)
def test_selected_rows_and_pages(table: Table, where_range, residuals, select) -> None:
    parts = ([where_range.pred()] if where_range else []) + residuals
    where = _where(parts)
    sql = _sql(", ".join(select), "t", parts)
    matched = _matches(table, where)
    expected_rows = _rows(table.select(select).filter(matched))
    kept = _kept_blocks(table, where_range, lambda block: False)
    expected_pages = _pages(_charge(table, kept, where, set(select)))
    late = set(select) - (where.columns if where is not None else set(select))
    skipped = any(not matched[b * BLOCK_ROWS : (b + 1) * BLOCK_ROWS].any() for b in kept)
    event(f"late columns skip a kept block: {bool(late) and skipped}")

    rows, pages = _run_both([table], sql)
    assert rows == expected_rows, sql
    assert pages == expected_pages, sql


AGGREGATES = ["count(*)", "count(ts)", "min(ts)", "max(ts)", "count(f)", "min(f)", "max(f)", "count(i)"]


def _aggregate(table: Table, matched: np.ndarray, text: str):
    function, _, argument = text.rstrip(")").partition("(")
    if argument == "*":
        return int(matched.sum())
    column = table.column(argument)
    rows = matched & column.validity
    if function == "count":
        return int(rows.sum())
    if not rows.any():
        return None
    values = column.values[rows].astype(np.float64)
    reduced = float(np.min(values) if function == "min" else np.max(values))
    return None if reduced != reduced else reduced  # a NaN result reads back as NULL


@SETTINGS
@given(
    base_tables,
    ranges,
    st.lists(_residuals(BASE_COLUMNS), max_size=1),
    st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True),
)
def test_global_aggregates_answered_pruned_and_read(table: Table, where_range, residuals, aggregates) -> None:
    """``COUNT`` / ``MIN`` / ``MAX`` under a ``ts`` range alone answer the
    complete blocks the range covers whose aggregated columns hold no NULL or
    NaN; a residual conjunct makes every kept block read."""
    parts = ([where_range.pred()] if where_range else []) + residuals
    where = _where(parts)
    sql = _sql(", ".join(aggregates), "t", parts)
    matched = _matches(table, where)
    expected_rows = [tuple(_aggregate(table, matched, text) for text in aggregates)]

    aggregated = {text.rstrip(")").partition("(")[2] for text in aggregates} - {"*"}

    def answered(block: int) -> bool:
        if residuals:
            return False
        first, last = block * BLOCK_ROWS, (block + 1) * BLOCK_ROWS - 1
        if where_range is not None and not where_range.covers(first, last):
            return False
        rows = slice(first, last + 1)
        for name in aggregated:
            column = table.column(name)
            present = column.validity[rows]
            if column.dtype is DataType.FLOAT64:
                present = present & ~np.isnan(column.values[rows])
            if not present.all():
                return False
        return True

    kept = _kept_blocks(table, where_range, answered)
    if aggregated:
        handed_on = aggregated
    elif where is None:
        handed_on = {"b"}  # count(*) alone reads the narrowest column
    else:
        handed_on = set()  # a predicate column carries the row count
    expected_pages = _pages(_charge(table, kept, where, handed_on))
    event(f"answered blocks: {'some' if len(kept) < -(-table.num_rows // BLOCK_ROWS) else 'none'}")

    rows, pages = _run_both([table], sql)
    assert rows == expected_rows, sql
    assert pages == expected_pages, sql


DIM_COLUMNS = [("w", "w", DataType.INT64), ("f", "d.f", DataType.FLOAT64)]
#: Base conjuncts spell the shared ``f`` with its qualifier.
QUALIFIED_BASE_COLUMNS = [("i", "i", DataType.INT64), ("f", "t.f", DataType.FLOAT64),
                          ("s", "s", DataType.STRING), ("b", "b", DataType.BOOL)]  # fmt: skip


@SETTINGS
@given(
    base_tables,
    st.integers(0, 2**32 - 1),
    st.sampled_from([40, 3, 0, 100]),
    ranges,
    st.lists(_residuals(QUALIFIED_BASE_COLUMNS), max_size=1),
    st.lists(_residuals(DIM_COLUMNS), max_size=2),
    st.booleans(),
)
def test_joins_filter_each_side_in_its_scan(
    table, seed, dim_rows, where_range, base_parts, dim_parts, cross
) -> None:
    """Base-only conjuncts run in the base scan, build-side ones in the build
    scan, and only a conjunct over both tables stays above the join."""
    dim = _table("d", DIM, seed, dim_rows, clustered=False)
    base_where = _where(([where_range.pred()] if where_range else []) + base_parts)
    dim_where = _where(dim_parts)
    cross_sql = "(i < w OR b IS NULL)"
    parts = ([where_range.sql] if where_range else []) + [p.sql for p in base_parts + dim_parts]
    parts += [cross_sql] if cross else []
    sql = "SELECT ts, t.f AS tf, w, d.f AS df FROM t JOIN d ON k = k2"
    if parts:
        sql += " WHERE " + " AND ".join(parts)

    left = np.flatnonzero(_matches(table, base_where))
    right = np.flatnonzero(_matches(dim, dim_where))
    partners: dict[int, list[int]] = {}
    for r in right:
        partners.setdefault(int(dim.column("k2").values[r]), []).append(r)
    base_keys = table.column("k").values
    i, w, b = table.column("i"), dim.column("w"), table.column("b")
    ts, tf, wv, df = (c.to_pylist() for c in (table.column("ts"), table.column("f"), w, dim.column("f")))
    expected = []
    for l in left:
        for r in partners.get(int(base_keys[l]), []):
            if cross:  # (i < w OR b IS NULL)
                less = i.validity[l] and w.validity[r] and i.values[l] < w.values[r]
                if not (less or not b.validity[l]):
                    continue
            expected.append(tuple("NaN" if v != v else v for v in (ts[l], tf[l], wv[r], df[r])))
    base_handed = {"ts", "f", "k"} | ({"i", "b"} if cross else set())
    dim_handed = {"k2", "w", "f"}
    expected_pages = _pages(
        _charge(table, _kept_blocks(table, where_range, lambda block: False), base_where, base_handed)
    ) + _pages(_charge(dim, _kept_blocks(dim, None, lambda block: False), dim_where, dim_handed))

    rows, pages = _run_both([table, dim], sql)
    assert rows == expected, sql
    assert pages == expected_pages, sql


# ---------------------------------------------------------------------------
# The top-N trap: a scan with a predicate never takes a top bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("where", ["x < 0", "k = 3"])
def test_a_filtering_scan_is_never_top_bounded(where: str) -> None:
    """The largest ``x`` sit in blocks the WHERE empties: a top bound over
    every row would keep those blocks and skip the rows that answer."""
    n = 20 * BLOCK_ROWS + 288
    rng = np.random.default_rng(7)
    late = np.arange(n) >= 15 * BLOCK_ROWS
    x = np.where(late, -rng.random(n), 1.0 + rng.random(n))  # fifteen positive blocks, then negatives
    k = np.where(late, 3, rng.integers(4, 8, n))  # k = 3 only among the negatives
    fact = Table(
        "fact",
        Schema([ColumnDef(name, dtype) for name, dtype in [("ts", _INT), ("x", DataType.FLOAT64), ("k", _INT)]]),
        {
            "ts": Column(DataType.INT64, np.arange(n)),
            "x": Column(DataType.FLOAT64, x),
            "k": Column(DataType.INT64, k.astype(np.int64)),
        },
    )
    sql = f"SELECT ts, x FROM fact WHERE {where} ORDER BY x DESC LIMIT 10"
    keep = x < 0 if where == "x < 0" else k == 3
    rows = np.flatnonzero(keep)
    best = rows[np.argsort(-x[rows], kind="stable")[:10]]
    expected = [(int(ts), float(x[ts])) for ts in best]
    for partitioned in (False, True):
        db = _database([fact.pinned()], False)
        if partitioned:
            db.partition_table("fact", partitions=4)
            db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
        scan = plan_select(parse(sql), db.database.catalog).root
        while not isinstance(scan, TableScan):
            scan = scan.children()[0]
        assert scan.top is None and scan.predicate is not None
        assert db.query(sql, EXACT).rows() == expected
