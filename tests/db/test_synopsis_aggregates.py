"""Blocks answered from synopses: a global COUNT / MIN / MAX stays the NumPy answer.

A scan planned for a global ``COUNT(*)`` / ``COUNT(col)`` / ``MIN`` / ``MAX``
over one table sorts its blocks into three classes: *pruned* (the synopsis
proves no row matches), *answered* (it proves every row matches and no
aggregated column is NULL or NaN there) and *read*.  The oracle here is
NumPy over the whole table — the predicate evaluated row by row, the
aggregates reduced over the matching rows — and, for the charge, the same
three classes worked out from per-block NumPy reductions: the pages read
must be ⌈bytes of the read-class rows ÷ 8192⌉, serial and partitioned alike.

Answers are compared bit for bit, except that a zero extreme is compared by
value: NumPy's own ``min`` / ``max`` return either zero of a ``0.0`` /
``-0.0`` tie depending on the order they meet, answered blocks or not.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.core.planner.cost import CostModel, OperatorCosts
from repro.db.column import BLOCK_ROWS, Column
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType

SETTINGS = settings(max_examples=200, deadline=None)
EXACT = AccuracyContract(mode="exact")
SENTINEL = int(np.iinfo(np.int64).min)
PAGE = 8192

# Multi-block lengths first: hypothesis favours (and shrinks towards) early entries.
LENGTHS = [4 * BLOCK_ROWS, 3 * BLOCK_ROWS + 300, 2 * BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS, BLOCK_ROWS - 1, 0]
COLUMNS = [("i", DataType.INT64), ("f", DataType.FLOAT64), ("s", DataType.STRING), ("b", DataType.BOOL)]
LEVELS = [-1000, 0, 1000, 2000]


# ---------------------------------------------------------------------------
# Random tables: block-wise levels, so that whole blocks match a predicate
# ---------------------------------------------------------------------------


def _block_values(rng: np.random.Generator, dtype: DataType, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One block's values and validity, in one of a few shapes."""
    valid = np.ones(size, dtype=bool)
    nulls = rng.choice(["none"] * 6 + ["some", "all"])
    if nulls == "some":
        valid &= rng.random(size) > 0.1
    elif nulls == "all":
        valid[:] = False
    shape = rng.choice(["const", "const", "const", "narrow", "narrow", "wide", "special"])
    level = int(rng.choice(LEVELS))
    if dtype is DataType.INT64:
        if shape == "const":
            values = np.full(size, level, dtype=np.int64)
        elif shape == "narrow":
            values = level + rng.integers(0, 3, size)
        elif shape == "wide":
            values = level + rng.integers(0, 1000, size)
        else:  # beyond 2**53, and a *valid* value equal to the NULL sentinel
            values = 2**60 + rng.integers(0, 3, size)
            if size and rng.random() < 0.5:
                values[rng.integers(0, size)] = SENTINEL
        values = values.astype(np.int64)
        values[~valid] = SENTINEL
    elif dtype is DataType.FLOAT64:
        if shape == "const":
            values = np.full(size, level + 0.5)
        elif shape == "narrow":
            values = level + rng.integers(0, 3, size) * 0.5
        elif shape == "wide":
            values = level + rng.random(size) * 1000.0
        else:  # valid NaN and +-inf beside ordinary values
            values = level + rng.integers(0, 3, size) * 0.5
            values[rng.random(size) < 0.05] = np.nan
            values[rng.random(size) < 0.05] = np.inf
            values[rng.random(size) < 0.05] = -np.inf
        values[~valid] = np.nan
    elif dtype is DataType.STRING:
        letters = ["a"] if shape == "const" else ["a", "b", "c"]
        values = np.array([str(rng.choice(letters)) for _ in range(size)], dtype=object)
        values[~valid] = None
    else:
        values = np.full(size, bool(level > 0)) if shape == "const" else rng.random(size) < 0.5
        values[~valid] = False
    return values, valid


def _table(seed: int, n: int) -> Table:
    rng = np.random.default_rng(seed)
    columns = {}
    for name, dtype in COLUMNS:
        parts = [
            _block_values(rng, dtype, min(BLOCK_ROWS, n - start)) for start in range(0, n, BLOCK_ROWS)
        ]
        values = np.concatenate([v for v, _ in parts]) if parts else np.empty(0, dtype=dtype.numpy_dtype)
        valid = np.concatenate([m for _, m in parts]) if parts else np.empty(0, dtype=bool)
        columns[name] = Column(dtype, values, valid)
    return Table("t", Schema([ColumnDef(name, dtype) for name, dtype in COLUMNS]), columns)


tables = st.builds(_table, st.integers(0, 2**32 - 1), st.sampled_from(LENGTHS))


# ---------------------------------------------------------------------------
# Random statements
# ---------------------------------------------------------------------------

#: Literals beyond every block, and at or past 2**53 (the ``2**60`` blocks),
#: where integer bounds stop being exact as floats.
FAR_LITERALS = [-5000, 5000, -5000.5, 5000.5, 2**53, 2**53 + 1, 2**60, 2**60 + 1, 2**60 + 2, 2.0**53, 2.0**60, 1e300]
STRING_LITERALS = ["a", "b", "c", "z"]


def _anchors(column: Column) -> list[int | float]:
    """Every block's min and max over its present values: the literals at
    which a bound's inclusivity decides whether a block matches row for row."""
    present = _present(column)
    anchors = set()
    for start in range(0, len(column), BLOCK_ROWS):
        values = column.values[start : start + BLOCK_ROWS][present[start : start + BLOCK_ROWS]]
        if len(values):
            anchors.update((values.min().item(), values.max().item()))
    return sorted(v for v in anchors if math.isfinite(v) and abs(v) < 2**62)


def predicates(table: Table) -> st.SearchStrategy:
    """``(column, op, literal(s))`` — one conjunct of a form the constraints
    analyse, its literals at, beside or far from the table's block extremes —
    or None."""

    def conjunct(column: str | None) -> st.SearchStrategy:
        if column is None:
            return st.none()
        if column == "s":
            pins = st.lists(st.sampled_from(STRING_LITERALS), min_size=1, max_size=3)
            return st.one_of(
                st.tuples(st.just(column), st.just("="), st.sampled_from(STRING_LITERALS)),
                st.tuples(st.just(column), st.just("in"), pins),
            )
        if column == "b":
            pins = st.lists(st.booleans(), min_size=1, max_size=2)
            return st.one_of(
                st.tuples(st.just(column), st.just("="), st.booleans()),
                st.tuples(st.just(column), st.just("in"), pins),
            )
        anchors = _anchors(table.column(column)) or [0]
        literals = st.one_of(
            st.sampled_from(anchors),
            st.sampled_from(anchors),
            st.builds(lambda a, d: a + d, st.sampled_from(anchors), st.sampled_from([-1, 1, -0.5, 0.5])),
            st.sampled_from(FAR_LITERALS),
        )
        bounds = st.lists(literals, min_size=2, max_size=2).map(lambda pair: tuple(sorted(pair)))
        return st.one_of(
            st.tuples(st.just(column), st.sampled_from(["=", "<", "<=", ">", ">="]), literals),
            st.tuples(st.just(column), st.just("between"), bounds),
            st.tuples(st.just(column), st.just("in"), st.lists(literals, min_size=1, max_size=3)),
        )

    return st.sampled_from(["i", "f"] * 3 + ["s", "b", None, None]).flatmap(conjunct)


AGGREGATES = [("count", None)] + [("count", name) for name, _ in COLUMNS] + [
    (function, name) for function in ("min", "max") for name in ("i", "f")
]
aggregate_lists = st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True)


def _literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _sql(aggregates: list[tuple[str, str | None]], predicate) -> str:
    items = ", ".join(f"{function}({name or '*'})" for function, name in aggregates)
    sql = f"SELECT {items} FROM t"
    if predicate is None:
        return sql
    column, op, literal = predicate
    if op == "between":
        return f"{sql} WHERE {column} BETWEEN {_literal(literal[0])} AND {_literal(literal[1])}"
    if op == "in":
        return f"{sql} WHERE {column} IN ({', '.join(_literal(v) for v in literal)})"
    return f"{sql} WHERE {column} {op} {_literal(literal)}"


# ---------------------------------------------------------------------------
# The NumPy oracle
# ---------------------------------------------------------------------------

_COMPARE = {"=": np.equal, "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _matches(table: Table, predicate) -> np.ndarray:
    """The rows the predicate accepts, evaluated row by row with NumPy's promotions."""
    if predicate is None:
        return np.ones(table.num_rows, dtype=bool)
    column, op, literal = predicate
    values, valid = table.column(column).values, table.column(column).validity
    with np.errstate(invalid="ignore"):
        if op == "between":
            hit = (values >= literal[0]) & (values <= literal[1])
        elif op == "in":
            hit = np.isin(values, np.array(literal, dtype=object if column == "s" else None))
        else:
            hit = _COMPARE[op](values, literal)
    return np.asarray(hit, dtype=bool) & valid


def _oracle(table: Table, aggregates, predicate) -> list[tuple[bool, float]]:
    """``(valid, value)`` per aggregate over the matching rows."""
    matched = _matches(table, predicate)
    out = []
    for function, name in aggregates:
        if name is None:
            out.append((True, float(matched.sum())))
            continue
        column = table.column(name)
        rows = matched & column.validity
        if function == "count":
            out.append((True, float(rows.sum())))
        elif not rows.any():
            out.append((False, math.nan))
        else:
            reduce = np.min if function == "min" else np.max
            out.append((True, float(reduce(column.values[rows].astype(np.float64)))))
    return out


def _present(column: Column) -> np.ndarray:
    """Valid and a value some comparison can accept (a NaN is not)."""
    if column.dtype is DataType.FLOAT64:
        return column.validity & ~np.isnan(column.values)
    return column.validity.copy()


def _block_extremes(column: Column, block: int) -> tuple[object, object, int]:
    rows = slice(block * BLOCK_ROWS, (block + 1) * BLOCK_ROWS)
    present = _present(column)[rows]
    values = column.values[rows][present]
    nulls = BLOCK_ROWS - int(present.sum())
    if not len(values):
        return None, None, nulls
    return min(values), max(values), nulls


def _comparable(dtype: DataType, op: str, literal) -> bool:
    """Whether a block summary can prove anything about the conjunct."""
    values = literal if op in ("in", "between") else [literal]
    if dtype in (DataType.STRING, DataType.BOOL):
        return True  # only = / IN of the column's own type are drawn
    if op in ("=", "in"):
        return all(abs(v) < 2.0**53 for v in values)  # past 2**53 pins prove nothing
    if dtype is DataType.INT64:
        return all(abs(float(v)) < 2.0**53 for v in values)  # bounds are recorded as floats
    return True


def _read_blocks(table: Table, aggregates, predicate) -> tuple[list[int], int]:
    """``(complete blocks read, how many complete blocks answered)`` by the textbook rules."""
    read, answered = [], 0
    for block in range(table.num_rows // BLOCK_ROWS):
        admits = covers = True
        if predicate is not None:
            column, op, literal = predicate
            dtype = table.column(column).dtype
            low, high, nulls = _block_extremes(table.column(column), block)
            if not _comparable(dtype, op, literal):
                admits, covers = True, False
            elif low is None:
                admits = covers = False
            else:
                if op == "between":
                    admits = high >= literal[0] and low <= literal[1]
                    covers = low >= literal[0] and high <= literal[1]
                elif op in ("=", "in"):
                    pins = literal if op == "in" else [literal]
                    admits = any(low <= v <= high for v in pins)
                    covers = low == high and any(low == v for v in pins)
                else:
                    admits = bool(_COMPARE[op](high if op in (">", ">=") else low, literal))
                    covers = bool(_COMPARE[op](low if op in (">", ">=") else high, literal))
                covers = covers and nulls == 0
        for _, name in aggregates:
            if name is not None:
                covers = covers and _block_extremes(table.column(name), block)[2] == 0
        if admits and covers:
            answered += 1
        elif admits:
            read.append(block)
    return read, answered


def _width(column: Column) -> int:
    """Bytes per row a scan reads of ``column``: the declared width, an INT64
    column's the narrowest of 1, 2, 4 or 8 bytes holding every value its
    validity mask marks present."""
    if column.dtype is not DataType.INT64:
        return column.dtype.byte_width
    present = column.values[column.validity].tolist()  # a marked-valid sentinel too
    low, high = (min(present), max(present)) if present else (0, 0)
    return next(size for size in (1, 2, 4, 8) if -(2 ** (8 * size - 1)) <= low and high < 2 ** (8 * size - 1))


def _expected_pages(table: Table, aggregates, predicate) -> tuple[int, int]:
    """``(pages read, complete blocks answered)``.

    The predicate's column is read over the read blocks and the tail; every
    other aggregated column only over those of them that hold a matching row;
    each at :func:`_width`.
    """
    read, answered = _read_blocks(table, aggregates, predicate)
    blocks = read + ([table.num_rows // BLOCK_ROWS] if table.num_rows % BLOCK_ROWS else [])
    names = {name for _, name in aggregates if name is not None}
    width = lambda columns: sum(_width(table.column(n)) for n in columns)  # noqa: E731
    size = lambda block: min(BLOCK_ROWS, table.num_rows - block * BLOCK_ROWS)  # noqa: E731
    if predicate is None:
        # SELECT count(*) with no WHERE reads the narrowest column: b, 1 byte.
        num_bytes = sum(map(size, blocks)) * (width(names) if names else 1)
    else:
        matched = _matches(table, predicate)
        touched = [b for b in blocks if matched[b * BLOCK_ROWS : (b + 1) * BLOCK_ROWS].any()]
        num_bytes = sum(map(size, blocks)) * width([predicate[0]]) + sum(map(size, touched)) * width(
            names - {predicate[0]}
        )
    return -(-num_bytes // PAGE), answered


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------


def _database(table: Table, partitioned: bool) -> LawsDatabase:
    db = LawsDatabase(verify_sample_fraction=0.0)
    db.register_table(table)
    if partitioned:
        db.partition_table("t", partitions=4)
        # Free dispatch: even these small tables fan out.
        db.planner.set_cost_model(CostModel(OperatorCosts(parallel_task_overhead_seconds=0.0)))
    return db


def _run(db: LawsDatabase, sql: str) -> tuple[list[tuple[bool, float]], int, float, float]:
    metrics = db.obs.metrics
    answered_before = metrics.counter_total("scan_blocks_answered_total")
    pruned_before = metrics.counter_total("scan_blocks_pruned_total")
    with db.database.io_model.scope() as scope:
        result = db.query(sql, EXACT).query_result.table
    got = []
    for name in result.schema.names:
        column = result.column(name)
        got.append((bool(column.validity[0]), float(column.values[0])))
    return (
        got,
        scope.pages_read,
        metrics.counter_total("scan_blocks_answered_total") - answered_before,
        metrics.counter_total("scan_blocks_pruned_total") - pruned_before,
    )


def _same(got: tuple[bool, float], want: tuple[bool, float]) -> bool:
    (got_valid, got_value), (want_valid, want_value) = got, want
    if got_valid != want_valid:
        return False
    if not want_valid:
        return True
    if math.isnan(want_value):
        return math.isnan(got_value)
    if want_value == 0.0:
        return got_value == 0.0  # either zero: see the module docstring
    return np.float64(got_value).tobytes() == np.float64(want_value).tobytes()


@SETTINGS
@given(tables.flatmap(lambda table: st.tuples(st.just(table), predicates(table))), aggregate_lists)
def test_answers_match_numpy_and_pages_count_the_read_blocks(table_and_predicate, aggregates) -> None:
    table, predicate = table_and_predicate
    sql = _sql(aggregates, predicate)
    want = _oracle(table, aggregates, predicate)
    pages, answered = _expected_pages(table, aggregates, predicate)
    event(f"answered blocks: {'some' if answered else 'none'}")
    results = []
    for partitioned in (False, True):
        db = _database(table, partitioned)
        got, got_pages, got_answered, got_pruned = _run(db, sql)
        if partitioned:
            fanned_out = db.obs.metrics.counter_total("partition_tasks_total") > 0
            event(f"partitioned: {'fanned out' if fanned_out else 'serial'}")
        assert all(_same(g, w) for g, w in zip(got, want)), (sql, partitioned, got, want)
        assert got_pages == pages, (sql, partitioned)
        assert got_answered == answered, (sql, partitioned)
        results.append((got_pages, got_answered, got_pruned))
    assert results[0] == results[1], sql  # serial == partitioned: rows, pages and blocks


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "between", "="])
@pytest.mark.parametrize("offset", [-1, -0.5, 0, 0.5, 1])
@pytest.mark.parametrize("edge", ["min", "max"])
def test_a_bound_at_a_block_extreme_decides_as_the_rows_do(op, offset, edge) -> None:
    """Blocks of 1000..1002 (and a const block of 1000): a literal at or
    beside a block's extreme is where an inclusive and an exclusive bound
    part ways, for the prune and the answer alike."""
    values = np.concatenate([1000 + np.arange(2 * BLOCK_ROWS) % 3, np.full(BLOCK_ROWS + 5, 1000)])
    floats = values + 0.25
    table = Table(
        "t",
        Schema([ColumnDef("i", DataType.INT64), ColumnDef("f", DataType.FLOAT64)]),
        {"i": Column(DataType.INT64, values), "f": Column(DataType.FLOAT64, floats)},
    )
    for column, base in (("i", 0), ("f", 0.25)):
        literal = (1000 if edge == "min" else 1002) + base + offset
        predicate = (column, op, (literal, literal + 1) if op == "between" else literal)
        aggregates = [("count", None), ("min", column), ("max", column)]
        want = _oracle(table, aggregates, predicate)
        pages, answered = _expected_pages(table, aggregates, predicate)
        got, got_pages, got_answered, _ = _run(_database(table, partitioned=False), _sql(aggregates, predicate))
        assert all(_same(g, w) for g, w in zip(got, want)), (predicate, got, want)
        assert (got_pages, got_answered) == (pages, answered), predicate


@pytest.mark.parametrize(
    "where, matches",
    [
        # Compared as floats 2**60 + 1 equals 2.0**60; as integers it is not 2**60.
        (f"i = {float(2**60)!r} AND i = {2**60}", False),
        (f"i = {2**60 + 1} AND i = {float(2**60)!r}", True),
        # A float in an IN list turns the whole list into float64.
        (f"i IN ({2**60}, 0.5)", True),
        (f"i = {float(2**60)!r}", True),
    ],
)
@pytest.mark.parametrize("rows", [2 * BLOCK_ROWS, 2 * BLOCK_ROWS - 1])
def test_pins_past_2_53_neither_prune_nor_answer(where, matches, rows) -> None:
    """Pins are intersected by Python equality, the kernels compare a float
    literal in float64: past 2**53 the two disagree, so the synopsis proves
    nothing and every block is read — with or without a partial tail."""
    db = LawsDatabase(verify_sample_fraction=0.0)
    db.load_dict("t", {"i": [2**60 + 1] * rows})
    sql = f"SELECT count(*) FROM t WHERE {where}"
    assert db.query(sql, EXACT).rows() == [(rows if matches else 0,)]
    assert "blocks=2/2, answered=0" in db.explain(sql, EXACT)


def test_a_count_with_no_match_is_zero_and_an_extreme_null() -> None:
    table = _table(7, 3 * BLOCK_ROWS + 300)
    db = _database(table, partitioned=False)
    sql = "SELECT count(*), count(i), min(f), max(i) FROM t WHERE i BETWEEN 3000 AND 4000"
    got, pages, answered, pruned = _run(db, sql)
    assert got[:2] == [(True, 0.0), (True, 0.0)]
    assert not got[2][0] and not got[3][0]
    # No value lies in the interval: every complete block whose [min, max]
    # misses it is pruned, none is answered, and the tail is read.
    assert answered == 0
    assert pages == -(-300 * 16 // PAGE) + 16 * BLOCK_ROWS * (3 - int(pruned)) // PAGE


def test_an_answered_count_reads_only_the_tail() -> None:
    rows = 3 * BLOCK_ROWS + 288
    db = LawsDatabase(verify_sample_fraction=0.0)
    db.load_dict("fact", {"ts": list(range(rows)), "x": [float(i % 97) for i in range(rows)]})
    low, high = BLOCK_ROWS // 2, 2 * BLOCK_ROWS + 10
    sql = f"SELECT count(*), min(ts), max(ts) FROM fact WHERE ts BETWEEN {low} AND {high}"
    assert "blocks=3/4, answered=1" in db.explain(sql, EXACT)
    with db.database.io_model.scope() as scope:
        assert db.query(sql, EXACT).rows() == [(high - low + 1, float(low), float(high))]
    # The two boundary blocks and the 288-row tail, 2 B per row (ts is below 2**15).
    assert scope.pages_read == -(-(2 * BLOCK_ROWS + 288) * 2 // PAGE)
    scan = db.last_trace().find("op:TableScan")
    assert scan.attributes["blocks_answered"] == 1
    assert "answered=1" in scan.attributes["operator"]


def test_a_pinned_reader_keeps_its_count_and_max_when_an_append_completes_a_block() -> None:
    seed_rows = 2 * BLOCK_ROWS + 1000
    db = LawsDatabase(ingest_batch_size=64, observability=False)
    db.load_dict("events", {"ts": list(range(seed_rows)), "v": [1.0] * seed_rows})
    sql = "SELECT count(*), max(ts), count(v) FROM events WHERE ts >= 0"
    snap = db.snapshot()
    before = db.query(sql, EXACT, snapshot=snap).rows()
    assert before == [(seed_rows, float(seed_rows - 1), seed_rows)]
    # 100 rows complete block 2: the live table's synopsis grows under the pin.
    db.ingest("events", [(i, 1.0) for i in range(seed_rows, seed_rows + 100)], flush=True)
    assert "blocks=1/4, answered=3" in db.explain(sql, EXACT)
    live = db.query(sql, EXACT).rows()
    assert live == [(seed_rows + 100, float(seed_rows + 99), seed_rows + 100)]
    assert db.query(sql, EXACT, snapshot=snap).rows() == before
    with db.database.io_model.scope() as scope:
        assert db.query(sql, EXACT, snapshot=snap).rows() == before
    # The pinned view still has a 1000-row tail to read: 8 B per row of ts and of v.
    assert scope.pages_read == -(-1000 * 16 // PAGE)
