"""Morsel boundaries: every exact operator answers, and is charged, as if it read whole columns.

The scan, filter, join probe and aggregate work ``MORSEL_ROWS`` rows at a time
(``repro.db.operators.morsel``).  Here a morsel is two blocks (``M``), so
tables of a few thousand rows cross many boundaries; the row counts are 0, 1,
M − 1, M, M + 1 and 2M + BLOCK_ROWS − 1 (a partial tail block in a partial
last morsel).  The tables hold NULL group keys, groups first seen past the
first morsel (first-occurrence order must survive the cut), NULL join keys
and duplicate build keys; the statements prune, answer and read blocks.

Every statement's rows equal a NumPy / loop oracle — counts, extremes and
row lists exactly, SUM / AVG / STDDEV to 1e-12 (they fold morsel by morsel)
— and its charge equals the serial rule, which does not know morsels exist:

    bytes = Σ width(predicate columns) × kept rows
          + Σ width(other handed-on columns) × rows of the kept blocks holding a match.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.db import Database
from repro.db.column import BLOCK_ROWS, Column
from repro.db.operators import morsel
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType

M = 2 * BLOCK_ROWS
LENGTHS = [0, 1, M - 1, M, M + 1, 2 * M + BLOCK_ROWS - 1]
_INT, _FLOAT = DataType.INT64, DataType.FLOAT64


@pytest.fixture(autouse=True)
def small_morsels(monkeypatch):
    monkeypatch.setattr(morsel, "MORSEL_ROWS", M)


def _fact(n: int) -> Table:
    """``ts`` the row number; ``g`` groups 0–3, with 4–6 first seen past the
    first morsel and every 7th key NULL; ``x`` with every 11th value NULL;
    ``k`` join keys 0–9 with every 13th NULL."""
    rng = np.random.default_rng(n)
    ts = np.arange(n, dtype=np.int64)
    g = rng.integers(0, 4, n)
    late = ts >= M + 5
    g[late] = rng.integers(0, 7, int(late.sum()))
    columns = {
        "ts": Column(_INT, ts),
        "g": Column(_INT, g, ts % 7 != 3),
        "x": Column(_FLOAT, rng.normal(10.0, 5.0, n), ts % 11 != 5),
        "k": Column(_INT, rng.integers(0, 10, n), ts % 13 != 0),
    }
    return Table("fact", Schema([ColumnDef(name, c.dtype) for name, c in columns.items()]), columns)


#: ``dim``: duplicate build keys (1 twice, 3 three times), a NULL key, a key
#: no probe row holds.
DIM_KEYS = [0, 1, 1, 2, 3, 3, 3, 5, None, 12]


def _database(n: int) -> tuple[Database, Table, Table]:
    db = Database()
    db.register_table(_fact(n))
    weights = [float(i) - 2.5 for i in range(len(DIM_KEYS))]
    db.register_table(Table.from_dict("dim", {"k2": DIM_KEYS, "w": weights}))
    return db, db.table("fact"), db.table("dim")


def _run(db: Database, sql: str) -> tuple[Table, int]:
    with db.io_model.scope() as scope:
        result = db.sql(sql).table
    return result, scope.bytes_read


def _values(column: Column) -> list:
    return column.to_pylist()


def _block_rows(num_rows: int, blocks) -> int:
    return sum(min(BLOCK_ROWS, num_rows - block * BLOCK_ROWS) for block in blocks)


def _touched(num_rows: int, matched: np.ndarray) -> int:
    """Rows of the blocks holding a matched row (the tail block clipped)."""
    return _block_rows(num_rows, sorted(set((np.flatnonzero(matched) // BLOCK_ROWS).tolist())))


def _width(table: Table, name: str) -> int:
    return table.column(name).stored_width


def _close(actual, expected) -> None:
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        if e is None:
            assert a is None
        elif isinstance(e, float):
            assert a == pytest.approx(e, rel=1e-12, abs=1e-12)
        else:
            assert a == e


@pytest.mark.parametrize("n", LENGTHS)
def test_group_by_matches_the_loop_oracle_in_first_occurrence_order(n):
    db, fact, _ = _database(n)
    result, charged = _run(
        db, "SELECT g, count(*), count(x), sum(x), avg(x), min(x), max(x), stddev(x) FROM fact GROUP BY g"
    )
    groups: dict = {}
    for key, value in zip(_values(fact.column("g")), _values(fact.column("x"))):
        groups.setdefault(key, []).append(value)
    assert _values(result.column("g")) == list(groups)
    present = [[v for v in values if v is not None] for values in groups.values()]
    _close(_values(result.column("count(*)")), [len(values) for values in groups.values()])
    _close(_values(result.column("count(x)")), [len(values) for values in present])
    _close(_values(result.column("sum(x)")), [math.fsum(v) if v else None for v in present])
    _close(_values(result.column("avg(x)")), [math.fsum(v) / len(v) if v else None for v in present])
    _close(_values(result.column("min(x)")), [min(v) if v else None for v in present])
    _close(_values(result.column("max(x)")), [max(v) if v else None for v in present])
    _close(
        _values(result.column("stddev(x)")),
        [float(np.std(v, ddof=1)) if len(v) > 1 else (0.0 if v else None) for v in present],
    )
    assert charged == (_width(fact, "g") + 8) * n


@pytest.mark.parametrize("n", LENGTHS)
def test_filtered_scan_keeps_the_oracle_rows_and_charges_late_columns_by_block(n):
    db, fact, _ = _database(n)
    result, charged = _run(db, "SELECT ts, x FROM fact WHERE x > 12.0")
    x = fact.column("x")
    matched = x.validity & (x.values > 12.0)
    assert _values(result.column("ts")) == np.flatnonzero(matched).tolist()
    assert _values(result.column("x")) == x.values[matched].tolist()
    assert charged == 8 * n + _width(fact, "ts") * _touched(n, matched)


@pytest.mark.parametrize("n", LENGTHS)
def test_pruned_answered_and_tail_blocks(n):
    """``ts >= low`` prunes the blocks below ``low``, answers the complete
    blocks above it and reads the block ``low`` falls in and the partial tail."""
    db, fact, _ = _database(n)
    low = BLOCK_ROWS + 100
    result, charged = _run(db, f"SELECT count(*), min(ts), max(ts) FROM fact WHERE ts >= {low}")
    expected = max(n - low, 0)
    assert _values(result.column("count(*)")) == [expected]
    assert _values(result.column("min(ts)")) == ([float(low)] if expected else [None])
    assert _values(result.column("max(ts)")) == ([float(n - 1)] if expected else [None])
    complete = n // BLOCK_ROWS
    read = [b for b in range(complete) if (b + 1) * BLOCK_ROWS > low and b * BLOCK_ROWS < low]
    read += [complete] if n % BLOCK_ROWS else []
    assert charged == _width(fact, "ts") * _block_rows(n, read)

    ts = fact.column("ts").values
    result, charged = _run(db, f"SELECT x FROM fact WHERE ts BETWEEN {low} AND {low + M}")
    matched = (ts >= low) & (ts <= low + M)
    assert _values(result.column("x")) == _values(fact.column("x"))[low : low + M + 1]
    kept = [b for b in range(complete) if b * BLOCK_ROWS <= low + M and (b + 1) * BLOCK_ROWS > low]
    kept += [complete] if n % BLOCK_ROWS else []
    assert charged == _width(fact, "ts") * _block_rows(n, kept) + 8 * _touched(n, matched)


def _join_oracle(fact: Table, dim: Table) -> list[tuple[int, int]]:
    build: dict = {}
    for row, key in enumerate(_values(dim.column("k2"))):
        if key is not None:
            build.setdefault(key, []).append(row)
    return [
        (row, match)
        for row, key in enumerate(_values(fact.column("k")))
        if key is not None
        for match in build.get(key, ())
    ]


@pytest.mark.parametrize("n", LENGTHS)
def test_join_probe_pairs_duplicate_build_keys_in_order(n):
    db, fact, dim = _database(n)
    pairs = _join_oracle(fact, dim)
    result, charged = _run(db, "SELECT ts, w FROM fact JOIN dim ON k = k2")
    w = _values(dim.column("w"))
    assert list(zip(_values(result.column("ts")), _values(result.column("w")))) == [
        (row, w[match]) for row, match in pairs
    ]
    assert charged == (_width(fact, "ts") + _width(fact, "k")) * n + (_width(dim, "k2") + 8) * len(DIM_KEYS)

    result, _ = _run(db, "SELECT count(*), sum(x) FROM fact JOIN dim ON k = k2 WHERE w > 0")
    x, w_values = _values(fact.column("x")), _values(dim.column("w"))
    kept = [x[row] for row, match in pairs if w_values[match] > 0]
    present = [v for v in kept if v is not None]
    assert _values(result.column("count(*)")) == [len(kept)]
    _close(_values(result.column("sum(x)")), [math.fsum(present) if present else None])


@pytest.mark.parametrize("n", LENGTHS)
def test_cross_table_filter_over_a_join(n):
    """A conjunct over both sides is a ``Filter`` above the join, also cut in morsels."""
    db, fact, dim = _database(n)
    result, _ = _run(db, "SELECT ts FROM fact JOIN dim ON k = k2 WHERE x > w + 10.0")
    x, w = _values(fact.column("x")), _values(dim.column("w"))
    assert _values(result.column("ts")) == [
        row for row, match in _join_oracle(fact, dim) if x[row] is not None and x[row] > w[match] + 10.0
    ]


@pytest.mark.parametrize("n", LENGTHS)
def test_charges_and_rows_do_not_depend_on_the_morsel_size(n, monkeypatch):
    statements = [
        "SELECT g, count(*), min(x), max(x) FROM fact GROUP BY g",
        "SELECT ts, x FROM fact WHERE x > 12.0",
        "SELECT ts, w FROM fact JOIN dim ON k = k2",
        f"SELECT count(*), max(x) FROM fact WHERE ts >= {BLOCK_ROWS + 100}",
    ]
    small = [_run(_database(n)[0], sql) for sql in statements]
    monkeypatch.setattr(morsel, "MORSEL_ROWS", 64 * BLOCK_ROWS)
    whole = [_run(_database(n)[0], sql) for sql in statements]
    for sql, (rows, charged), (whole_rows, whole_charged) in zip(statements, small, whole):
        assert charged == whole_charged, sql
        assert rows.to_rows() == whole_rows.to_rows(), sql
