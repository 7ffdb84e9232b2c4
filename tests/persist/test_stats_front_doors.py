"""Catalog statistics equal the rows' own, whichever door the rows came in by.

A seeded schedule drives one durable table through every front door —
``insert_rows``, ``ingest(..., flush=True)``, SQL ``INSERT``, a replacing
registration, a drop and re-create, an append whose redo record fails, a
checkpoint and a reopen — with readers pinned before some of the writes.
After every step, ``catalog.stats`` under each live reader (and unpinned)
must equal ``compute_table_stats`` of the rows that reader sees: appends
merge their batch into statistics kept per data generation, every other
change leaves them to be computed again, and a pin reads its own
generation's.  After a reopen the statistics equal the live process's.
"""

from __future__ import annotations

import errno
import math

import numpy as np
import pytest

from repro import LawsDatabase
from repro.db.schema import ColumnDef, Schema
from repro.db.stats import ENUMERABLE_DISTINCT_LIMIT, compute_table_stats
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ReproError
from repro.resilience import FaultInjector, FaultSpec

SCHEMA = Schema(
    [
        ColumnDef("i", DataType.INT64),  # more distinct values than a domain holds
        ColumnDef("f", DataType.FLOAT64),  # NULLs and finite values: mean and std
        ColumnDef("g", DataType.FLOAT64),  # NULL, NaN, ±inf beside a few values
        ColumnDef("s", DataType.STRING),
        ColumnDef("b", DataType.BOOL),
    ]
)
SPECIALS = (math.nan, math.inf, -math.inf, None, 0.5, 1.5, 2.5)
WRITES = ("insert_rows", "ingest", "sql_insert", "replace", "drop_recreate", "insert_rows", "ingest")


def _rows(rng, n, sql=False):
    """``n`` row tuples; ``sql`` keeps to values an INSERT literal can spell."""
    specials = SPECIALS[3:] if sql else SPECIALS
    rows = []
    for _ in range(n):
        rows.append(
            (
                None if rng.random() < 0.05 else int(rng.integers(-(10**6), 10**6)),
                None if rng.random() < 0.1 else float(rng.uniform(1.0, 100.0)),
                specials[int(rng.integers(len(specials)))],
                None if rng.random() < 0.1 else f"s{int(rng.integers(20))}",
                None if rng.random() < 0.1 else bool(rng.integers(2)),
            )
        )
    return rows


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _same(a, b) -> bool:
    """Equal, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return _same(a, b)
    return math.isclose(a, b, rel_tol=1e-12)


def _assert_stats_equal(served, oracle) -> None:
    assert served.row_count == oracle.row_count
    assert served.byte_size == oracle.byte_size
    assert list(served.columns) == list(oracle.columns)
    for name, expected in oracle.columns.items():
        column = served.columns[name]
        where = f"column {name!r}"
        assert (column.row_count, column.null_count) == (expected.row_count, expected.null_count), where
        assert _same(column.min_value, expected.min_value), where
        assert _same(column.max_value, expected.max_value), where
        assert (column.domain is None) == (expected.domain is None), where
        if expected.domain is not None:
            assert len(column.domain) == len(expected.domain), where
            assert all(_same(x, y) for x, y in zip(column.domain, expected.domain)), where
            assert column.domain_counts == expected.domain_counts, where
            assert column.distinct_count == expected.distinct_count, where
        assert _close(column.mean, expected.mean), (where, column.mean, expected.mean)
        assert _close(column.std, expected.std), (where, column.std, expected.std)


def _check(db, readers) -> None:
    """Every live reader — pinned or not — is served its own rows' statistics."""
    catalog = db.database.catalog
    _assert_stats_equal(catalog.stats("t"), compute_table_stats(catalog.live_table("t")))
    for snapshot in readers:
        with catalog.reading(snapshot):
            served = catalog.stats("t")
        _assert_stats_equal(served, compute_table_stats(snapshot.table("t")))


def _write(db, kind, rng) -> None:
    if kind == "insert_rows":
        db.insert_rows("t", _rows(rng, int(rng.integers(1, 40))))
    elif kind == "ingest":
        db.ingest("t", _rows(rng, int(rng.integers(1, 40))), flush=True)
    elif kind == "sql_insert":
        values = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")" for row in _rows(rng, 3, sql=True)
        )
        db.query(f"INSERT INTO t VALUES {values}")
    else:
        if kind == "replace":
            db.register_table(Table.from_rows("t", SCHEMA, _rows(rng, 300)), replace=True)
        else:
            db.drop_table("t")
            db.register_table(Table.from_rows("t", SCHEMA, _rows(rng, 200)))
        # An append before any read meets the statistics the old rows left.
        db.insert_rows("t", _rows(rng, 4))


def _run_writes(db, rng, readers) -> None:
    for kind in rng.permutation(WRITES):
        if rng.random() < 0.5:
            readers.append(db.database.catalog.snapshot())
            del readers[:-3]
        _write(db, str(kind), rng)
        _check(db, readers)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_statistics_equal_the_rows_across_every_front_door(tmp_path, seed):
    rng = np.random.default_rng(seed)
    root = tmp_path / "db"
    db = LawsDatabase.open(root, ingest_batch_size=16, observability=False)
    db.register_table(Table.from_rows("t", SCHEMA, _rows(rng, 5000)))
    assert compute_table_stats(db.table("t")).column("i").distinct_count > ENUMERABLE_DISTINCT_LIMIT
    readers = []
    _check(db, readers)
    _run_writes(db, rng, readers)
    db.checkpoint()
    _check(db, readers)
    db.insert_rows("t", _rows(rng, 7))  # a WAL tail the reopen replays
    _check(db, readers)
    live = db.database.stats("t")
    db.close()

    # After a reopen a write is the fault point's first arrival: the redo
    # record of this append fails, and the append is rolled back.
    faults = FaultInjector([FaultSpec("persist.wal.append", "oserror", errno_code=errno.EROFS)])
    db = LawsDatabase.open(root, ingest_batch_size=16, observability=False, fault_injector=faults)
    _assert_stats_equal(db.database.stats("t"), live)
    readers = [db.database.catalog.snapshot()]
    with pytest.raises(ReproError):
        db.insert_rows("t", _rows(rng, 5))
    assert db.table("t").num_rows == live.row_count
    db.ingest("t", _rows(rng, 5), flush=True)
    _check(db, readers)
    _run_writes(db, rng, readers)
    live = db.database.stats("t")
    db.close()

    with LawsDatabase.open(root, observability=False) as reopened:
        _assert_stats_equal(reopened.database.stats("t"), live)
        _check(reopened, [])
