"""A deterministic budget for the exact path: peak traced bytes per input row.

Timings on a shared 2-vCPU box cannot hold 10 %; allocation peaks repeat to
four digits.  The three heavy statement classes of the end-to-end benchmark
(``perf/datagen.py::scan_ops``, copied here as literals) run with a warm plan
on a seeded 100 000-row ``fact`` and 1 000-row ``dim`` under ``tracemalloc``;
each ceiling is 1.15 × what this tree measures and below what its parent
(bc361ff) measured, so the work each class stopped doing cannot come back
unnoticed:

``scan_filter`` — 9.49 B/row here, 12.47 at the parent.  The peak is the
    selection itself: the mask (1), one index vector (8 × ½ of the rows pass)
    and one gather of ``x`` (8 × ½).  The parent peaked later, in the aggregate,
    holding the filtered column, a ``nonnull_numpy()`` gather of it and an
    ``astype`` copy of that.  The ceiling fails when both copies of an
    all-valid aggregate input are back, or when a selection costs more than
    one index vector plus one gather per projected column.
``group_by`` — 17.20 B/row here, 49.91 at the parent.  The peak is
    ``rank_codes`` (shifted keys + their ranks, 8 + 8).  The ceiling fails when
    MIN/MAX go back to clustering the rows (argsort + two row gathers), or when
    a NULL-free input is again gathered into ``ids`` / ``vals`` copies.
``join`` — 26.06 B/row here, 74.46 at the parent.  The peak is the probe codes
    (8), their partners (8) and the matched index pairs (2 × 8 × the 48 % of
    rows that match).  The ceiling fails when a single key pair goes through
    the packer again (two ``np.where`` + a multiply per side), when unique
    build keys are expanded with ``np.repeat`` / ramp arrays, or when the keys
    are ranked over a concatenation of both sides.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.db import Database
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType

FACT_ROWS, DIM_ROWS = 100_000, 1_000

#: class -> (statement, ceiling in peak traced bytes per ``fact`` row).
BUDGET = {
    "scan_filter": ("SELECT count(*), sum(x) FROM fact WHERE x > 10.0", 10.9),
    "group_by": (
        "SELECT k, count(*), sum(x), avg(x), min(x), max(x) FROM fact GROUP BY k",
        19.7,
    ),
    "join": ("SELECT count(*), sum(x) FROM fact JOIN dim ON k = k2 WHERE w > 0", 29.9),
}


@pytest.fixture(scope="module")
def database() -> Database:
    rng = np.random.default_rng([0, 20])
    integer, real = DataType.INT64, DataType.FLOAT64
    fact = {
        "k": rng.integers(0, DIM_ROWS, FACT_ROWS),
        "x": rng.normal(10.0, 5.0, FACT_ROWS),
        "ts": np.arange(FACT_ROWS, dtype=np.int64),
    }
    dim = {"k2": np.arange(DIM_ROWS, dtype=np.int64), "w": rng.normal(0.0, 1.0, DIM_ROWS)}
    db = Database()
    db.register_table(Table.from_numpy("fact", Schema.of(k=integer, x=real, ts=integer), fact))
    db.register_table(Table.from_numpy("dim", Schema.of(k2=integer, w=real), dim))
    return db


def _peak_bytes(db: Database, sql: str) -> int:
    db.sql(sql)  # statistics, parse and plan are cached from here on
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        db.sql(sql)
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", BUDGET)
def test_peak_traced_bytes_per_row_stay_under_the_ceiling(database, name):
    sql, ceiling = BUDGET[name]
    per_row = _peak_bytes(database, sql) / FACT_ROWS
    assert per_row <= ceiling, f"{name}: {per_row:.2f} traced bytes per input row > {ceiling}"
    # Run to run the figure moves in the fourth digit (python objects, not arrays).
    assert _peak_bytes(database, sql) / FACT_ROWS == pytest.approx(per_row, rel=1e-3)
