"""A deterministic budget for the exact path: peak traced bytes per input row.

Timings on a shared 2-vCPU box cannot hold 10 %; allocation peaks repeat to
four digits.  The three heavy statement classes of the end-to-end benchmark
(``perf/datagen.py::scan_ops``, copied here as literals) run with a warm plan
on a seeded 100 000-row ``fact`` and 1 000-row ``dim`` under ``tracemalloc``;
each ceiling is 1.15 × what this tree measures and below what its parent
(ff75afd, whole-column kernels) measured, so the work each class stopped
doing cannot come back unnoticed.  The operators work 64 Ki-row morsels, so
at 100 000 rows one morsel's working set is still a visible share of a peak:

``scan_filter`` — 8.51 B/row here, 9.51 at the parent.  The peak is the
    output: every morsel's kept positions (8 × ½ of the rows pass) and the
    gathered ``x`` (8 × ½), beside one morsel's mask.  The ceiling fails when
    the predicate is evaluated over the whole column again (a table-sized
    mask), or when the aggregate copies its all-valid input.
``group_by`` — 9.61 B/row here, 17.21 at the parent.  The peak is one
    morsel's working set — its int64 codes, the per-morsel reductions and the
    ``ufunc.at`` scatters' operands.  The ceiling fails when the codes, the
    key dictionary's presence pass or the first-occurrence scatter go back to
    whole-column arrays, or when MIN/MAX go back to clustering the rows.
``join`` — 17.43 B/row here, 24.31 at the parent.  The peak is one probe
    morsel's offsets, partners and matched positions beside the kept
    positions of every morsel and the gathered ``x`` (48 % of the rows
    match); no right-row array exists, as no right column is handed on.  The
    ceiling fails when the probe widens, codes or pairs the whole key column
    again, or when a right-row array is built for nothing.
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
    "scan_filter": ("SELECT count(*), sum(x) FROM fact WHERE x > 10.0", 9.8),
    "group_by": (
        "SELECT k, count(*), sum(x), avg(x), min(x), max(x) FROM fact GROUP BY k",
        11.1,
    ),
    "join": ("SELECT count(*), sum(x) FROM fact JOIN dim ON k = k2 WHERE w > 0", 20.1),
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
