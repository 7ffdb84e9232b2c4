"""Append while range-scanning: block pruning under real concurrency.

One writer flushes batch after batch onto an append-ordered table while four
readers pin snapshots and run ``BETWEEN`` scans that the block synopses prune
to a handful of blocks.  The synopses live on column buffers that every
snapshot of the append chain shares and that the writer extends (and
reallocates) underneath the readers, so the oracle is the plainest thing
there is: the list of rows, cut at the row count the reader's own snapshot
reports.  Whatever the interleaving, a pinned reader must get exactly the
oracle's rows for its window — no row pruned that it can see, none leaked
from a batch committed after its pin.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.db.column import BLOCK_ROWS
from tests.concurrency.harness import iterations, run_workers

pytestmark = pytest.mark.concurrency

EXACT = AccuracyContract(mode="exact")
BATCH = 384  # not a divisor of BLOCK_ROWS: commits land mid-block
SEED_ROWS = 2 * BLOCK_ROWS + 100


def _row(i: int) -> tuple[int, float]:
    return i, float((i * 37) % 101)


def test_pinned_range_scans_match_the_row_list_while_appending():
    batches = iterations(24)
    rows = [_row(i) for i in range(SEED_ROWS + batches * BATCH)]
    db = LawsDatabase(ingest_batch_size=BATCH, observability=False)
    db.load_dict(
        "events",
        {"ts": [ts for ts, _ in rows[:SEED_ROWS]], "v": [v for _, v in rows[:SEED_ROWS]]},
    )
    stop = threading.Event()
    round_done = threading.Event()

    def writer() -> None:
        try:
            for start in range(SEED_ROWS, len(rows), BATCH):
                # Pace the commits on the readers, so that every few rounds
                # of scans meet a buffer that has grown since the last ones.
                round_done.clear()
                db.ingest("events", rows[start : start + BATCH], flush=True)
                assert round_done.wait(timeout=10.0), "readers stalled"
        finally:
            stop.set()

    def reader(seed: int):
        rng = random.Random(seed)

        def run() -> None:
            while True:
                done = stop.is_set()
                snap = db.snapshot()
                visible = db.query("SELECT count(*) FROM events", EXACT, snapshot=snap).scalar()
                assert (visible - SEED_ROWS) % BATCH == 0, f"{visible} rows: mid-batch read"
                for _ in range(4):
                    # Windows near the pinned tip: they straddle the partial
                    # tail block and reach into rows committed after the pin.
                    low = max(0, visible - rng.randrange(0, 3 * BLOCK_ROWS))
                    high = low + rng.randrange(0, 300)
                    got = db.query(
                        f"SELECT ts, v FROM events WHERE ts BETWEEN {low} AND {high}",
                        EXACT,
                        snapshot=snap,
                    ).rows()
                    assert got == rows[low : min(high + 1, visible)], (
                        f"window [{low}, {high}] over {visible} pinned rows"
                    )
                round_done.set()
                if done:
                    break

        return run

    run_workers(writer, *(reader(seed) for seed in range(4)))
    assert db.query("SELECT count(*) FROM events", EXACT).scalar() == len(rows)
    # The scans above did prune: a late window reads a fraction of the table.
    with db.database.io_model.scope() as scope:
        db.query(f"SELECT ts FROM events WHERE ts BETWEEN {len(rows) - 50} AND {len(rows)}", EXACT)
    assert scope.snapshot()["pages_read"] <= 2


def test_pinned_answered_aggregates_match_the_row_list_while_appending():
    """Counts and extremes answered from block synopses while appends
    complete blocks underneath: a pinned reader's ``COUNT`` / ``MIN`` /
    ``MAX`` over a window are the row list's, cut at its own row count."""
    batches = iterations(24)
    rows = [_row(i) for i in range(SEED_ROWS + batches * BATCH)]
    db = LawsDatabase(ingest_batch_size=BATCH, observability=False)
    db.load_dict(
        "events",
        {"ts": [ts for ts, _ in rows[:SEED_ROWS]], "v": [v for _, v in rows[:SEED_ROWS]]},
    )
    stop = threading.Event()
    round_done = threading.Event()

    def writer() -> None:
        try:
            for start in range(SEED_ROWS, len(rows), BATCH):
                round_done.clear()
                db.ingest("events", rows[start : start + BATCH], flush=True)
                assert round_done.wait(timeout=10.0), "readers stalled"
        finally:
            stop.set()

    def reader(seed: int):
        rng = random.Random(seed)

        def run() -> None:
            while True:
                done = stop.is_set()
                snap = db.snapshot()
                visible = db.query("SELECT count(*) FROM events", EXACT, snapshot=snap).scalar()
                for _ in range(4):
                    # Windows that start anywhere and run to the pinned tip:
                    # every complete block inside is answered, not read.
                    low = rng.randrange(0, visible)
                    got = db.query(
                        f"SELECT count(*), min(ts), max(ts), max(v) FROM events WHERE ts >= {low}",
                        EXACT,
                        snapshot=snap,
                    ).rows()
                    window = rows[low:visible]
                    want = (len(window), float(low), float(visible - 1), max(v for _, v in window))
                    assert got == [want], f"window [{low}, tip) over {visible} pinned rows"
                round_done.set()
                if done:
                    break

        return run

    run_workers(writer, *(reader(seed) for seed in range(4)))
    sql = "SELECT count(*), max(ts) FROM events WHERE ts >= 0"
    assert db.query(sql, EXACT).rows() == [(len(rows), float(len(rows) - 1))]
    with db.database.io_model.scope() as scope:
        db.query(sql, EXACT)
    # Only the partial tail block is read.
    assert scope.snapshot()["pages_read"] == 1
