"""Append while asking for the latest / largest N: top-bounded scans under real concurrency.

One writer flushes time-ordered batches onto an append-ordered table while
four readers pin snapshots and run ``ORDER BY ts DESC LIMIT 10`` and ``ORDER
BY x DESC LIMIT 10 OFFSET 5`` — scans the block synopses cut down to the
handful of blocks that can hold a winner.  The winners of a pinned reader sit
at (or near) its own tip, often in a partial tail block that a later commit
completes and summarises underneath it, so the oracle is the plainest thing
there is: the list of rows, cut at the row count the reader's own snapshot
reports, sorted by Python.  Whatever the interleaving, a pinned reader must
get exactly the oracle's rows — no winner hidden by a synopsis built through a
newer snapshot, none leaked from a batch committed after its pin.
"""

from __future__ import annotations

import threading

import pytest

from repro import LawsDatabase
from repro.core.planner import AccuracyContract
from repro.db.column import BLOCK_ROWS
from tests.concurrency.harness import iterations, run_workers

pytestmark = pytest.mark.concurrency

EXACT = AccuracyContract(mode="exact")
BATCH = 384  # not a divisor of BLOCK_ROWS: commits land mid-block
SEED_ROWS = 12 * BLOCK_ROWS + 100


def _row(i: int) -> tuple[int, float]:
    # A slow upward drift under a sawtooth: the largest readings are recent
    # but not the latest, and every value repeats (ties break in row order).
    return i, float(i // 500 + (i * 37) % 101)


def test_pinned_latest_and_largest_n_match_the_row_list_while_appending():
    batches = iterations(24)
    rows = [_row(i) for i in range(SEED_ROWS + batches * BATCH)]
    db = LawsDatabase(ingest_batch_size=BATCH, observability=False)
    db.load_dict(
        "events",
        {"ts": [ts for ts, _ in rows[:SEED_ROWS]], "x": [x for _, x in rows[:SEED_ROWS]]},
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

    def reader() -> None:
        while True:
            done = stop.is_set()
            snap = db.snapshot()
            visible = db.query("SELECT count(*) FROM events", EXACT, snapshot=snap).scalar()
            assert (visible - SEED_ROWS) % BATCH == 0, f"{visible} rows: mid-batch read"
            latest = db.query("SELECT ts, x FROM events ORDER BY ts DESC LIMIT 10", EXACT, snapshot=snap)
            assert latest.rows() == rows[visible - 10 : visible][::-1], f"latest of {visible} pinned rows"
            largest = db.query(
                "SELECT ts, x FROM events ORDER BY x DESC LIMIT 10 OFFSET 5", EXACT, snapshot=snap
            )
            # ``sorted`` is stable: equal readings stay in row order, as the engine keeps them.
            expected = sorted(rows[:visible], key=lambda row: -row[1])[5:15]
            assert largest.rows() == expected, f"largest of {visible} pinned rows"
            round_done.set()
            if done:
                break

    run_workers(writer, *[reader] * 4)
    assert db.query("SELECT count(*) FROM events", EXACT).scalar() == len(rows)
    # The scans above did skip blocks: the latest ten cost the ten best blocks and the tail.
    with db.database.io_model.scope() as scope:
        db.query("SELECT ts FROM events ORDER BY ts DESC LIMIT 10", EXACT)
    assert scope.snapshot()["pages_read"] <= 11
    assert scope.snapshot()["pages_read"] < len(rows) // BLOCK_ROWS
