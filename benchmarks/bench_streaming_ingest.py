"""Streaming ingestion & online maintenance benchmark.

Two questions the streaming subsystem must answer quantitatively:

1. What does the batched append path sustain, in rows/s, compared with
   one-row-at-a-time inserts?
2. After a mid-stream regime change, how wrong are approximate answers when
   the stale model keeps serving (maintenance off) versus after the
   change-point-driven refit (maintenance on)?
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, LawsDatabase
from repro.bench import ExperimentResult, relative_error
from repro.streaming import StreamIngestor

from tests.conftest import APPROX, EXACT


def _stream_rows(scale: float, seed: int = 17):
    """A linear sensor law with a level shift halfway through the stream."""
    n = max(int(200_000 * scale), 4_000)
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    value = 5.0 + 0.01 * t + rng.normal(0, 0.25, n)
    value[n // 2 :] += 12.0  # the regime change
    return t, value, n


@pytest.mark.benchmark(group="streaming")
def test_streaming_ingest_throughput(benchmark, scale):
    t, value, n = _stream_rows(scale)
    rows = list(zip(t, value))

    from time import perf_counter

    def ingest_run():
        db = Database()
        db.load_dict("stream", {"t": [0.0], "value": [0.0]})
        ingestor = StreamIngestor(db, batch_size=4096)
        # End-to-end wall clock (normalisation + buffering + appends), so the
        # comparison with the row-at-a-time loop below is apples-to-apples.
        started = perf_counter()
        ingestor.submit("stream", rows)
        ingestor.flush("stream")
        wall = perf_counter() - started
        return ingestor.stats("stream"), n / wall

    stats, batched_rows_per_second = benchmark.pedantic(ingest_run, iterations=1, rounds=3)

    # Baseline: the pre-existing row-at-a-time insert path.
    db = Database()
    db.load_dict("stream", {"t": [0.0], "value": [0.0]})
    single = min(n, 2_000)  # a slice is enough to price the per-row path
    started = perf_counter()
    for row in rows[:single]:
        db.insert_rows("stream", [row])
    single_rows_per_second = single / (perf_counter() - started)

    result = ExperimentResult(name="streaming ingest throughput")
    result.add_row(
        method="StreamIngestor (4096-row batches)",
        rows=stats.rows_ingested,
        rows_per_second=batched_rows_per_second,
        append_only_rows_per_second=stats.rows_per_second,
        batches=stats.batches_flushed,
    )
    result.add_row(
        method="insert_rows one-at-a-time",
        rows=single,
        rows_per_second=single_rows_per_second,
        append_only_rows_per_second=single_rows_per_second,
        batches=single,
    )
    result.print()

    assert stats.rows_ingested == n
    assert batched_rows_per_second > single_rows_per_second


@pytest.mark.benchmark(group="streaming")
def test_maintenance_accuracy_before_and_after_drift(benchmark, scale):
    """Approximate-answer error across a regime change, maintenance on vs. off."""
    t, value, n = _stream_rows(scale)
    half = n // 2
    sql = "SELECT avg(value) AS m FROM stream"

    def build(maintained: bool):
        db = LawsDatabase(ingest_batch_size=4096)
        db.load_dict("stream", {"t": t[:half], "value": value[:half]})
        report = db.fit("stream", "value ~ linear(t)")
        assert report.accepted
        if maintained:
            db.watch("stream", "value", order_column="t")
        db.ingest("stream", list(zip(t[half:], value[half:])), flush=True)
        if maintained:
            db.maintain()
        return db

    maintained = benchmark.pedantic(lambda: build(True), iterations=1, rounds=1)
    unmaintained = build(False)

    exact = maintained.query(sql, EXACT).query_result.table.row(0)[0]
    stale_answer = unmaintained.query(sql, APPROX).approx
    fresh_answer = maintained.query(sql, APPROX).approx
    stale_err = relative_error(stale_answer.scalar(), exact)
    fresh_err = relative_error(fresh_answer.scalar(), exact)

    result = ExperimentResult(name="avg(value) over full range after regime change")
    result.add_row(
        method="maintenance off (stale model serves)",
        value=stale_answer.scalar(),
        exact=exact,
        relative_error=stale_err,
        models=len(unmaintained.captured_models("stream")),
    )
    result.add_row(
        method="maintenance on (change-point refit)",
        value=fresh_answer.scalar(),
        exact=exact,
        relative_error=fresh_err,
        models=len(maintained.captured_models("stream")),
    )
    result.print()

    assert not stale_answer.is_exact and not fresh_answer.is_exact
    assert fresh_err < stale_err / 10
