"""The batched append path: buffering, flushing, stats and listeners."""

from __future__ import annotations

import pytest

from repro import LawsDatabase
from repro.db import Database
from repro.errors import CatalogError, StreamingError
from repro.streaming import StreamIngestor

from tests.conftest import APPROX


@pytest.fixture()
def db():
    database = Database()
    database.load_dict("events", {"t": [0.0], "value": [1.0]})
    return database


class TestStreamIngestor:
    def test_buffers_below_batch_size(self, db):
        ingestor = StreamIngestor(db, batch_size=10)
        flushed = ingestor.submit("events", [(1.0, 2.0), (2.0, 3.0)])
        assert flushed == []
        assert ingestor.pending("events") == 2
        assert db.table("events").num_rows == 1  # nothing appended yet

    def test_auto_flush_at_batch_size(self, db):
        ingestor = StreamIngestor(db, batch_size=3)
        flushed = ingestor.submit("events", [(float(i), float(i)) for i in range(7)])
        assert [batch.num_rows for batch in flushed] == [3, 3]
        assert ingestor.pending("events") == 1
        assert db.table("events").num_rows == 1 + 6

    def test_batch_row_ranges_are_contiguous(self, db):
        ingestor = StreamIngestor(db, batch_size=2)
        flushed = ingestor.submit("events", [(float(i), float(i)) for i in range(4)])
        assert (flushed[0].start_row, flushed[0].end_row) == (1, 3)
        assert (flushed[1].start_row, flushed[1].end_row) == (3, 5)

    def test_explicit_flush_drains_remainder(self, db):
        ingestor = StreamIngestor(db, batch_size=100)
        ingestor.submit("events", [(1.0, 1.0)])
        flushed = ingestor.flush("events")
        assert len(flushed) == 1 and flushed[0].num_rows == 1
        assert ingestor.pending("events") == 0
        assert ingestor.flush("events") == []  # idempotent when empty

    def test_flush_all_tables(self, db):
        db.load_dict("other", {"x": [1.0]})
        ingestor = StreamIngestor(db, batch_size=100)
        ingestor.submit("events", [(1.0, 1.0)])
        ingestor.submit("other", [(2.0,)])
        flushed = ingestor.flush()
        assert {batch.table_name for batch in flushed} == {"events", "other"}

    def test_flush_all_isolates_per_table_failures(self, db):
        from repro.errors import TypeMismatchError

        db.load_dict("other", {"x": [1.0]})
        ingestor = StreamIngestor(db, batch_size=100)
        ingestor.submit("events", [(1.0, "not-a-float")])
        ingestor.submit("other", [(2.0,)])
        with pytest.raises(TypeMismatchError):
            ingestor.flush()
        # The healthy table was still flushed; the broken buffer is retained.
        assert db.table("other").num_rows == 2
        assert ingestor.pending("other") == 0
        assert ingestor.pending("events") == 1

    def test_columnar_submission(self, db):
        ingestor = StreamIngestor(db, batch_size=2)
        flushed = ingestor.submit("events", {"t": [1.0, 2.0], "value": [5.0, 6.0]})
        assert flushed[0].rows == ((1.0, 5.0), (2.0, 6.0))

    def test_columnar_missing_column_becomes_null(self, db):
        ingestor = StreamIngestor(db, batch_size=1)
        flushed = ingestor.submit("events", {"t": [9.0]})
        assert flushed[0].rows == ((9.0, None),)

    def test_columnar_unknown_column_rejected(self, db):
        ingestor = StreamIngestor(db, batch_size=10)
        with pytest.raises(StreamingError, match="unknown columns"):
            ingestor.submit("events", {"bogus": [1.0]})

    def test_columnar_ragged_lengths_rejected(self, db):
        ingestor = StreamIngestor(db, batch_size=10)
        with pytest.raises(StreamingError, match="ragged"):
            ingestor.submit("events", {"t": [1.0, 2.0], "value": [1.0]})

    def test_columnar_present_but_empty_column_rejected(self, db):
        ingestor = StreamIngestor(db, batch_size=10)
        # An explicitly provided empty column is a length mismatch, not a
        # null-fill request (that is what *omitting* the column means).
        with pytest.raises(StreamingError, match="ragged"):
            ingestor.submit("events", {"t": [1.0, 2.0], "value": []})

    def test_unknown_table_rejected_before_buffering(self, db):
        ingestor = StreamIngestor(db, batch_size=10)
        with pytest.raises(CatalogError):
            ingestor.submit("missing", [(1.0, 2.0)])

    def test_stats_accounting(self, db):
        ingestor = StreamIngestor(db, batch_size=5)
        ingestor.submit("events", [(float(i), float(i)) for i in range(12)])
        stats = ingestor.stats("events")
        assert stats.rows_ingested == 10
        assert stats.batches_flushed == 2
        assert stats.pending_rows == 2
        assert stats.last_batch_rows == 5
        assert stats.rows_per_second > 0
        assert "events" in ingestor.describe()

    def test_listener_sees_every_flush(self, db):
        ingestor = StreamIngestor(db, batch_size=2)
        seen = []
        ingestor.add_listener(seen.append)
        ingestor.submit("events", [(float(i), float(i)) for i in range(5)])
        ingestor.flush("events")
        assert [batch.num_rows for batch in seen] == [2, 2, 1]
        ingestor.remove_listener(seen.append)
        ingestor.submit("events", [(9.0, 9.0), (9.5, 9.5)])
        assert len(seen) == 3

    def test_invalid_batch_size_rejected(self, db):
        with pytest.raises(StreamingError):
            StreamIngestor(db, batch_size=0)

    def test_bad_arity_row_rejected_at_submit(self, db):
        ingestor = StreamIngestor(db, batch_size=100)
        with pytest.raises(StreamingError, match="2 columns"):
            ingestor.submit("events", [(1.0, 1.0), (2.0, 2.0, "extra")])
        # Rejected up front: nothing was buffered, the stream is not poisoned.
        assert ingestor.pending("events") == 0

    def test_failed_flush_keeps_buffer_for_retry_and_discard_drains(self, db):
        from repro.errors import TypeMismatchError

        ingestor = StreamIngestor(db, batch_size=100)
        ingestor.submit("events", [(1.0, 1.0), (2.0, "not-a-float")])
        with pytest.raises(TypeMismatchError):
            ingestor.flush("events")
        # Nothing committed, nothing lost: the buffer is intact for retry.
        assert db.table("events").num_rows == 1
        assert ingestor.pending("events") == 2
        # The public escape hatch for an unappendable buffer.
        assert ingestor.discard("events") == 2
        assert ingestor.pending("events") == 0
        assert ingestor.flush("events") == []

    def test_failed_append_mid_submit_does_not_duplicate_committed_rows(self, db):
        from repro.errors import TypeMismatchError

        ingestor = StreamIngestor(db, batch_size=2)
        rows = [(1.0, 1.0), (2.0, 2.0), (3.0, "bad"), (4.0, 4.0)]
        with pytest.raises(TypeMismatchError):
            ingestor.submit("events", rows)
        # Batch 1 was committed; the buffer holds only the uncommitted tail.
        assert db.table("events").num_rows == 1 + 2
        assert ingestor.pending("events") == 2
        with pytest.raises(TypeMismatchError):
            ingestor.flush("events")
        assert db.table("events").num_rows == 1 + 2  # still no duplicates

    def test_reentrant_listener_submit_does_not_duplicate_rows(self, db):
        ingestor = StreamIngestor(db, batch_size=2)
        fed = []

        def reactive_listener(batch):
            # A consumer that reacts to the first flush by producing one more
            # row for the same table.
            if not fed:
                fed.append(True)
                ingestor.submit("events", [(9.0, 9.0)])

        ingestor.add_listener(reactive_listener)
        ingestor.submit("events", [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        ingestor.flush("events")
        values = db.table("events").column("t").to_pylist()
        # Every submitted row appears exactly once (no reentrant re-append).
        assert sorted(values) == [0.0, 1.0, 2.0, 3.0, 9.0]

    def test_raising_listener_does_not_requeue_committed_rows(self, db):
        ingestor = StreamIngestor(db, batch_size=2)

        def bad_listener(batch):
            raise RuntimeError("listener exploded")

        ingestor.add_listener(bad_listener)
        with pytest.raises(RuntimeError):
            ingestor.submit("events", [(1.0, 1.0), (2.0, 2.0)])
        # The batch was committed before the listener ran; it must not be
        # re-appended by later flushes.
        assert db.table("events").num_rows == 1 + 2
        assert ingestor.pending("events") == 0
        ingestor.remove_listener(bad_listener)
        assert ingestor.flush("events") == []
        assert db.table("events").num_rows == 1 + 2


class TestLawsDatabaseIngest:
    def test_ingest_marks_models_stale_but_keeps_serving(self):
        import numpy as np

        rng = np.random.default_rng(3)
        t = np.arange(0.0, 50.0, 0.1)
        db = LawsDatabase(ingest_batch_size=50)
        db.load_dict("readings", {"t": t, "value": 1.0 + 2.0 * t + rng.normal(0, 0.1, len(t))})
        report = db.fit("readings", "value ~ linear(t)")
        assert report.accepted

        db.ingest("readings", [(50.0 + i * 0.1, 1.0 + 2.0 * (50.0 + i * 0.1)) for i in range(50)])
        model = report.model
        assert model.status == "stale"
        # Deprioritized, not hidden: the engine still answers from the model,
        # and the answer discloses that it was served stale.
        answer = db.query("SELECT avg(value) AS m FROM readings", APPROX).approx
        assert not answer.is_exact
        assert answer.used_model_ids == [model.model_id]
        assert "stale model" in answer.reason

    def test_model_backed_features_survive_ingest_window(self):
        """compare_scan/compress/best_model work from a stale model between
        an ingest batch and the next maintain() tick."""
        import numpy as np

        rng = np.random.default_rng(4)
        t = np.arange(0.0, 50.0, 0.1)
        db = LawsDatabase(ingest_batch_size=50)
        db.load_dict("readings", {"t": t, "value": 1.0 + 2.0 * t + rng.normal(0, 0.1, len(t))})
        report = db.fit("readings", "value ~ linear(t)")
        db.ingest("readings", [(50.0 + i * 0.1, 101.0 + 0.2 * i) for i in range(50)])
        assert report.model.status == "stale"
        assert db.best_model("readings", "value").model_id == report.model.model_id
        assert db.compare_scan("readings", "value").model_pages_read == 0
        assert db.compress_table("readings").stats is not None

    def test_ingest_flush_and_stats_via_facade(self):
        db = LawsDatabase(ingest_batch_size=1000)
        db.load_dict("readings", {"t": [0.0], "value": [0.0]})
        assert db.ingest("readings", [(1.0, 1.0)]) == []
        flushed = db.flush_ingest("readings")
        assert flushed[0].num_rows == 1
        assert db.ingest_stats("readings").rows_ingested == 1

    def test_ingest_flush_kwarg(self):
        db = LawsDatabase(ingest_batch_size=1000)
        db.load_dict("readings", {"t": [0.0], "value": [0.0]})
        batches = db.ingest("readings", [(1.0, 1.0), (2.0, 2.0)], flush=True)
        assert sum(batch.num_rows for batch in batches) == 2
        assert db.table("readings").num_rows == 3
