"""Batched streaming ingestion into the relational substrate.

The paper's database is meant to harvest models "as data arrives"; this
module provides the arrival path.  A :class:`StreamIngestor` buffers
submitted rows per table and appends them in fixed-size batches, keeping
per-table throughput statistics and notifying registered listeners with the
exact row range each flushed batch occupies — the hook the online
maintenance policy uses to score captured models on fresh data only.

Appends are O(n) amortised end-to-end: base-table columns grow through
amortised-doubling buffers (see :mod:`repro.db.column`), so flushing batch
after batch no longer re-concatenates every column per flush.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Mapping, Sequence

from repro.db.database import Database
from repro.errors import StreamingError

__all__ = ["IngestBatch", "IngestStats", "StreamIngestor"]


@dataclass(frozen=True)
class IngestBatch:
    """One flushed batch: which table it landed in and where."""

    table_name: str
    start_row: int
    end_row: int  # exclusive
    rows: tuple[tuple[Any, ...], ...]

    @property
    def num_rows(self) -> int:
        return self.end_row - self.start_row


@dataclass
class IngestStats:
    """Per-table ingestion accounting."""

    table_name: str
    rows_ingested: int = 0
    batches_flushed: int = 0
    submissions: int = 0
    append_seconds: float = 0.0
    last_batch_rows: int = 0
    pending_rows: int = 0

    @property
    def rows_per_second(self) -> float:
        if self.append_seconds <= 0.0:
            return 0.0
        return self.rows_ingested / self.append_seconds

    def summary(self) -> str:
        return (
            f"{self.table_name}: {self.rows_ingested} rows in {self.batches_flushed} batches "
            f"({self.rows_per_second:,.0f} rows/s appended, {self.pending_rows} pending)"
        )


class StreamIngestor:
    """Buffers incoming rows and appends them to base tables in batches."""

    def __init__(
        self,
        database: Database,
        batch_size: int = 512,
        append: Callable[[str, Sequence[Sequence[Any]]], int] | None = None,
        faults: Any = None,
    ) -> None:
        if batch_size < 1:
            raise StreamingError(f"batch_size must be positive, got {batch_size}")
        self.database = database
        self.batch_size = batch_size
        #: ``append(table_name, rows) -> start row``: the committed append a
        #: flush goes through.  The substrate's own by default; a
        #: ``LawsDatabase`` passes its durable one, so a flushed batch and its
        #: redo record land together or not at all.
        self._append = append or database.insert_rows
        #: Fault injector (``streaming.ingest.flush``; None = unarmed); a
        #: fault raised here leaves the batch buffered for the next flush, so
        #: the stream self-heals once the fault clears.
        self.faults = faults
        self._buffers: dict[str, list[tuple[Any, ...]]] = {}
        self._stats: dict[str, IngestStats] = {}
        self._listeners: list[Callable[[IngestBatch], None]] = []
        # Serializes every buffer/stats mutation: concurrent producers may
        # submit to the same table, and a flush must not race a submit
        # repartitioning the same buffer.  Re-entrant because a listener may
        # submit() more rows from inside its notification.
        self._lock = threading.RLock()

    # -- listeners -------------------------------------------------------------

    def add_listener(self, callback: Callable[[IngestBatch], None]) -> None:
        """Register a callback invoked after every flushed batch."""
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[IngestBatch], None]) -> None:
        self._listeners.remove(callback)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        table_name: str,
        rows: Sequence[Sequence[Any]] | Mapping[str, Sequence[Any]],
    ) -> list[IngestBatch]:
        """Buffer rows for ``table_name``; flush every full batch.

        ``rows`` is either a sequence of row tuples (schema order) or a
        columnar mapping of column name to values.  Returns the batches that
        were flushed as a result of this submission (possibly none).
        """
        table = self.database.table(table_name)  # validates the table exists
        row_tuples = self._normalise(table.schema.names, rows)
        with self._lock:
            buffer = self._buffers.setdefault(table_name, [])
            buffer.extend(row_tuples)
            stats = self._stats_for(table_name)
            stats.submissions += 1
            flushed: list[IngestBatch] = []
            # Detach every full batch from the shared buffer *before* flushing:
            # listeners observing a batch may reentrantly submit() to the same
            # table, and they must see a buffer that no longer contains rows this
            # call is about to commit.  On failure, rows not yet committed are
            # re-queued ahead of anything buffered meanwhile (order preserved);
            # the offset advances only after a successful append, so committed
            # rows are never re-appended and uncommitted rows are never dropped.
            cut = (len(buffer) // self.batch_size) * self.batch_size
            if cut:
                to_flush = buffer[:cut]
                self._buffers[table_name] = buffer[cut:]
                offset = 0
                try:
                    while offset < cut:
                        batch = self._append_rows(
                            table_name, to_flush[offset : offset + self.batch_size]
                        )
                        offset += self.batch_size
                        flushed.append(batch)
                        self._notify(batch)
                except BaseException:
                    self._buffers[table_name] = to_flush[offset:] + self._buffers[table_name]
                    raise
                finally:
                    stats.pending_rows = len(self._buffers[table_name])
            stats.pending_rows = len(self._buffers[table_name])
            return flushed

    def flush(self, table_name: str | None = None) -> list[IngestBatch]:
        """Flush any buffered rows (for one table, or all tables).

        A failed append leaves the table's buffer intact for retry; the
        buffer is cleared as soon as the rows are committed, before listeners
        run, so a raising listener cannot cause re-appends.  When flushing
        all tables, one table's *append* failure does not stop the others
        from being flushed — the first append error is re-raised after the
        loop.  Listener exceptions propagate immediately (as in ``submit``):
        they signal a consumer bug, and the rows they were notified about
        are already committed.
        """
        with self._lock:
            names = [table_name] if table_name is not None else list(self._buffers)
            flushed: list[IngestBatch] = []
            first_error: Exception | None = None
            for name in names:
                buffer = self._buffers.get(name, [])
                if not buffer:
                    continue
                try:
                    batch = self._append_rows(name, buffer)
                except Exception as exc:  # noqa: BLE001 - isolate per-table append failures
                    if first_error is None:
                        first_error = exc
                    continue
                self._buffers[name] = []
                self._stats_for(name).pending_rows = 0
                flushed.append(batch)
                try:
                    self._notify(batch)
                except Exception as exc:
                    # A listener error propagates, but must not swallow an
                    # append failure already recorded for another table.
                    if first_error is not None:
                        raise exc from first_error
                    raise
            if first_error is not None:
                raise first_error
            return flushed

    def discard(self, table_name: str) -> int:
        """Drop any buffered (uncommitted) rows for a table; returns how many.

        The escape hatch when a buffered batch cannot be appended (e.g. a
        value that does not coerce to its column type) and the producer
        decides to abandon rather than repair it.
        """
        with self._lock:
            dropped = len(self._buffers.get(table_name, []))
            self._buffers[table_name] = []
            self._stats_for(table_name).pending_rows = 0
            return dropped

    # -- accounting -------------------------------------------------------------

    def stats(self, table_name: str) -> IngestStats:
        return self._stats_for(table_name)

    def pending(self, table_name: str) -> int:
        return len(self._buffers.get(table_name, []))

    def describe(self) -> str:
        if not self._stats:
            return "(no streams ingested)"
        return "\n".join(stats.summary() for stats in self._stats.values())

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _normalise(
        schema_names: Sequence[str],
        rows: Sequence[Sequence[Any]] | Mapping[str, Sequence[Any]],
    ) -> list[tuple[Any, ...]]:
        if isinstance(rows, Mapping):
            unknown = set(rows) - set(schema_names)
            if unknown:
                raise StreamingError(
                    f"columnar batch names unknown columns {sorted(unknown)}; schema has {list(schema_names)}"
                )
            # A column that is *present* must match the batch length (an
            # explicitly empty list is a producer bug, not a null-fill
            # request); only absent columns are filled with NULLs.
            present = {name: list(values) for name, values in rows.items()}
            lengths = {len(values) for values in present.values()}
            if len(lengths) > 1:
                raise StreamingError(f"columnar batch has ragged column lengths {sorted(lengths)}")
            n = lengths.pop() if lengths else 0
            columns = [present.get(name) for name in schema_names]
            if all(column is not None for column in columns):
                return list(zip(*columns))  # C-speed transpose, no NULL fill
            return [
                tuple(column[i] if column is not None else None for column in columns)
                for i in range(n)
            ]
        width = len(schema_names)
        row_tuples = []
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                # Reject at submit time: a bad-arity row buffered now would
                # poison every later flush of this table's stream.
                raise StreamingError(
                    f"row has {len(row)} values but the schema has {width} columns: {row!r}"
                )
            row_tuples.append(row)
        return row_tuples

    def _stats_for(self, table_name: str) -> IngestStats:
        if table_name not in self._stats:
            self._stats[table_name] = IngestStats(table_name=table_name)
        return self._stats[table_name]

    def _append_rows(self, table_name: str, rows: list[tuple[Any, ...]]) -> IngestBatch:
        started = perf_counter()
        if self.faults is not None:
            try:
                self.faults.hit("streaming.ingest.flush")
            except OSError as exc:
                # Typed outward: producers see a repro error, the batch
                # stays buffered (submit/flush re-queue on failure).
                raise StreamingError(
                    f"ingest flush for {table_name!r} failed: {exc.strerror or exc}"
                ) from exc
        start = self._append(table_name, rows)
        batch = IngestBatch(
            table_name=table_name, start_row=start, end_row=start + len(rows), rows=tuple(rows)
        )
        elapsed = perf_counter() - started
        stats = self._stats_for(table_name)
        stats.rows_ingested += len(rows)
        stats.batches_flushed += 1
        stats.append_seconds += elapsed
        stats.last_batch_rows = len(rows)
        return batch

    def _notify(self, batch: IngestBatch) -> None:
        for listener in list(self._listeners):
            listener(batch)
