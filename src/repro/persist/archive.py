"""The model-only tier: cold raw segments archived behind warehouse models.

§4.1 of the paper argues that once a model captures the law of the data,
the raw pages are redundant.  :class:`ArchiveTier` makes that operational:
``archive(table, predicate)`` carves the matching rows out of the in-memory
table into durable archive segments and commits what it moved as the
table's archive record (:mod:`repro.db.archived`) — in the same catalog
commit as the shrunken table.  Everything else asks that record: catalog
statistics fold the archived rows back in, the planner refuses exact
execution that could touch them, and captures refuse to fit the biased
remainder.  :meth:`ArchiveTier.recall` loads the segments back from disk
and clears the record, for when the cold data becomes hot again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.captured_model import predicate_mask
from repro.db.archived import ARCHIVE_META_KEY, ArchivedSegment
from repro.db.database import Database
from repro.db.stats import compute_table_stats
from repro.db.table import Table
from repro.errors import ArchiveError, SnapshotReadError, SnapshotWriteError
from repro.persist.snapshot import schema_to_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist.store import DurableStore

__all__ = ["ArchivedSegment", "ArchiveReport", "ArchiveTier"]


@dataclass
class ArchiveReport:
    """What one ``archive()`` call moved out of memory."""

    table_name: str
    predicate_sql: str
    rows_archived: int
    bytes_archived: int
    rows_remaining: int

    def describe(self) -> str:
        return (
            f"archived {self.rows_archived} row(s) ({self.bytes_archived} bytes) of "
            f"{self.table_name!r} under {self.predicate_sql!r}; "
            f"{self.rows_remaining} live row(s) remain"
        )


class ArchiveTier:
    """Moves rows between memory and archive segments.

    Born with the durable store it cannot exist without: its segments are
    written into and read from the store's segment pool by the store's own
    segment methods — per file, at ``persist.archive.write`` / ``.read`` —
    and its moves are recorded in the store's redo log; what escapes
    surfaces as :class:`~repro.errors.ArchiveError`.  What a table has
    archived is catalog state, not the tier's: the tier holds nothing.
    """

    def __init__(self, database: Database, store: "DurableStore") -> None:
        self.database = database
        self.store = store

    def archive(self, table_name: str, predicate_sql: str) -> ArchiveReport:
        """Move the rows matching ``predicate_sql`` out of memory onto disk.

        Runs under the catalog commit lock from the moment the table is
        read until the remainder replaces it: a batch appended mid-archive
        would otherwise vanish when the (stale) remainder is swapped in.
        Holding the lock also makes the table swap and the archive record
        one commit — no reader can ever pin the shrunken remainder without
        the record that says what it lacks.

        The redo record is written inside the same section — after the
        segment files are on disk, before anything in memory flips — so a
        failed record leaves table and archive record as they were (the next
        checkpoint sweeps the orphaned files), and a crash never reloads rows
        the caller was told are shed.
        """
        catalog = self.database.catalog
        with catalog.commit_lock:
            # live_table: a pin on the archiving thread must not divert the
            # swap onto a frozen copy.
            table = catalog.live_table(table_name)
            mask = self._predicate_mask(table, predicate_sql)
            rows_archived = int(mask.sum())
            if rows_archived == 0:
                raise ArchiveError(
                    f"predicate {predicate_sql!r} selects no rows of {table_name!r}; nothing to archive"
                )
            archived = table.filter(mask)
            live = table.filter(~mask)

            try:
                entries = self.store.write_segments(archived, "persist.archive.write")
            except SnapshotWriteError as exc:
                raise ArchiveError(f"archive of {table_name!r} failed: {exc}") from exc
            segment = ArchivedSegment(
                table_name=table_name,
                predicate_sql=predicate_sql,
                schema_payload=schema_to_payload(archived.schema),
                segment_entries=entries,
                stats=compute_table_stats(archived),
            )
            self.store.log_archive(table_name, predicate_sql)
            # Replace the base table with the live remainder.  Deliberately NOT
            # a data-change notification to the model lifecycle: archiving does
            # not invalidate what the models learned — the rows still exist,
            # they just moved tiers.
            catalog.replace_table(live)
            segments = catalog.live_table_meta(table_name, ARCHIVE_META_KEY, ())
            catalog.set_table_meta(table_name, ARCHIVE_META_KEY, (*segments, segment))
        return ArchiveReport(
            table_name=table_name,
            predicate_sql=predicate_sql,
            rows_archived=rows_archived,
            bytes_archived=segment.byte_size,
            rows_remaining=live.num_rows,
        )

    def recall(self, table_name: str) -> int:
        """Load every archived segment of ``table_name`` back into memory.

        Same critical section as :meth:`archive`: the read-concat-replace
        must be atomic against concurrent appends, and the archive record
        must clear in the same commit the restored table lands in — and the
        redo record is written once the segments are read, before anything
        flips.
        """
        catalog = self.database.catalog
        with catalog.commit_lock:
            segments = catalog.live_table_meta(table_name, ARCHIVE_META_KEY, ())
            if not segments:
                raise ArchiveError(f"table {table_name!r} has no archived segments to recall")
            table = catalog.live_table(table_name)
            try:
                recalled = self.store.read_segments(
                    table_name,
                    table.schema,
                    [entry for segment in segments for entry in segment.segment_entries],
                    point="persist.archive.read",
                )
            except SnapshotReadError as exc:
                raise ArchiveError(f"recall of {table_name!r} failed: {exc}") from exc
            self.store.log_recall(table_name)
            catalog.replace_table(table.concat(recalled))
            catalog.clear_table_meta(table_name, ARCHIVE_META_KEY)
        # The segment files are NOT deleted here: until the next checkpoint
        # snapshots the recalled rows, they are the only durable copy — a
        # crash now must be able to restore the pre-recall manifest.  The
        # checkpoint that persists the recall sweeps them.
        return recalled.num_rows

    def _predicate_mask(self, table: Table, predicate_sql: str) -> np.ndarray:
        try:
            return predicate_mask(table, predicate_sql)
        except Exception as exc:
            raise ArchiveError(
                f"cannot evaluate archive predicate {predicate_sql!r} on "
                f"{table.name!r}: {exc}"
            ) from exc
