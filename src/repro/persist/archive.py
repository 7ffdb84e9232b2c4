"""The model-only tier: cold raw segments archived behind warehouse models.

§4.1 of the paper argues that once a model captures the law of the data,
the raw pages are redundant.  :class:`ArchiveTier` makes that operational:
``archive(table, predicate)`` carves the matching rows out of the in-memory
table into durable archive segments and records them in an archive
manifest.  From then on

* catalog statistics are served through a *merged overlay* (live rows plus
  the archived segments' precomputed statistics), so model routes keep
  seeing the full logical table — counts, domains and value ranges include
  the archived rows;
* the unified planner consults :meth:`blocking_reason`: a query that may
  touch archived rows cannot run exactly (the raw rows are gone) — it is
  served purely from warehouse models when the accuracy contract admits
  it, and otherwise fails with an explicit archived-data reason instead of
  silently returning an answer computed over a partial table;
* :meth:`recall` loads the segments back from disk and dissolves the
  overlay, for when the cold data becomes hot again.

A query whose WHERE clause is *provably disjoint* from every archived
predicate (e.g. ``ts >= 5000`` against an archive of ``ts < 1000``) is not
blocked: it only needs live rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.captured_model import predicate_mask
from repro.db.constraints import ColumnConstraint, extract_constraints
from repro.db.database import Database
from repro.db.sql.ast import SelectStatement
from repro.db.sql.parser import parse_expression
from repro.db.stats import ColumnStats, TableStats, compute_table_stats
from repro.db.table import Table
from repro.errors import ArchiveError
from repro.persist.snapshot import (
    read_table_segments,
    schema_from_payload,
    schema_to_payload,
    write_table_segments,
)
from repro.weakcall import weak_callback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist.store import DurableStore

__all__ = ["ArchivedSegment", "ArchiveReport", "ArchiveTier"]


@dataclass
class ArchivedSegment:
    """One archived slice of a table: where its rows went and what they were."""

    table_name: str
    predicate_sql: str
    row_count: int
    byte_size: int
    schema_payload: list[list[Any]]
    segment_entries: list[dict[str, Any]]
    column_stats: dict[str, ColumnStats]
    #: Constraint analysis of ``predicate_sql``, computed once at archive or
    #: restore time (None when unanalysable) — the planner's disjointness
    #: guard runs on every cache-missing plan and must not re-parse.
    constraints: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.constraints is None:
            self.constraints = _analyse_predicate(self.predicate_sql)

    def to_payload(self) -> dict[str, Any]:
        return {
            "table_name": self.table_name,
            "predicate_sql": self.predicate_sql,
            "row_count": self.row_count,
            "byte_size": self.byte_size,
            "schema": self.schema_payload,
            "segments": self.segment_entries,
            "column_stats": {
                name: stats.to_payload() for name, stats in self.column_stats.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ArchivedSegment":
        return cls(
            table_name=payload["table_name"],
            predicate_sql=payload["predicate_sql"],
            row_count=int(payload["row_count"]),
            byte_size=int(payload["byte_size"]),
            schema_payload=payload["schema"],
            segment_entries=payload["segments"],
            column_stats={
                name: ColumnStats.from_payload(entry)
                for name, entry in payload.get("column_stats", {}).items()
            },
        )


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
    """Manages archived segments and the merged-statistics overlay.

    Born with the durable store it cannot exist without: segment directory,
    fault injector (``persist.archive.write`` / ``.read``; None = unarmed) and
    the redo log its moves are recorded in are ``store``'s.
    """

    def __init__(self, database: Database, store: "DurableStore") -> None:
        self.database = database
        self.store = store
        self.directory = store.archive_dir
        self.faults = store.faults
        self._segments: dict[str, list[ArchivedSegment]] = {}
        self._sequence = 0
        #: table -> (catalog version, merged TableStats): the approximate
        #: engine asks for stats many times per query, and re-merging the
        #: archived segments' statistics each time would put dictionary
        #: merges on the model-serving hot path.
        self._merged_cache: dict[str, tuple[int, TableStats]] = {}

    # -- queries ----------------------------------------------------------------

    def has_archived(self, table_name: str) -> bool:
        return bool(self._segments.get(table_name))

    def archived_tables(self) -> list[str]:
        return sorted(name for name, entries in self._segments.items() if entries)

    def archived_rows(self, table_name: str) -> int:
        return sum(s.row_count for s in self._segments.get(table_name, []))

    def archived_bytes(self, table_name: str) -> int:
        return sum(s.byte_size for s in self._segments.get(table_name, []))

    # -- archiving --------------------------------------------------------------

    def archive(self, table_name: str, predicate_sql: str) -> ArchiveReport:
        """Move the rows matching ``predicate_sql`` out of memory onto disk.

        Runs under the catalog commit lock from the moment the table is
        read until the remainder replaces it: a batch appended mid-archive
        would otherwise vanish when the (stale) remainder is swapped in.
        Holding the lock also makes the table swap and the archive-guard
        state (``_segments``) flip atomically with respect to snapshot
        acquisition — no reader can ever pin the shrunken remainder while
        the guard still reports the table as unarchived.

        The redo record is written inside the same section — after the
        segment files are on disk, before anything in memory flips — so a
        failed record leaves table, guard state and overlay as they were
        (:meth:`purge_unreferenced` collects the orphaned files), and a crash
        never reloads rows the caller was told are shed.
        """
        with self.database.catalog.commit_lock:
            # live_table: a pin on the archiving thread must not divert the
            # swap onto a frozen copy.
            table = self.database.catalog.live_table(table_name)
            mask = self._predicate_mask(table, predicate_sql)
            rows_archived = int(mask.sum())
            if rows_archived == 0:
                raise ArchiveError(
                    f"predicate {predicate_sql!r} selects no rows of {table_name!r}; nothing to archive"
                )
            archived = table.filter(mask)
            live = table.filter(~mask)

            self._sequence += 1
            prefix = f"{table_name}__arch{self._sequence:05d}"
            try:
                if self.faults is not None:
                    self.faults.hit("persist.archive.write", path=self.directory)
                entries = write_table_segments(self.directory, archived, file_prefix=prefix)
            except OSError as exc:
                raise ArchiveError(
                    f"archive segment write for {table_name!r} under {self.directory} "
                    f"failed: {exc.strerror or exc}"
                ) from exc
            stats = compute_table_stats(archived)

            segment = ArchivedSegment(
                table_name=table_name,
                predicate_sql=predicate_sql,
                row_count=rows_archived,
                byte_size=archived.byte_size(),
                schema_payload=schema_to_payload(archived.schema),
                segment_entries=entries,
                column_stats=dict(stats.columns),
            )
            self.store.log_archive(table_name, predicate_sql)
            # Replace the base table with the live remainder.  Deliberately NOT
            # a data-change notification to the model lifecycle: archiving does
            # not invalidate what the models learned — the rows still exist,
            # they just moved tiers.
            self.database.catalog.replace_table(live)
            self._segments.setdefault(table_name, []).append(segment)
            self._install_overlay(table_name)
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
        must be atomic against concurrent appends, and the guard state must
        clear in the same commit the restored table lands in — and the redo
        record is written once the segments are read, before anything flips.
        """
        with self.database.catalog.commit_lock:
            segments = self._segments.get(table_name)
            if not segments:
                raise ArchiveError(f"table {table_name!r} has no archived segments to recall")
            table = self.database.catalog.live_table(table_name)
            restored_rows = 0
            for segment in segments:
                schema = schema_from_payload(segment.schema_payload)
                try:
                    if self.faults is not None:
                        self.faults.hit("persist.archive.read", path=self.directory)
                    piece = read_table_segments(
                        self.directory, table_name, schema, segment.segment_entries
                    )
                except OSError as exc:
                    raise ArchiveError(
                        f"archive segment read for {table_name!r} under {self.directory} "
                        f"failed: {exc.strerror or exc}"
                    ) from exc
                table = table.concat(piece)
                restored_rows += piece.num_rows
            self.store.log_recall(table_name)
            self.database.catalog.replace_table(table)
            self._segments[table_name] = []
            self._merged_cache.pop(table_name, None)
            self.database.clear_stats_overlay(table_name)
            self.database.catalog.clear_table_meta(table_name, "archive_segments")
        # The segment files are NOT deleted here: until the next checkpoint
        # snapshots the recalled rows, they are the only durable copy — a
        # crash now must be able to restore the pre-recall manifest.  The
        # checkpoint that persists the recall purges them (see
        # :meth:`purge_unreferenced`).
        return restored_rows

    def drop(self, table_name: str) -> int:
        """Forget a dropped table's archived segments (rows go with the table).

        The segment files are left for :meth:`purge_unreferenced` at the
        next checkpoint — until then the last manifest still references
        them.  Returns how many archived rows were discarded."""
        segments = self._segments.pop(table_name, [])
        self._merged_cache.pop(table_name, None)
        self.database.clear_stats_overlay(table_name)
        self.database.catalog.clear_table_meta(table_name, "archive_segments")
        return sum(segment.row_count for segment in segments)

    def referenced_files(self) -> set[str]:
        return {
            entry["file"]
            for segments in self._segments.values()
            for segment in segments
            for entry in segment.segment_entries
        }

    def purge_unreferenced(self) -> int:
        """Delete archive segment files no entry references any more.

        Called by the durable store *after* a checkpoint's manifest rename:
        at that point recalled rows live in the new snapshot, so their old
        archive segments are garbage — leaving them would leak the archived
        bytes on every archive/recall cycle.  Crash-safe by construction:
        before the rename, the old manifest still references the files and
        this purge has not run."""
        if not self.directory.is_dir():
            return 0
        keep = self.referenced_files()
        removed = 0
        for path in self.directory.glob("*.npz"):
            if path.name not in keep:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _predicate_mask(self, table: Table, predicate_sql: str) -> np.ndarray:
        try:
            return predicate_mask(table, predicate_sql)
        except Exception as exc:
            raise ArchiveError(
                f"cannot evaluate archive predicate {predicate_sql!r} on "
                f"{table.name!r}: {exc}"
            ) from exc

    # -- merged statistics overlay ----------------------------------------------

    def _install_overlay(self, table_name: str) -> None:
        # Bind the segment list at install time: snapshots capture the
        # overlay closure and the segment metadata, and a pinned reader
        # must keep seeing the archive state of *its* commit even after a
        # later recall or re-archive rebinds the live overlay.
        segments = tuple(self._segments.get(table_name, ()))
        # Weakly: the closure lives in the catalog this tier refers to.
        merged_stats = weak_callback(self.merged_stats)
        self.database.set_stats_overlay(
            table_name, lambda live: merged_stats(table_name, live, segments)
        )
        self.database.catalog.set_table_meta(table_name, "archive_segments", segments)

    def reinstall_overlays(self) -> None:
        """Re-register overlays after recovery restored the manifest."""
        for table_name, segments in self._segments.items():
            if segments:
                self._install_overlay(table_name)

    def merged_stats(
        self,
        table_name: str,
        live: TableStats,
        segments: tuple[ArchivedSegment, ...] | None = None,
    ) -> TableStats:
        """Live statistics widened to cover the archived rows as well.

        ``segments`` defaults to the live segment list; overlay closures
        pass the list frozen at install time instead, so a pinned overlay
        stays consistent with its commit.  Cached per catalog version —
        pin-aware, so pinned readers key the merge on *their* version: any
        change to the live table (appends, archive, recall) bumps the
        version via the catalog, invalidating the merge; everything else
        reuses it."""
        if segments is None:
            segments = tuple(self._segments.get(table_name, ()))
        if not segments:
            return live
        version = self.database.catalog.version
        cached = self._merged_cache.get(table_name)
        if cached is not None and cached[0] == version:
            return cached[1]
        merged = TableStats(
            table_name=live.table_name,
            row_count=live.row_count + sum(s.row_count for s in segments),
            byte_size=live.byte_size + sum(s.byte_size for s in segments),
        )
        for name, column in live.columns.items():
            parts = [column] + [
                s.column_stats[name] for s in segments if name in s.column_stats
            ]
            merged.columns[name] = reduce(ColumnStats.merge, parts)
        self._merged_cache[table_name] = (version, merged)
        return merged

    # -- planner guard ------------------------------------------------------------

    def blocking_reason(self, statement: SelectStatement) -> str | None:
        """Why this statement cannot honestly run over the raw (live) rows.

        Returns None when no referenced table has archived segments, or when
        the WHERE clause is provably disjoint from every archived predicate.

        Segment state is resolved through the catalog's pin-aware metadata:
        a reader pinned to a post-archive commit stays blocked from exact
        execution even if a concurrent recall has already restored the live
        table — its pinned table is still the shrunken remainder.
        """
        names = statement.table_names()
        segments_by_name = {
            name: self.database.catalog.table_meta(name, "archive_segments", ())
            for name in names
        }
        if not any(segments_by_name.values()):
            return None  # nothing archived: skip the constraint analysis
        # Disjointness proofs only apply to single-table statements: the
        # constraint analysis strips table qualifiers, so in a join a filter
        # on one table's ``ts`` would falsely "prove" disjointness from
        # another table's archived ``ts`` predicate.  With joins present,
        # any archived table blocks.
        query_constraints = (
            extract_constraints(statement.where) if not statement.joins else None
        )
        for name in names:
            segments = segments_by_name[name]
            if not segments:
                continue
            for segment in segments:
                if query_constraints is None or not self._provably_disjoint(
                    segment, query_constraints
                ):
                    rows = sum(s.row_count for s in segments)
                    return (
                        f"{rows} row(s) of table {name!r} are archived to the "
                        f"model-only tier (predicate {segment.predicate_sql!r}); "
                        f"exact execution over the remaining raw rows would be "
                        f"incomplete — serve from warehouse models or recall the archive"
                    )
        return None

    def _provably_disjoint(self, segment: ArchivedSegment, query) -> bool:
        """True when the query constraints exclude every archived row.

        Unanalysable residual conjuncts in the *query* are fine — they only
        narrow the selection, so a disjointness proof from the analysed
        conjuncts still stands.  An unanalysable *archive* predicate is
        fatal: we cannot characterise what was archived.
        """
        archived = segment.constraints
        if archived is None or archived.residual:
            return False
        for column, archived_constraint in archived.by_column.items():
            query_constraint = query.by_column.get(column)
            if query_constraint is None:
                continue
            if _constraints_disjoint(archived_constraint, query_constraint):
                return True
        return False

    # -- manifest round trip --------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "sequence": self._sequence,
            "tables": {
                name: [segment.to_payload() for segment in segments]
                for name, segments in self._segments.items()
                if segments
            },
        }

    def restore_from_payload(self, payload: dict[str, Any]) -> None:
        self._sequence = int(payload.get("sequence", 0))
        self._segments = {
            name: [ArchivedSegment.from_payload(entry) for entry in entries]
            for name, entries in payload.get("tables", {}).items()
        }
        self.reinstall_overlays()


# ---------------------------------------------------------------------------
# Constraint disjointness
# ---------------------------------------------------------------------------


def _analyse_predicate(predicate_sql: str):
    """Parse + constraint-analyse a predicate once (None when it resists)."""
    try:
        return extract_constraints(parse_expression(predicate_sql))
    except Exception:
        return None


def _constraints_disjoint(a: ColumnConstraint, b: ColumnConstraint) -> bool:
    """True when no value can satisfy both constraints."""
    if a.values is not None:
        return all(not b.admits(v) for v in a.values)
    if b.values is not None:
        return all(not a.admits(v) for v in b.values)
    # Interval vs interval: empty intersection?
    both = replace(a)
    if b.low is not None:
        both.bound_below(b.low, b.low_inclusive)
    if b.high is not None:
        both.bound_above(b.high, b.high_inclusive)
    if both.low is None or both.high is None:
        return False
    return both.low > both.high or (
        both.low == both.high and not (both.low_inclusive and both.high_inclusive)
    )
