"""The durable store: snapshots + WAL + warehouse behind one checkpoint.

On-disk layout (all under one root directory)::

    MANIFEST.json            checkpoint manifest (atomic tmp+rename)
    wal.log                  append-only checksummed WAL (epoch-stamped)
    segments/                the segment pool: every columnar segment file
    warehouse/models-<N>.json  the model warehouse of checkpoint N

Manifest table entries (with their archive records) and WAL records of
``LARGE_CREATE_SNAPSHOT_ROWS`` rows or more — or of a segment too large for
one WAL frame — name their files in the one pool, under one name sequence;
any other WAL record carries its rows as one segment in its own frame.  A
checkpoint writes only the tables whose rows changed (the catalog's data
generation says which) and names the rest by reference.

Crash safety is manifest-pivoted: a checkpoint writes the new segment files
and warehouse first, then renames the manifest into place, then resets the
WAL with the new checkpoint's epoch.  A crash anywhere in that sequence
leaves either the old manifest (whose files are untouched) or the new one;
the WAL's epoch record tells a reopening process whether the log extends
the manifest it found or predates it (in which case it is discarded —
its records are already inside the snapshot).

Every file is written and read through :mod:`repro.persist.files` under the
store's fault injector, retrier and sync rule; what escapes becomes a
:class:`~repro.errors.StorageIOError`, or is quarantined during recovery.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import chain, count
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.db.archived import ARCHIVE_META_KEY, ArchivedSegment, archived_segments, archived_tables
from repro.db.sql.ast import InsertStatement
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.errors import (
    FormatVersionError,
    ManifestError,
    PersistenceError,
    ReproError,
    SnapshotReadError,
    StorageIOError,
    WALError,
)
from repro.parallel.partition import PARTITION_META_KEY, partition_map_from_segments
from repro.persist import files
from repro.persist.snapshot import (
    DEFAULT_ROWS_PER_SEGMENT,
    read_segment_bytes,
    read_table_segments,
    schema_from_payload,
    schema_to_payload,
    segment_bytes,
    write_table_segments,
)
from repro.persist.warehouse import deserialize_model, restore_store, serialize_store
from repro.persist.wal import BODY_KEY, WalReplay, WriteAheadLog
from repro.resilience.quarantine import QuarantineManager, minimal_failing_subset

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.core.system import LawsDatabase
    from repro.db.catalog import Catalog
    from repro.db.schema import Schema
    from repro.resilience import ResilienceRuntime

__all__ = ["CheckpointReport", "RecoveryReport", "DurableStore"]

#: On-disk format version.  2: segments store INT64 at its narrowest width and
#: omit all-valid masks (:mod:`repro.persist.snapshot`); 3: one segment pool;
#: 4: a WAL record carries the rows it writes as one segment, not as JSON
#: rows.  This build reads all four; an older one refuses a newer manifest or
#: bulk-load record with ``FormatVersionError`` instead of quarantining
#: segments it cannot find (a v4 frame's binary body it quarantines as a
#: torn tail).
FORMAT_VERSION = 4

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"

#: A redo record's rows ride in its WAL frame below this row count, if their
#: segment fits in one frame, and go to pool segments the record names
#: otherwise (see :meth:`DurableStore.log_rows`): no frame passes the WAL's
#: size cap, and a bulk load is written once, as the segments a checkpoint names by
#: reference, instead of being re-read on every reopen (checkpointing per
#: load instead would re-snapshot every earlier table, going quadratic
#: across a load burst).
LARGE_CREATE_SNAPSHOT_ROWS = 65536


@dataclass
class CheckpointReport:
    """What one checkpoint wrote."""

    checkpoint_id: int
    tables: int = 0
    rows: int = 0
    segment_files: int = 0
    models: int = 0
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"checkpoint #{self.checkpoint_id}: {self.tables} table(s), {self.rows} row(s) "
            f"in {self.segment_files} segment file(s), {self.models} model(s)"
        )


@dataclass
class RecoveryReport:
    """What reopening a durable store recovered."""

    checkpoint_id: int = 0
    tables_loaded: int = 0
    rows_loaded: int = 0
    models_restored: int = 0
    watches_restored: int = 0
    wal_records_replayed: int = 0
    wal_rows_replayed: int = 0
    wal_truncated_bytes: int = 0
    wal_truncation_reason: str | None = None
    wal_discarded_epoch_mismatch: bool = False
    archived_tables: list[str] = field(default_factory=list)

    def describe(self) -> str:
        parts = [
            f"recovered checkpoint #{self.checkpoint_id}: {self.tables_loaded} table(s), "
            f"{self.rows_loaded} row(s), {self.models_restored} warehouse model(s), "
            f"{self.watches_restored} maintenance watch(es)",
            f"WAL: {self.wal_records_replayed} record(s) / {self.wal_rows_replayed} row(s) replayed",
        ]
        if self.wal_truncated_bytes:
            parts.append(
                f"WAL tail truncated: {self.wal_truncated_bytes} byte(s) "
                f"({self.wal_truncation_reason})"
            )
        if self.archived_tables:
            parts.append(f"model-only tier active for {self.archived_tables}")
        return "; ".join(parts)


class DurableStore:
    """Owns the on-disk state of one :class:`LawsDatabase`."""

    def __init__(
        self,
        root: Path | str,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        fsync: bool = False,
        *,
        catalog: "Catalog",
        resilience: "ResilienceRuntime",
        journal: Any,
        metrics: Any,
    ) -> None:
        self.root = Path(root)
        self.catalog = catalog
        self.rows_per_segment = rows_per_segment
        #: The root of the sync rule (:mod:`repro.persist.files`); None = no fsync.
        self.sync_root = self.root if fsync else None
        self.root.mkdir(parents=True, exist_ok=True)
        #: Retry, health tracking and the (opt-in) fault injector: partial
        #: corruption met during recovery degrades instead of aborting.
        self.resilience = resilience
        self.faults = resilience.faults
        self.retrier = resilience.retrier
        #: The :class:`repro.obs.EventJournal` recording checkpoint and
        #: recovery operations, and the :class:`repro.obs.MetricsRegistry`
        #: (``recovery_total`` etc.).
        self.journal = journal
        self.metrics = metrics
        self.wal = WriteAheadLog(self.root / WAL_NAME, fsync=fsync, faults=self.faults, retrier=self.retrier)
        self.checkpoint_id = 0
        #: False while recovery replays the WAL, so replayed writes are not
        #: re-logged; True once the store is live.
        self.accepting_writes = False
        #: Unreadable artefacts move aside instead of blocking ``open()``.
        self.quarantine = QuarantineManager(self.root, journal=journal, metrics=metrics)
        self._closed = False
        #: The segment pool, its name sequence (resumed past every file in it)
        #: and, per table, ``(data generation, entries)`` of its last committed
        #: write: while the catalog's generation holds, the entries are its rows.
        self.pool = self.root / "segments"
        self.pool.mkdir(exist_ok=True)
        self._names = count(1 + max((_serial(path.name) for path in self.pool.iterdir()), default=0))
        self._durable: dict[str, tuple[int | None, list[dict[str, Any]]]] = {}

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _warehouse_path(self, checkpoint_id: int) -> Path:
        return self.root / "warehouse" / f"models-{checkpoint_id:05d}.json"

    # -- files (each under the store's faults, retrier and sync rule) ------------

    def write_segments(self, table: Table, point: str = "persist.snapshot.write") -> list[dict[str, Any]]:
        """Write ``table`` into the pool under the next name; the entries name its files."""
        prefix = f"{next(self._names):06d}_{table.name}"
        return write_table_segments(
            self.pool,
            table,
            self.rows_per_segment,
            prefix,
            self.faults,
            point=point,
            retrier=self.retrier,
            sync_root=self.sync_root,
        )

    def read_segments(
        self,
        name: str,
        schema: "Schema",
        entries: list[dict[str, Any]],
        on_error: Any = None,
        point: str = "persist.snapshot.read",
    ) -> Table:
        """The table ``entries`` name in the pool."""
        return read_table_segments(
            self.pool, name, schema, entries, self.faults, on_error, retrier=self.retrier, point=point
        )

    def _write_json(self, path: Path, payload: dict[str, Any], point: str) -> None:
        with files.raising(StorageIOError, "durable write of", path):
            files.write_json(
                path, payload, point=point, faults=self.faults, retrier=self.retrier, sync_root=self.sync_root
            )

    # -- WAL hooks (each called from the one write path it logs: a LawsDatabase
    # -- method, or the archive tier's own critical section) ---------------------

    def log_rows(self, op: str, rows: Table, replace: bool = False) -> None:
        """Log a ``create_table`` (a created, loaded or replaced table) or an
        ``append`` (a batch as its table stored it) carrying its rows as one
        segment: in its own frame, or — from :data:`LARGE_CREATE_SNAPSHOT_ROWS`
        on, or when the segment would not fit in one frame — as pool files
        written (and synced) before it; a created table's record is then a
        ``load_table``.  Each carries the format version its rows are written
        in: no manifest may stamp the store yet."""
        if not self.accepting_writes:
            return
        record = {"op": op, "format_version": FORMAT_VERSION, "name": rows.name}
        record["schema"] = schema_to_payload(rows.schema)
        if op == "create_table":
            record["replace"] = bool(replace)
        if rows.num_rows < LARGE_CREATE_SNAPSHOT_ROWS:
            inline = {**record, "row_count": rows.num_rows, BODY_KEY: segment_bytes(rows)}
            if self.wal.fits(inline):
                self._log(inline)
                return
        entries = self.write_segments(rows)
        self._log({**record, "op": "load_table" if op == "create_table" else op, "segments": entries})
        if op == "create_table":
            self._keep(rows.name, entries)

    def log_partition_map(self, table_name: str, payload: dict[str, Any]) -> None:
        self._log({"op": "partition_map", "table": table_name, "map": payload})

    def log_drop_table(self, table_name: str) -> None:
        self._log({"op": "drop_table", "name": table_name})

    def log_archive(self, table_name: str, predicate_sql: str) -> None:
        self._log({"op": "archive", "table": table_name, "predicate": predicate_sql})

    def log_recall(self, table_name: str) -> None:
        self._log({"op": "recall", "table": table_name})

    def log_sql(self, sql: str) -> None:
        """Log a DDL/DML statement executed through the SQL front-end."""
        self._log({"op": "sql", "sql": sql})

    def _log(self, record: dict[str, Any]) -> None:
        if self.accepting_writes:
            self.wal.append(record)

    # -- checkpoint ----------------------------------------------------------------

    def checkpoint(self, system: "LawsDatabase") -> CheckpointReport:
        """Snapshot every changed table, the warehouse and the planner calibration.

        The whole body runs under the catalog commit lock: writers commit
        batch + redo record as one critical section under the same lock, so
        the snapshot, the manifest and the WAL reset all describe the same
        committed state — a concurrent append can neither slip between the
        snapshot and the log reset (its rows would vanish from the log
        without being in the snapshot) nor land in both (double-applied on
        recovery).  Writers and snapshot-taking readers stall for the
        checkpoint's duration; queries already holding a snapshot proceed.
        """
        if self._closed:
            raise PersistenceError("durable store is closed")
        # The commit lock is not fair: a caller checkpointing back to back
        # re-takes it before a writer woken by the previous release can run,
        # and starves that writer.  Yielding the processor first hands the
        # lock to whoever is already waiting for it.
        time.sleep(0)
        with system.database.catalog.commit_lock:
            return self._checkpoint_locked(system)

    def _checkpoint_locked(self, system: "LawsDatabase") -> CheckpointReport:
        from time import perf_counter

        started = perf_counter()
        new_id = self.checkpoint_id + 1
        report = CheckpointReport(checkpoint_id=new_id)

        tables_payload: dict[str, Any] = {}
        durable = {}
        database = system.database
        for name in database.table_names():
            table = database.table(name)
            generation = self.catalog.data_generation(name)
            recorded, entries = self._durable.get(name, (None, []))
            if recorded != generation:  # rows changed since their last committed write
                entries = self.write_segments(table)
                report.segment_files += len(entries)
            durable[name] = (generation, entries)
            report.tables += 1
            report.rows += table.num_rows
            # Publish the freshly-written segments' row ranges as the
            # table's partition map unless one is already committed (a user's
            # range/hash map must not be clobbered by the storage layout).
            partition_map = database.catalog.table_meta(name, PARTITION_META_KEY)
            if partition_map is None and len(entries) > 1:
                partition_map = partition_map_from_segments(table, entries)
                database.catalog.set_table_meta(name, PARTITION_META_KEY, partition_map)
            tables_payload[name] = {
                "schema": schema_to_payload(table.schema),
                "row_count": table.num_rows,
                "segments": entries,
                "partition_map": partition_map,
                "archived": [segment.to_payload() for segment in self._pooled_archive(name, report)],
            }
            # The catalog's statistics ride along when they are fresh (never
            # computed for a checkpoint), so the first answer after open()
            # does not start with a whole-table rescan.
            stats = database.catalog.fresh_stats(name)
            if stats is not None:
                tables_payload[name]["stats"] = stats.to_payload()

        warehouse_payload = serialize_store(system.models)
        warehouse_payload["calibration"] = _calibration_payload(system)
        warehouse_payload["maintenance"] = system.maintenance.export_state()
        report.models = len(warehouse_payload["models"])
        warehouse_path = self._warehouse_path(new_id)
        warehouse_path.parent.mkdir(parents=True, exist_ok=True)
        self._write_json(warehouse_path, warehouse_payload, "persist.warehouse.store")

        manifest = {
            "format_version": FORMAT_VERSION,
            "checkpoint_id": new_id,
            "catalog_version": database.catalog.version,
            "tables": tables_payload,
            "warehouse_file": str(warehouse_path.relative_to(self.root)),
            "wal_file": WAL_NAME,
        }
        self._write_json(self.manifest_path, manifest, "persist.manifest.write")
        # The manifest rename is the commit point: checkpoint N exists from
        # here on regardless of what the WAL reset below does.
        self.checkpoint_id = new_id
        self._durable = durable
        # Reset the WAL under N's epoch so a crash between the rename and
        # the reset leaves an epoch-mismatched (and therefore ignored) log
        # rather than a double-applied one.  A *failed* reset is survivable:
        # the epoch stays pending inside the WAL and is stamped (as a
        # replay-restart marker) by the next successful append, so no record
        # can land under a stale epoch — journal it and carry on.
        self._reset_wal_safe(new_id)
        self._sweep(manifest)
        report.elapsed_seconds = perf_counter() - started
        self.journal.record(
            "checkpoint",
            checkpoint_id=report.checkpoint_id,
            tables=report.tables,
            rows=report.rows,
            models=report.models,
            segment_files=report.segment_files,
        )
        return report

    def _pooled_archive(self, name: str, report: CheckpointReport) -> tuple[ArchivedSegment, ...]:
        """``name``'s archive record, a legacy one's segments (their references
        carry a directory) first rewritten into the pool.  A record with an
        unreadable legacy segment stays where and as it is (its recall fails
        as it always would): a checkpoint must not fail for it."""
        segments = archived_segments(self.catalog, name)
        if any("/" in entry["file"] for segment in segments for entry in segment.segment_entries):
            try:
                rows = [
                    self.read_segments(
                        name,
                        schema_from_payload(segment.schema_payload),
                        segment.segment_entries,
                        point="persist.archive.read",
                    )
                    for segment in segments
                ]
            except SnapshotReadError as exc:
                self.resilience.health.mark_degraded(f"table:{name}", f"archived segment unreadable: {exc}")
                return segments
            segments = tuple(
                replace(segment, segment_entries=self.write_segments(table, "persist.archive.write"))
                for segment, table in zip(segments, rows)
            )
            self.catalog.set_table_meta(name, ARCHIVE_META_KEY, segments)
            report.segment_files += sum(len(segment.segment_entries) for segment in segments)
        return segments

    def _sweep(self, manifest: dict[str, Any]) -> None:
        """Delete what the manifest just renamed into place does not name: pool
        files of rewritten, dropped, recalled or replaced tables, of retired
        bulk loads and of failed writes; old warehouses; the legacy
        directories.  A sweep, not "delete N-1": what a crash orphaned before a
        sweep goes at the next."""
        named = {
            entry["file"]
            for table in manifest["tables"].values()
            for item in [table, *table["archived"]]
            for entry in item["segments"]
        }
        still_named = {file.split("/")[1] for file in named if file.startswith("../")}
        warehouse = self.root / manifest["warehouse_file"]
        for path in chain(
            (path for path in self.pool.iterdir() if path.name not in named),
            (path for path in warehouse.parent.iterdir() if path != warehouse),
            (self.root / directory for directory in LEGACY_DIRS if directory not in still_named),
        ):
            with suppress(OSError):
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()

    # -- recovery -------------------------------------------------------------------

    def recover(self, system: "LawsDatabase") -> RecoveryReport:
        """Load the last checkpoint into ``system`` and replay the WAL tail.

        Partial corruption degrades instead of aborting: unreadable snapshot
        segments / warehouse entries / WAL frames are quarantined (journaled,
        metered), the component is marked in the health registry and the
        surviving state serves.  Only an unreadable manifest or a store from
        a newer build stops the open, with a typed error.
        """
        report = RecoveryReport()
        quarantined_before = len(self.quarantine.records())
        manifest = self._load_manifest()
        if manifest is not None:
            self._refuse_newer(manifest, f"store at {self.root}")
            self.checkpoint_id = int(manifest.get("checkpoint_id", 0))
            report.checkpoint_id = self.checkpoint_id
            _pool_references(manifest)

            for name, entry in manifest.get("tables", {}).items():
                self._recover_table(system, name, entry, report)
            system.database.catalog.restore_version(int(manifest.get("catalog_version", 0)))

            # The warehouse loads before the WAL replays: a replayed write
            # notifies the model lifecycle exactly as the live one did, which
            # only lands if the models are already in the store.
            warehouse_file = manifest.get("warehouse_file")
            if warehouse_file:
                payload = self._load_warehouse_payload(self.root / warehouse_file)
                if payload is not None:
                    restored = self._restore_warehouse(payload, system)
                    report.models_restored = len(restored)
                    if restored:
                        from repro.core.captured_model import ensure_model_id_floor

                        ensure_model_id_floor(max(m.model_id for m in restored))
                    _restore_calibration(system, payload.get("calibration"))
                    report.watches_restored = system.maintenance.restore_state(
                        payload.get("maintenance", [])
                    )

        # WAL replay: only a log stamped with this checkpoint's epoch extends
        # it; any other epoch predates the manifest rename and is discarded.
        epoch_discarded = self._replay_wal(system, report)
        if self.sync_root is not None:  # a previous process may have run without fsync
            # Every pool file the next checkpoint names by reference: the
            # tables' committed segments and their archive records'.
            archived = (
                segment.segment_entries
                for name in system.database.table_names()
                for segment in archived_segments(self.catalog, name)
            )
            for entry in chain(*(entries for _, entries in self._durable.values()), *archived):
                if "/" not in entry["file"]:  # a legacy reference is rewritten, synced, into the pool
                    files.sync(self.pool / entry["file"], self.sync_root)
        report.archived_tables = archived_tables(system.database.catalog)

        self.accepting_writes = True
        quarantined_now = [
            record
            for record in self.quarantine.records()[quarantined_before:]
            if record.artefact != "wal-tail"
        ]
        if quarantined_now:
            outcome = "quarantined"
        elif report.wal_truncated_bytes:
            outcome = "wal-truncated"
        elif epoch_discarded:
            outcome = "epoch-discarded"
        else:
            outcome = "clean"
        self.metrics.inc("recovery_total", outcome=outcome)
        self.journal.record(
            "recovery",
            checkpoint_id=report.checkpoint_id,
            outcome=outcome,
            tables_loaded=report.tables_loaded,
            rows_loaded=report.rows_loaded,
            models_restored=report.models_restored,
            watches_restored=report.watches_restored,
            wal_records_replayed=report.wal_records_replayed,
            wal_rows_replayed=report.wal_rows_replayed,
            wal_truncated_bytes=report.wal_truncated_bytes,
            wal_truncation_reason=report.wal_truncation_reason,
            quarantined=len(quarantined_now),
        )
        return report

    def _load_manifest(self) -> dict[str, Any] | None:
        """Read the checkpoint manifest; corruption is fail-stop and typed.

        The manifest is the recovery pivot — quarantining it would present
        the whole store as empty, which is worse than an explicit error."""
        if not self.manifest_path.is_file():
            return None
        try:
            return files.read(
                self.manifest_path, json.load, point="persist.manifest.read", retrier=self.retrier
            )
        except (OSError, ValueError) as exc:
            raise ManifestError(
                f"checkpoint manifest {self.manifest_path} is unreadable: {exc}",
                path=str(self.manifest_path),
            ) from exc

    @staticmethod
    def _refuse_newer(artefact: dict[str, Any], what: str) -> None:
        """A manifest or a row-bearing WAL record from a newer build is a
        build mismatch, not corruption: refused, never quarantined."""
        version = int(artefact.get("format_version", 0))
        if version > FORMAT_VERSION:
            raise FormatVersionError(
                f"{what} uses format v{version}; this build supports up to v{FORMAT_VERSION}"
            )

    def _recover_table(
        self,
        system: "LawsDatabase",
        name: str,
        entry: dict[str, Any],
        report: RecoveryReport,
    ) -> None:
        """Register the table a manifest entry names, with its archive record
        (before the WAL replays: a replayed archive, recall or drop acts on it)."""
        lost_segments: list[str] = []

        def quarantine_segment(seg_entry: dict[str, Any], path: Path, exc: Exception) -> bool:
            self.quarantine.quarantine_file(
                path,
                artefact="snapshot-segment",
                reason=str(exc),
                detail=f"table {name!r} segment {seg_entry.get('file')}",
            )
            lost_segments.append(str(seg_entry.get("file")))
            return True

        schema = schema_from_payload(entry["schema"])
        table = self.read_segments(name, schema, entry["segments"], on_error=quarantine_segment)
        expected = int(entry.get("row_count", table.num_rows))
        if lost_segments:
            self.resilience.health.mark_failed(
                f"table:{name}",
                f"{len(lost_segments)} snapshot segment(s) quarantined; "
                f"{table.num_rows}/{expected} row(s) recovered",
            )
        elif table.num_rows != expected:
            raise PersistenceError(
                f"snapshot of {name!r} has {table.num_rows} row(s) but the "
                f"manifest recorded {entry.get('row_count')}"
            )
        system.database.register_table(table)
        archived = tuple(ArchivedSegment.from_payload(segment) for segment in entry.get("archived", ()))
        if archived:
            system.database.catalog.set_table_meta(name, ARCHIVE_META_KEY, archived)
        if not lost_segments:
            # The map committed at the checkpoint; a manifest written before
            # maps were recorded falls back to its segments' row ranges, so
            # the fan-out path works on a reopened store.  A partially-
            # quarantined table gets no map — its recovered rows are not the
            # rows any map described.
            partition_map = entry.get("partition_map")
            if partition_map is None and len(entry["segments"]) > 1:
                try:
                    partition_map = partition_map_from_segments(table, entry["segments"])
                except ReproError:
                    pass
            if partition_map is not None:
                system.database.catalog.set_table_meta(name, PARTITION_META_KEY, partition_map)
            # Likewise the statistics: only of the rows they counted (the
            # catalog checks), for the generation just registered; each
            # replayed append merges its batch in, as the live one did.
            recorded = entry.get("stats")  # absent: stale at the checkpoint, or a v1 store
            if recorded is not None:
                system.database.catalog.restore_stats(name, TableStats.from_payload(name, recorded))
            self._keep(name, entry["segments"])
        report.tables_loaded += 1
        report.rows_loaded += table.num_rows

    def _load_warehouse_payload(self, path: Path) -> dict[str, Any] | None:
        health = self.resilience.health
        if not path.is_file():
            health.mark_failed("warehouse", f"warehouse file missing: {path}")
            return None
        try:
            point = "persist.warehouse.load"
            return files.read(path, json.load, point=point, faults=self.faults, retrier=self.retrier)
        except (OSError, ValueError) as exc:
            self.quarantine.quarantine_file(
                path, artefact="warehouse-file", reason=str(exc)
            )
            health.mark_failed("warehouse", f"warehouse file quarantined: {exc}")
            return None

    def _restore_warehouse(self, payload: dict[str, Any], system: "LawsDatabase") -> list[Any]:
        """:func:`restore_store`, quarantining the entries that do not decode."""
        try:
            return restore_store(payload, system.models)
        except FormatVersionError:
            # A newer format is a build mismatch, not corruption: upgrading
            # the binary fixes it, quarantining would discard good models.
            raise
        except Exception:
            # Nothing was added (restore_store decodes every entry first).
            # Isolate the minimal failing subset by binary-search shrinking
            # and quarantine exactly those entries; everything else serves.
            entries = payload.get("models", [])

            def probe(batch: Any) -> None:
                for candidate in batch:
                    deserialize_model(candidate)

            bad = minimal_failing_subset(entries, probe)
            bad_set = set(bad)
            for index in bad:
                entry = entries[index]
                model_id = entry.get("model_id", index) if isinstance(entry, dict) else index
                try:
                    deserialize_model(entry)
                    reason = "undecodable warehouse entry"
                except Exception as entry_exc:
                    reason = str(entry_exc)
                self.quarantine.quarantine_entry(
                    entry,
                    name=f"warehouse-entry-{model_id}.json",
                    artefact="warehouse-entry",
                    reason=reason,
                )
            rest = [entry for index, entry in enumerate(entries) if index not in bad_set]
            self.resilience.health.mark_degraded(
                "warehouse",
                f"{len(bad)} warehouse entr{'y' if len(bad) == 1 else 'ies'} quarantined; "
                f"{len(rest)} model(s) restored",
            )
            return restore_store({**payload, "models": rest}, system.models)

    def _replay_wal(self, system: "LawsDatabase", report: RecoveryReport) -> bool:
        """Replay the WAL tail; returns True when an epoch mismatch discarded it."""
        health = self.resilience.health
        try:
            replay = self.wal.replay()
        except WALError as exc:
            self.quarantine.quarantine_file(
                self.wal.path, artefact="wal-file", reason=str(exc)
            )
            health.mark_failed("wal", f"WAL quarantined: {exc}")
            replay = WalReplay()
        report.wal_truncated_bytes = replay.truncated_bytes
        report.wal_truncation_reason = replay.truncation_reason
        if replay.was_truncated:
            quarantined_path = None
            if replay.tail:
                tail_record = self.quarantine.quarantine_bytes(
                    replay.tail,
                    name=f"wal-tail-ckpt{self.checkpoint_id:05d}.bin",
                    artefact="wal-tail",
                    reason=replay.truncation_reason or "torn tail",
                )
                quarantined_path = tail_record.quarantined_path
            self.journal.record(
                "wal-truncation",
                reason=replay.truncation_reason,
                truncated_bytes=replay.truncated_bytes,
                quarantined_path=quarantined_path,
            )
        epoch_discarded = False
        if replay.epoch != self.checkpoint_id:
            # A stale-epoch log must be re-stamped even when it holds no
            # data records: appends accepted into an epoch-1 log under a
            # checkpoint-2 manifest would be silently discarded on the
            # *next* recovery.
            epoch_discarded = bool(replay.records)
            report.wal_discarded_epoch_mismatch = epoch_discarded
            self._reset_wal_safe(self.checkpoint_id)
        else:
            for index, record in enumerate(replay.records):
                try:
                    rows = self._apply_wal_record(system, record)
                except FormatVersionError:
                    raise
                except ReproError as exc:
                    # Records after a failed one may depend on it (create
                    # then append): stop applying, keep everything aside.
                    self.quarantine.quarantine_entry(
                        record,
                        name=f"wal-record-{index:05d}.json",
                        artefact="wal-record",
                        reason=str(exc),
                    )
                    remainder = replay.records[index + 1 :]
                    if remainder:
                        self.quarantine.quarantine_entry(
                            remainder,
                            name=f"wal-records-after-{index:05d}.json",
                            artefact="wal-record",
                            reason=f"records after failed record {index} not applied",
                        )
                    health.mark_degraded(
                        "wal", f"WAL record {index} failed to apply: {exc}"
                    )
                    break
                report.wal_records_replayed += 1
                report.wal_rows_replayed += rows
        if not self.wal.path.exists() or self.wal.size_bytes == 0:
            self._reset_wal_safe(self.checkpoint_id)
        return epoch_discarded

    def _apply_wal_record(self, system: "LawsDatabase", record: dict[str, Any]) -> int:
        """Apply one replayed record; returns the rows it appended.

        Table writes go back through the ``LawsDatabase`` methods that logged
        them (``accepting_writes`` is False, so nothing is re-logged): the
        recovered tables, model statuses and archive state are the live
        ones by construction.  ``archive``/``recall`` call the tier, because
        the live ``archive()`` checkpoints first."""
        op = record.get("op")
        if op in ("create_table", "load_table"):
            table = self._logged_rows(record)
            system.register_table(table, replace=record.get("replace", False))
            if op == "load_table":
                self._keep(table.name, record["segments"])
            return table.num_rows
        if op == "append":
            if "rows" in record:  # a v1–v3 record: the rows as JSON lists
                name, rows = record["table"], [tuple(row) for row in record["rows"]]
            else:
                name, rows = record["name"], self._logged_rows(record)
            system.insert_rows(name, rows)
            return len(rows)
        if op == "drop_table":
            system.drop_table(record["name"])
            return 0
        if op == "sql":
            from repro.core.pipeline import execute_write

            # Deterministic for the supported subset (CREATE TABLE / INSERT
            # ... VALUES): re-running the text reproduces the write.
            prepared = system.database.executor.prepare(record["sql"])
            execute_write(system, record["sql"], prepared)
            statement = prepared.statement
            return len(statement.rows) if isinstance(statement, InsertStatement) else 0
        if op == "partition_map":
            system.database.catalog.set_table_meta(
                record["table"], PARTITION_META_KEY, record["map"]
            )
            return 0
        if op == "archive":
            # Re-archiving is deterministic: the predicate re-selects the same
            # rows out of the recovered table state at this point of the log.
            system.archive_tier.archive(record["table"], record["predicate"])
            return 0
        if op == "recall":
            system.archive_tier.recall(record["table"])
            return 0
        raise PersistenceError(f"unknown WAL record op {op!r}")

    def _logged_rows(self, record: dict[str, Any]) -> Table:
        """The rows a ``create_table``, ``load_table`` or ``append`` record
        writes: its segment, the pool segments it names, or none (a v1–v3
        ``create_table``, whose rows follow it as ``append`` records)."""
        name, schema = record["name"], schema_from_payload(record["schema"])
        self._refuse_newer(record, f"WAL {record['op']} record for {name!r}")
        if BODY_KEY in record:
            return read_segment_bytes(record[BODY_KEY], name, schema, int(record["row_count"]))
        if "segments" not in record:
            return Table.empty(name, schema)
        if "dir" in record:  # a v1/v2 record: its files lie under its "dir"
            _relocate(record, f"../{record['dir']}")
        return self.read_segments(name, schema, record["segments"])

    def _keep(self, name: str, entries: list[dict[str, Any]]) -> None:
        """``entries`` are ``name``'s committed rows until they change — unless
        they are legacy references (they carry a directory): the next
        checkpoint rewrites those into the pool."""
        if all("/" not in entry["file"] for entry in entries):
            self._durable[name] = (self.catalog.data_generation(name), entries)

    def _reset_wal_safe(self, epoch: int) -> None:
        """Reset the WAL; a failure defers the epoch stamp instead of aborting."""
        try:
            self.wal.reset(epoch=epoch)
        except WALError as exc:
            self.journal.record("wal-reset-deferred", checkpoint_id=epoch, error=str(exc))

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        self.accepting_writes = False
        self.wal.close()
        self._closed = True


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _serial(file_name: str) -> int:
    head = file_name.partition("_")[0]
    return int(head) if head.isdigit() else 0


def _calibration_payload(system: "LawsDatabase") -> dict[str, Any]:
    from dataclasses import asdict

    model = system.planner.cost_model
    return {**asdict(model.costs), "source": model.source}


def _restore_calibration(system: "LawsDatabase", payload: dict[str, Any] | None) -> None:
    if not payload:
        return
    from repro.core.planner.cost import CostModel, OperatorCosts

    # Each field keeps the type of its default (``parallel_max_workers`` is a
    # pool width, not a float); unknown keys are another version's.
    defaults = OperatorCosts()
    costs = {
        name: type(getattr(defaults, name))(payload[name])
        for name in OperatorCosts.__dataclass_fields__
        if name in payload
    }
    source = str(payload.get("source", "unrecorded")).removeprefix("restored: ")
    system.planner.set_cost_model(
        CostModel(OperatorCosts(**costs), source=f"restored: {source}")
    )


# -- legacy references: a v1/v2 build kept segments in three namespaces ---------------

#: Besides ``segments/ckpt<N>/`` (a checkpoint's): ``walseg/<N>/`` (a bulk
#: load's) and ``archive/`` (the model-only tier's).  The sweep deletes them.
LEGACY_DIRS = ("walseg", "archive")


def _pool_references(manifest: dict[str, Any]) -> None:
    """Rename a v1/v2 manifest's references relative to the pool as it is
    loaded: tables' under ``segments/ckpt<N>/``, archive records' (moved into
    their tables' entries) under ``archive/``."""
    if int(manifest.get("format_version", 0)) >= 3:  # written into the pool
        return
    tables = manifest.get("tables", {})
    for name, archived in (manifest.pop("archive", None) or {}).get("tables", {}).items():
        tables[name]["archived"] = [_relocate(segment, "../archive") for segment in archived]
    for entry in tables.values():
        _relocate(entry, f"ckpt{int(manifest.get('checkpoint_id', 0)):05d}")


def _relocate(item: dict[str, Any], directory: str) -> dict[str, Any]:
    item["segments"] = [{**entry, "file": f"{directory}/{entry['file']}"} for entry in item["segments"]]
    return item
