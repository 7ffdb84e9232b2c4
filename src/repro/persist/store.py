"""The durable store: snapshots + WAL + warehouse behind one checkpoint.

On-disk layout (all under one root directory)::

    MANIFEST.json            checkpoint manifest (atomic tmp+rename)
    wal.log                  append-only checksummed WAL (epoch-stamped)
    segments/ckpt<N>/        columnar table snapshots of checkpoint N
    warehouse/models-<N>.json  the model warehouse of checkpoint N
    archive/                 model-only-tier segments (survive checkpoints)

Crash safety is manifest-pivoted: a checkpoint writes the new segment files
and warehouse first, then renames the manifest into place, then resets the
WAL with the new checkpoint's epoch.  A crash anywhere in that sequence
leaves either the old manifest (whose files are untouched) or the new one;
the WAL's epoch record tells a reopening process whether the log extends
the manifest it found or predates it (in which case it is discarded —
its records are already inside the snapshot).
"""

from __future__ import annotations

import errno as _errno_mod
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.db.table import Table
from repro.errors import (
    FormatVersionError,
    ManifestError,
    PersistenceError,
    ReproError,
    StorageIOError,
    WALError,
)
from repro.parallel.partition import PARTITION_META_KEY, partition_map_from_segments
from repro.persist.archive import ArchiveTier
from repro.persist.snapshot import (
    DEFAULT_ROWS_PER_SEGMENT,
    read_table_segments,
    schema_from_payload,
    schema_to_payload,
    write_table_segments,
)
from repro.persist.warehouse import deserialize_model, restore_store, serialize_store
from repro.persist.wal import WriteAheadLog
from repro.resilience.quarantine import QuarantineManager, minimal_failing_subset

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.core.system import LawsDatabase
    from repro.resilience import FaultInjector, ResilienceRuntime

__all__ = ["CheckpointReport", "RecoveryReport", "DurableStore"]

#: On-disk format version; a major bump breaks compatibility.
FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"

#: Rows per WAL append frame.  Bulk loads are split so no single frame can
#: approach the WAL's frame-size cap (a bulk load framed as one giant record
#: would raise *after* the in-memory registration succeeded, leaving a WAL
#: that replays the table truncated).
WAL_APPEND_CHUNK_ROWS = 4096

#: Creates/loads at or above this row count are persisted as columnar npz
#: segments under ``walseg/`` referenced by one WAL ``load_table`` record
#: (see :meth:`DurableStore.log_load_table`) instead of row-wise JSON WAL
#: frames — the WAL stays for incremental appends, not bulk loads several
#: times the snapshot's size that would replay row-by-row on every reopen.
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

    @property
    def cold_started(self) -> bool:
        return self.tables_loaded > 0 or self.models_restored > 0

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
    ) -> None:
        self.root = Path(root)
        self.rows_per_segment = rows_per_segment
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.root / WAL_NAME, fsync=fsync)
        self.checkpoint_id = 0
        #: False while recovery replays the WAL, so replayed appends are not
        #: re-logged; True once the store is live.
        self.accepting_writes = False
        #: Optional :class:`repro.obs.EventJournal` recording checkpoint and
        #: recovery operations.
        self.journal: Any = None
        #: Optional :class:`repro.obs.MetricsRegistry` (``recovery_total`` etc.).
        self.metrics: Any = None
        #: Optional :class:`repro.resilience.ResilienceRuntime` — enables
        #: retry, health tracking and graceful quarantine during recovery.
        #: Without it the store keeps its strict fail-stop behaviour.
        self.resilience: "ResilienceRuntime | None" = None
        #: Always present: unreadable artefacts move aside instead of
        #: blocking ``open()`` (journal/metrics attach lazily).
        self.quarantine = QuarantineManager(self.root)
        self._closed = False
        #: Sequence for snapshot-backed WAL load records; resumes past any
        #: directories a previous incarnation left under walseg/.
        self._walseg_counter = self._max_walseg_index()

    # -- resilience --------------------------------------------------------------

    @property
    def faults(self) -> "FaultInjector | None":
        runtime = self.resilience
        return runtime.faults if runtime is not None else None

    def attach_resilience(self, runtime: "ResilienceRuntime") -> None:
        """Wire the shared resilience runtime through the WAL and quarantine."""
        self.resilience = runtime
        self.wal.faults = runtime.faults
        self.wal.retrier = runtime.retrier
        runtime.quarantine = self.quarantine
        self.quarantine.journal = runtime.journal
        self.quarantine.metrics = runtime.metrics

    # -- paths -------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _segments_dir(self, checkpoint_id: int) -> Path:
        return self.root / "segments" / f"ckpt{checkpoint_id:05d}"

    def _warehouse_path(self, checkpoint_id: int) -> Path:
        return self.root / "warehouse" / f"models-{checkpoint_id:05d}.json"

    @property
    def archive_dir(self) -> Path:
        return self.root / "archive"

    @property
    def walseg_dir(self) -> Path:
        """Columnar segments referenced by WAL ``load_table`` records.

        Obsolete the moment the WAL resets; purged wholesale at checkpoint."""
        return self.root / "walseg"

    def _max_walseg_index(self) -> int:
        if not self.walseg_dir.is_dir():
            return 0
        indices = [
            int(child.name) for child in self.walseg_dir.iterdir() if child.name.isdigit()
        ]
        return max(indices, default=0)

    def has_checkpoint(self) -> bool:
        return self.manifest_path.is_file()

    # -- WAL hooks (called by the LawsDatabase write paths) -----------------------

    def log_create_table(self, table: Table, replace: bool = False) -> None:
        if not self.accepting_writes:
            return
        self.wal.append(
            {
                "op": "create_table",
                "name": table.name,
                "schema": schema_to_payload(table.schema),
                "replace": bool(replace),
            }
        )
        if table.num_rows:
            self.log_append(table.name, table.to_rows())

    def log_append(self, table_name: str, rows: Any) -> None:
        if not self.accepting_writes:
            return
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        # Converted per chunk: one transient list-of-lists per frame instead
        # of a second whole-table materialization next to the caller's rows.
        for start in range(0, len(rows), WAL_APPEND_CHUNK_ROWS):
            chunk = [list(row) for row in rows[start : start + WAL_APPEND_CHUNK_ROWS]]
            self.wal.append({"op": "append", "table": table_name, "rows": chunk})

    def log_load_table(self, table: Table, replace: bool = False) -> None:
        """Persist a bulk load as columnar segments + one referencing record.

        The segments are on disk (and synced, when fsync is on) *before*
        the WAL record naming them is appended, so a replayed record never
        dangles."""
        if not self.accepting_writes:
            return
        self._walseg_counter += 1
        directory = self.walseg_dir / f"{self._walseg_counter:05d}"
        entries = write_table_segments(
            directory, table, rows_per_segment=self.rows_per_segment, faults=self.faults
        )
        if self.fsync:
            for segment_file in directory.iterdir():
                _fsync_file(segment_file)
            _fsync_dir(directory)
        self.wal.append(
            {
                "op": "load_table",
                "name": table.name,
                "schema": schema_to_payload(table.schema),
                "dir": str(directory.relative_to(self.root)),
                "segments": entries,
                "replace": bool(replace),
            }
        )

    def log_drop_table(self, table_name: str) -> None:
        if not self.accepting_writes:
            return
        self.wal.append({"op": "drop_table", "name": table_name})

    def log_archive(self, table_name: str, predicate_sql: str) -> None:
        if not self.accepting_writes:
            return
        self.wal.append({"op": "archive", "table": table_name, "predicate": predicate_sql})

    def log_recall(self, table_name: str) -> None:
        if not self.accepting_writes:
            return
        self.wal.append({"op": "recall", "table": table_name})

    def log_sql(self, sql: str) -> None:
        """Log a DDL/DML statement executed through the SQL front-end.

        Replay re-executes the statement text — deterministic for the
        supported subset (CREATE TABLE / INSERT ... VALUES)."""
        if not self.accepting_writes:
            return
        self.wal.append({"op": "sql", "sql": sql})

    # -- checkpoint ----------------------------------------------------------------

    def checkpoint(self, system: "LawsDatabase") -> CheckpointReport:
        """Snapshot every table, the warehouse and the planner calibration.

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
        with system.database.catalog.commit_lock:
            return self._checkpoint_locked(system)

    def _checkpoint_locked(self, system: "LawsDatabase") -> CheckpointReport:
        from time import perf_counter

        started = perf_counter()
        new_id = self.checkpoint_id + 1
        report = CheckpointReport(checkpoint_id=new_id)

        segments_dir = self._segments_dir(new_id)
        if segments_dir.exists():
            shutil.rmtree(segments_dir)
        tables_payload: dict[str, Any] = {}
        database = system.database
        for name in database.table_names():
            table = database.table(name)
            entries = write_table_segments(
                segments_dir, table, rows_per_segment=self.rows_per_segment, faults=self.faults
            )
            tables_payload[name] = {
                "schema": schema_to_payload(table.schema),
                "row_count": table.num_rows,
                "segments": entries,
            }
            report.tables += 1
            report.rows += table.num_rows
            report.segment_files += len(entries)
            # Publish the freshly-written segments' row ranges as the
            # table's partition map unless the user already committed one (a
            # range/hash map must not be clobbered by the storage layout).
            if len(entries) > 1 and database.catalog.table_meta(name, PARTITION_META_KEY) is None:
                database.catalog.set_table_meta(
                    name, PARTITION_META_KEY, partition_map_from_segments(table, entries)
                )

        warehouse_payload = serialize_store(system.models)
        warehouse_payload["calibration"] = _calibration_payload(system)
        warehouse_payload["maintenance"] = system.maintenance.export_state()
        report.models = len(warehouse_payload["models"])
        warehouse_path = self._warehouse_path(new_id)
        warehouse_path.parent.mkdir(parents=True, exist_ok=True)
        self._write_json_durable(
            warehouse_path, warehouse_payload, fault_point="persist.warehouse.store"
        )

        if self.fsync:
            # The manifest rename must not become durable before the file
            # contents it references: flush every new segment (and its
            # directory entry) to stable storage first.
            if segments_dir.is_dir():
                for segment_file in segments_dir.iterdir():
                    _fsync_file(segment_file)
                _fsync_dir(segments_dir)
            _fsync_dir(warehouse_path.parent)

        manifest = {
            "format_version": FORMAT_VERSION,
            "checkpoint_id": new_id,
            "catalog_version": database.catalog.version,
            "tables": tables_payload,
            "warehouse_file": str(warehouse_path.relative_to(self.root)),
            "archive": system.archive_tier.to_payload() if system.archive_tier else {},
            "wal_file": WAL_NAME,
        }
        self._write_json_durable(self.manifest_path, manifest, fault_point="persist.manifest.write")
        # The manifest rename is the commit point: checkpoint N exists from
        # here on regardless of what the WAL reset below does.
        self.checkpoint_id = new_id
        # Reset the WAL under N's epoch so a crash between the rename and
        # the reset leaves an epoch-mismatched (and therefore ignored) log
        # rather than a double-applied one.  A *failed* reset is survivable:
        # the epoch stays pending inside the WAL and is stamped (as a
        # replay-restart marker) by the next successful append, so no record
        # can land under a stale epoch — journal it and carry on.
        self._reset_wal_safe(new_id)
        self._cleanup_stale_artifacts(keep_id=new_id)
        if system.archive_tier is not None:
            # Recalled rows are inside the new snapshot now; their archive
            # segments are unreferenced garbage.
            system.archive_tier.purge_unreferenced()
        report.elapsed_seconds = perf_counter() - started
        if self.journal is not None:
            self.journal.record(
                "checkpoint",
                checkpoint_id=report.checkpoint_id,
                tables=report.tables,
                rows=report.rows,
                models=report.models,
                segment_files=report.segment_files,
            )
        return report

    def _cleanup_stale_artifacts(self, keep_id: int) -> None:
        """Drop every snapshot/warehouse/walseg artefact the manifest no
        longer references.

        A sweep (not just "delete N-1") so artefacts orphaned by a crash
        between a manifest rename and its cleanup are reclaimed by the next
        successful checkpoint instead of leaking forever."""
        segments_root = self.root / "segments"
        if segments_root.is_dir():
            keep_segments = self._segments_dir(keep_id).name
            for child in segments_root.iterdir():
                if child.name != keep_segments:
                    shutil.rmtree(child, ignore_errors=True)
        warehouse_root = self.root / "warehouse"
        if warehouse_root.is_dir():
            keep_warehouse = self._warehouse_path(keep_id).name
            for child in warehouse_root.iterdir():
                if child.name != keep_warehouse:
                    try:
                        child.unlink()
                    except OSError:
                        pass
        # The WAL was just reset: no record references walseg/ any more.
        shutil.rmtree(self.walseg_dir, ignore_errors=True)

    def _write_json_durable(self, path: Path, payload: dict[str, Any], fault_point: str) -> None:
        """Atomic JSON write + transient-error retry + typed wrapping."""

        def attempt() -> None:
            _write_json_atomic(
                path, payload, fsync=self.fsync, faults=self.faults, fault_point=fault_point
            )

        try:
            try:
                attempt()
            except OSError as exc:
                retrier = self.resilience.retrier if self.resilience is not None else None
                if retrier is None or not retrier.is_transient(exc):
                    raise
                retrier.retry(attempt, first_error=exc, operation=fault_point)
        except OSError as exc:
            raise StorageIOError(
                f"durable write of {path} failed: {exc.strerror or exc}",
                path=str(path),
                errno_code=exc.errno,
            ) from exc

    # -- recovery -------------------------------------------------------------------

    def recover(self, system: "LawsDatabase") -> RecoveryReport:
        """Load the last checkpoint into ``system`` and replay the WAL tail.

        With a resilience runtime attached, partial corruption degrades
        instead of aborting: unreadable snapshot segments / warehouse
        entries / WAL frames are quarantined (journaled, metered) and the
        surviving state serves.  Without one, the store keeps its strict
        fail-stop contract — every failure is still a typed error.
        """
        report = RecoveryReport()
        quarantined_before = len(self.quarantine.records())
        health = self.resilience.health if self.resilience is not None else None
        manifest = self._load_manifest()
        if manifest is not None:
            version = int(manifest.get("format_version", 0))
            if version > FORMAT_VERSION:
                raise FormatVersionError(
                    f"store at {self.root} uses format v{version}; this build "
                    f"supports up to v{FORMAT_VERSION}"
                )
            self.checkpoint_id = int(manifest.get("checkpoint_id", 0))
            report.checkpoint_id = self.checkpoint_id

        database = system.database
        if manifest is not None:
            segments_dir = self._segments_dir(self.checkpoint_id)
            for name, entry in manifest.get("tables", {}).items():
                schema = schema_from_payload(entry["schema"])
                self._recover_table(system, segments_dir, name, schema, entry, report, health)
            database.catalog.restore_version(int(manifest.get("catalog_version", 0)))

        # The warehouse loads before the WAL replays: replayed appends mark
        # the touched tables' models stale, which only lands if the models
        # are already in the store.
        if manifest is not None:
            warehouse_file = manifest.get("warehouse_file")
            if warehouse_file:
                warehouse_path = self.root / warehouse_file
                payload = self._load_warehouse_payload(warehouse_path, health)
                if payload is not None:
                    restored = self._restore_warehouse(payload, system, health)
                    report.models_restored = len(restored)
                    if restored:
                        from repro.core.captured_model import ensure_model_id_floor

                        ensure_model_id_floor(max(m.model_id for m in restored))
                    _restore_calibration(system, payload.get("calibration"))
                    report.watches_restored = system.maintenance.restore_state(
                        payload.get("maintenance", [])
                    )
            # The archive manifest restores BEFORE the WAL replays: replayed
            # archive/recall/drop records operate on the tier, and a drop of
            # an archived table must clear (not precede) its restored state.
            archive_payload = manifest.get("archive") or {}
            if archive_payload.get("tables"):
                if system.archive_tier is None:
                    # Reachable when recover() is driven directly (not via
                    # LawsDatabase.open): the planner guard must be wired
                    # here too, or archived tables would restore with exact
                    # execution silently running over the partial remainder.
                    system.archive_tier = ArchiveTier(database, self.archive_dir)
                    system.planner.archive_guard = system.archive_tier.blocking_reason
                system.archive_tier.restore_from_payload(archive_payload)

        # WAL replay: only a log stamped with this checkpoint's epoch extends
        # it; any other epoch predates the manifest rename and is discarded.
        epoch_discarded = self._replay_wal(system, report, health)

        if system.archive_tier is not None:
            report.archived_tables = system.archive_tier.archived_tables()

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
        if self.metrics is not None:
            self.metrics.inc("recovery_total", outcome=outcome)
        if self.journal is not None:
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
            return json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise ManifestError(
                f"checkpoint manifest {self.manifest_path} is unreadable: {exc}",
                path=str(self.manifest_path),
            ) from exc

    def _recover_table(
        self,
        system: "LawsDatabase",
        segments_dir: Path,
        name: str,
        schema: Any,
        entry: dict[str, Any],
        report: RecoveryReport,
        health: Any,
    ) -> None:
        lost_segments: list[str] = []
        handler = None
        if self.resilience is not None:

            def handler(seg_entry: dict[str, Any], path: Path, exc: Exception) -> bool:
                self.quarantine.quarantine_file(
                    path,
                    artefact="snapshot-segment",
                    reason=str(exc),
                    detail=f"table {name!r} segment {seg_entry.get('file')}",
                )
                lost_segments.append(str(seg_entry.get("file")))
                return True

        table = read_table_segments(
            segments_dir,
            name,
            schema,
            entry["segments"],
            faults=self.faults,
            on_segment_error=handler,
            retrier=self.resilience.retrier if self.resilience is not None else None,
        )
        expected = int(entry.get("row_count", table.num_rows))
        if lost_segments:
            reason = (
                f"{len(lost_segments)} snapshot segment(s) quarantined; "
                f"{table.num_rows}/{expected} row(s) recovered"
            )
            if health is not None:
                health.mark_failed(f"table:{name}", reason)
        elif table.num_rows != expected:
            raise PersistenceError(
                f"snapshot of {name!r} has {table.num_rows} row(s) but the "
                f"manifest recorded {entry.get('row_count')}"
            )
        system.database.register_table(table)
        if not lost_segments:
            # The snapshot's segments double as a partition map: serve
            # them through the catalog so the fan-out path works on a
            # reopened store.  A partially-quarantined table gets no map —
            # its segments no longer tile the recovered rows.
            try:
                payload = partition_map_from_segments(table, entry["segments"])
            except ReproError:
                pass
            else:
                if len(payload["partitions"]) > 1:
                    system.database.catalog.set_table_meta(name, PARTITION_META_KEY, payload)
        report.tables_loaded += 1
        report.rows_loaded += table.num_rows

    def _load_warehouse_payload(self, path: Path, health: Any) -> dict[str, Any] | None:
        if not path.is_file():
            if self.resilience is None:
                raise PersistenceError(f"warehouse file missing: {path}")
            health.mark_failed("warehouse", f"warehouse file missing: {path}")
            return None
        def read_payload() -> bytes:
            data = path.read_bytes()
            if self.faults is not None:
                data = self.faults.filter_bytes("persist.warehouse.load", data, path=path)
            return data

        try:
            try:
                data = read_payload()
            except OSError as exc:
                # Idempotent read: retry any OSError before condemning the
                # file — the bytes on disk may be perfectly good.
                if self.resilience is None:
                    raise
                data = self.resilience.retrier.retry(
                    read_payload,
                    first_error=exc,
                    operation="warehouse.load",
                    retry_all=True,
                )
            return json.loads(data.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            if self.resilience is None:
                from repro.errors import WarehouseError

                raise WarehouseError(
                    f"warehouse file {path} is unreadable: {exc}", path=str(path)
                ) from exc
            self.quarantine.quarantine_file(
                path, artefact="warehouse-file", reason=str(exc)
            )
            health.mark_failed("warehouse", f"warehouse file quarantined: {exc}")
            return None

    def _restore_warehouse(
        self, payload: dict[str, Any], system: "LawsDatabase", health: Any
    ) -> list[Any]:
        if self.resilience is None:
            return restore_store(payload, system.models)
        version = int(payload.get("format_version", 0))
        from repro.persist.warehouse import WAREHOUSE_FORMAT_VERSION

        if version > WAREHOUSE_FORMAT_VERSION:
            # A newer format is a build mismatch, not corruption: upgrading
            # the binary fixes it, quarantining would discard good models.
            raise FormatVersionError(
                f"warehouse format v{version} is newer than this build supports "
                f"(v{WAREHOUSE_FORMAT_VERSION}); upgrade before opening it"
            )
        entries = payload.get("models", [])
        try:
            models = [deserialize_model(entry) for entry in entries]
        except Exception:
            # Isolate the minimal failing subset by binary-search shrinking
            # and quarantine exactly those entries; everything else serves.
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
            models = [
                deserialize_model(entry)
                for index, entry in enumerate(entries)
                if index not in bad_set
            ]
            health.mark_degraded(
                "warehouse",
                f"{len(bad)} warehouse entr{'y' if len(bad) == 1 else 'ies'} quarantined; "
                f"{len(models)} model(s) restored",
            )
        return [system.models.add(model) for model in models]

    def _replay_wal(self, system: "LawsDatabase", report: RecoveryReport, health: Any) -> bool:
        """Replay the WAL tail; returns True when an epoch mismatch discarded it."""
        from repro.persist.wal import WalReplay

        try:
            replay = self.wal.replay(repair=True)
        except WALError as exc:
            if self.resilience is None:
                raise
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
            if self.journal is not None:
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
            touched: set[str] = set()
            for index, record in enumerate(replay.records):
                try:
                    rows = _apply_wal_record(self, system, record, touched)
                except ReproError as exc:
                    if self.resilience is None:
                        raise
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
            for name in touched:
                system.models.mark_table_stale(name)
        if not self.wal.path.exists() or self.wal.size_bytes == 0:
            self._reset_wal_safe(self.checkpoint_id)
        return epoch_discarded

    def _reset_wal_safe(self, epoch: int) -> None:
        """Reset the WAL; a failure defers the epoch stamp instead of aborting."""
        try:
            self.wal.reset(epoch=epoch)
        except WALError as exc:
            if self.journal is not None:
                self.journal.record("wal-reset-deferred", checkpoint_id=epoch, error=str(exc))

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        self.accepting_writes = False
        self.wal.close()
        self._closed = True


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _write_json_atomic(
    path: Path,
    payload: dict[str, Any],
    fsync: bool = False,
    faults: "FaultInjector | None" = None,
    fault_point: str | None = None,
) -> None:
    """Write-to-temp + (fsync) + rename: the target is never half-written.

    A failure at any step — including an injected torn write — leaves the
    previous file at ``path`` untouched; only the ``.tmp`` sibling can be
    partial, and the next successful write overwrites it.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    data = json.dumps(payload, indent=1).encode("utf-8")
    action = None
    if faults is not None and fault_point is not None:
        action = faults.hit(fault_point, path=path)
    if action is not None:
        data = faults.apply(action, data)
    tmp.write_bytes(data)
    if action is not None and action.kind == "torn_write":
        # The torn prefix sits in the .tmp file; the rename never happens.
        raise OSError(_errno_mod.EIO, "injected torn write", str(tmp))
    if fsync:
        _fsync_file(tmp)
    tmp.replace(path)
    if fsync:
        _fsync_dir(path.parent)


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: Directories fsync the same way on POSIX (O_RDONLY open + fsync).
_fsync_dir = _fsync_file


def _apply_wal_record(
    store: DurableStore, system: "LawsDatabase", record: dict[str, Any], touched: set[str]
) -> int:
    """Apply one replayed WAL record; returns the rows it appended."""
    database = system.database
    op = record.get("op")
    if op == "load_table":
        name = record["name"]
        schema = schema_from_payload(record["schema"])
        table = read_table_segments(
            store.root / record["dir"],
            name,
            schema,
            record["segments"],
            faults=store.faults,
            retrier=store.resilience.retrier if store.resilience is not None else None,
        )
        if database.has_table(name):
            if not record.get("replace", False):
                raise PersistenceError(
                    f"WAL loads table {name!r} which already exists in the snapshot"
                )
            database.drop_table(name)
            if system.archive_tier is not None:
                system.archive_tier.drop(name)
        database.register_table(table)
        return table.num_rows
    if op == "create_table":
        name = record["name"]
        schema = schema_from_payload(record["schema"])
        if database.has_table(name):
            if not record.get("replace", False):
                raise PersistenceError(
                    f"WAL creates table {name!r} which already exists in the snapshot"
                )
            database.drop_table(name)
            if system.archive_tier is not None:
                # Mirror the live replace path: the old incarnation's
                # archived segments go with it.
                system.archive_tier.drop(name)
        database.create_table(name, schema)
        return 0
    if op == "append":
        name = record["table"]
        rows = [tuple(row) for row in record["rows"]]
        database.insert_rows(name, rows)
        touched.add(name)
        return len(rows)
    if op == "drop_table":
        name = record["name"]
        database.drop_table(name)
        # Mirror the live drop path: warehouse models of a dropped table
        # must not keep serving for a table that no longer exists, and its
        # archived segments (restored before replay) go with it.
        for model in system.models.models_for_table(name, include_unusable=True):
            if model.status != "retired":
                system.models.retire_model(model.model_id)
        if system.archive_tier is not None:
            system.archive_tier.drop(name)
        touched.discard(name)
        return 0
    if op == "sql":
        from repro.db.sql.ast import InsertStatement

        statement = database.parse_sql(record["sql"])
        database.sql(record["sql"])
        if isinstance(statement, InsertStatement):
            touched.add(statement.name)
            return len(statement.rows)
        return 0
    if op == "archive":
        if system.archive_tier is None:  # pragma: no cover - open() always sets it
            raise PersistenceError("WAL archives a segment but no archive tier is attached")
        # Re-archiving is deterministic: the predicate re-selects the same
        # rows out of the recovered table state at this point of the log.
        system.archive_tier.archive(record["table"], record["predicate"])
        return 0
    if op == "recall":
        if system.archive_tier is None:  # pragma: no cover - open() always sets it
            raise PersistenceError("WAL recalls a segment but no archive tier is attached")
        system.archive_tier.recall(record["table"])
        return 0
    raise PersistenceError(f"unknown WAL record op {op!r}")


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
