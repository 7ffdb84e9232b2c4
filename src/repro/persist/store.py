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
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.db.sql.ast import InsertStatement
from repro.db.stats import TableStats
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
from repro.persist.snapshot import (
    DEFAULT_ROWS_PER_SEGMENT,
    read_table_segments,
    schema_from_payload,
    schema_to_payload,
    write_table_segments,
)
from repro.persist.warehouse import deserialize_model, restore_store, serialize_store
from repro.persist.wal import WalReplay, WriteAheadLog
from repro.resilience.quarantine import QuarantineManager, minimal_failing_subset

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.core.system import LawsDatabase
    from repro.resilience import FaultInjector, ResilienceRuntime

__all__ = ["CheckpointReport", "RecoveryReport", "DurableStore"]

#: On-disk format version.  2: snapshot segments store INT64 at its narrowest
#: width and omit all-valid masks (see :mod:`repro.persist.snapshot`); this
#: build reads both, and a v1 build refuses a v2 store with
#: ``FormatVersionError`` instead of quarantining segments it misreads.
FORMAT_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"

#: Rows per WAL append frame.  Bulk loads are split so no single frame can
#: approach the WAL's frame-size cap (a bulk load framed as one giant record
#: would raise *after* the in-memory registration succeeded, leaving a WAL
#: that replays the table truncated).
WAL_APPEND_CHUNK_ROWS = 4096

#: Creates/loads at or above this row count are persisted as columnar npz
#: segments under ``walseg/`` referenced by one WAL ``load_table`` record
#: (see :meth:`DurableStore.log_register_table`) instead of row-wise JSON WAL
#: frames — the WAL stays for incremental appends, not bulk loads several
#: times the snapshot's size that would replay row-by-row on every reopen
#: (and checkpointing per load would re-snapshot every earlier table, going
#: quadratic across a load burst).
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
        resilience: "ResilienceRuntime",
        journal: Any,
        metrics: Any,
    ) -> None:
        self.root = Path(root)
        self.rows_per_segment = rows_per_segment
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        #: Retry, health tracking and the (opt-in) fault injector: partial
        #: corruption met during recovery degrades instead of aborting.
        self.resilience = resilience
        self.faults = resilience.faults
        #: The :class:`repro.obs.EventJournal` recording checkpoint and
        #: recovery operations, and the :class:`repro.obs.MetricsRegistry`
        #: (``recovery_total`` etc.).
        self.journal = journal
        self.metrics = metrics
        self.wal = WriteAheadLog(
            self.root / WAL_NAME, fsync=fsync, faults=self.faults, retrier=resilience.retrier
        )
        self.checkpoint_id = 0
        #: False while recovery replays the WAL, so replayed writes are not
        #: re-logged; True once the store is live.
        self.accepting_writes = False
        #: Unreadable artefacts move aside instead of blocking ``open()``;
        #: operator reports find the ledger through the runtime.
        self.quarantine = QuarantineManager(self.root, journal=journal, metrics=metrics)
        resilience.quarantine = self.quarantine
        self._closed = False
        #: Sequence for snapshot-backed WAL load records; resumes past any
        #: directories a previous incarnation left under walseg/.
        self._walseg_counter = self._max_walseg_index()

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

    # -- WAL hooks (each called from the one write path it logs: a LawsDatabase
    # -- method, or the archive tier's own critical section) ---------------------

    def log_register_table(self, table: Table, replace: bool = False) -> None:
        """Log a created, loaded or replaced table with the rows it holds."""
        if not self.accepting_writes:
            return
        if table.num_rows >= LARGE_CREATE_SNAPSHOT_ROWS:
            self._log_load_table(table, replace)
            return
        create = {
            "op": "create_table",
            "name": table.name,
            "schema": schema_to_payload(table.schema),
            "replace": bool(replace),
        }
        self.wal.append_all(chain([create], _append_records(table.name, table.to_rows())))

    def log_append(self, table_name: str, rows: Any) -> None:
        if not self.accepting_writes:
            return
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        self.wal.append_all(_append_records(table_name, rows))

    def _log_load_table(self, table: Table, replace: bool) -> None:
        """Persist a bulk load as columnar segments + one referencing record.

        The segments are on disk (and synced, when fsync is on) *before*
        the WAL record naming them is appended, so a replayed record never
        dangles."""
        self._walseg_counter += 1
        directory = self.walseg_dir / f"{self._walseg_counter:05d}"
        entries = write_table_segments(
            directory, table, rows_per_segment=self.rows_per_segment, faults=self.faults
        )
        if self.fsync:
            for segment_file in directory.iterdir():
                _fsync_file(segment_file)
            _fsync_dir(directory)
        self._log(
            {
                "op": "load_table",
                "name": table.name,
                "schema": schema_to_payload(table.schema),
                "dir": str(directory.relative_to(self.root)),
                "segments": entries,
                "replace": bool(replace),
            }
        )

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
            report.tables += 1
            report.rows += table.num_rows
            report.segment_files += len(entries)
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
            "archive": system.archive_tier.to_payload(),
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
        # Recalled rows are inside the new snapshot now; their archive
        # segments are unreferenced garbage.
        system.archive_tier.purge_unreferenced()
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
                retrier = self.resilience.retrier
                if not retrier.is_transient(exc):
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
            version = int(manifest.get("format_version", 0))
            if version > FORMAT_VERSION:
                raise FormatVersionError(
                    f"store at {self.root} uses format v{version}; this build "
                    f"supports up to v{FORMAT_VERSION}"
                )
            self.checkpoint_id = int(manifest.get("checkpoint_id", 0))
            report.checkpoint_id = self.checkpoint_id

            segments_dir = self._segments_dir(self.checkpoint_id)
            for name, entry in manifest.get("tables", {}).items():
                self._recover_table(system, segments_dir, name, entry, report)
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
            # The archive manifest restores BEFORE the WAL replays: replayed
            # archive/recall/drop records operate on the tier, and a drop of
            # an archived table must clear (not precede) its restored state.
            archive_payload = manifest.get("archive") or {}
            if archive_payload.get("tables"):
                system.archive_tier.restore_from_payload(archive_payload)

        # WAL replay: only a log stamped with this checkpoint's epoch extends
        # it; any other epoch predates the manifest rename and is discarded.
        epoch_discarded = self._replay_wal(system, report)
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
        entry: dict[str, Any],
        report: RecoveryReport,
    ) -> None:
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

        table = read_table_segments(
            segments_dir,
            name,
            schema_from_payload(entry["schema"]),
            entry["segments"],
            faults=self.faults,
            on_segment_error=quarantine_segment,
            retrier=self.resilience.retrier,
        )
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
            # catalog checks), published before the WAL tail replays so each
            # replayed append merges into them as it did live.
            recorded = entry.get("stats")  # absent: stale at the checkpoint, or a v1 store
            if recorded is not None:
                system.database.catalog.restore_stats(name, TableStats.from_payload(name, recorded))
        report.tables_loaded += 1
        report.rows_loaded += table.num_rows

    def _load_warehouse_payload(self, path: Path) -> dict[str, Any] | None:
        health = self.resilience.health
        if not path.is_file():
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
                data = self.resilience.retrier.retry(
                    read_payload,
                    first_error=exc,
                    operation="warehouse.load",
                    retry_all=True,
                )
            return json.loads(data.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
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
            replay = self.wal.replay(repair=True)
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
            name, schema = record["name"], schema_from_payload(record["schema"])
            if op == "create_table":
                table = Table.empty(name, schema)
            else:
                table = read_table_segments(
                    self.root / record["dir"],
                    name,
                    schema,
                    record["segments"],
                    faults=self.faults,
                    retrier=self.resilience.retrier,
                )
            system.register_table(table, replace=record.get("replace", False))
            return table.num_rows
        if op == "append":
            rows = [tuple(row) for row in record["rows"]]
            system.insert_rows(record["table"], rows)
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


def _append_records(table_name: str, rows: Any) -> Any:
    """``append`` records for ``rows``, one per :data:`WAL_APPEND_CHUNK_ROWS`.

    A generator, converted per chunk: one transient list-of-lists per frame
    instead of a second whole-table materialization next to the caller's rows."""
    for start in range(0, len(rows), WAL_APPEND_CHUNK_ROWS):
        chunk = [list(row) for row in rows[start : start + WAL_APPEND_CHUNK_ROWS]]
        yield {"op": "append", "table": table_name, "rows": chunk}


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
