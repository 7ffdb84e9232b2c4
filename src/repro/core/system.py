"""The end-to-end system façade: a database that captures the laws of its data.

:class:`LawsDatabase` wires together the relational substrate, the model
store, the harvester, the approximate query engine and the model-based
storage optimiser into the single object the paper envisions: "a database
system which is able to gain unprecedented understanding by autonomous and
proactive harvesting of statistical models as they are fitted to the stored
data."
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.approx.engine import ApproximateQueryEngine
from repro.core.approx.anomalies import AnomalyReport, detect_anomalies
from repro.core.captured_model import CapturedModel
from repro.core.harvester import HarvestReport, ModelHarvester
from repro.core.model_store import ModelStore
from repro.core.pipeline import run_query
from repro.core.planner import (
    AccuracyContract,
    ObservedErrorFeedback,
    PlannedAnswer,
    UnifiedPlan,
    UnifiedPlanner,
)
from repro.core.quality import QualityPolicy
from repro.core.snapshot import Snapshot
from repro.core.storage.model_switching import ModelLifecycleManager
from repro.core.storage.semantic_compression import CompressedTable, ModelCompressor
from repro.core.storage.zero_io import ScanComparison, ZeroIOScanner
from repro.core.strawman import StrawmanFrame
from repro.db.database import Database
from repro.db.io_model import IOAccountant, IOModel
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.db.stats import compute_table_stats
from repro.db.table import Table
from repro.errors import PersistenceError
from repro.obs import (
    ComplianceLedger,
    CostCalibrator,
    Event,
    EventJournal,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    SLOEngine,
    SlowQuery,
    SlowQueryLog,
    Span,
    Tracer,
    is_telemetry_table,
    spans_to_otlp,
)
from repro.obs.slo import default_slos
from repro.parallel import ParallelQueryEngine
from repro.parallel.pool import WorkerPool
from repro.parallel.partition import (
    PARTITION_META_KEY,
    build_partition_map,
    hash_partition_order,
    range_partition_order,
)
from repro.persist.archive import ArchiveReport, ArchiveTier
from repro.persist.store import CheckpointReport, DurableStore, RecoveryReport
from repro.resilience import FaultInjector, ResilienceRuntime, RetryPolicy
from repro.streaming.ingest import IngestBatch, IngestStats, StreamIngestor
from repro.streaming.maintenance import MaintenanceReport, ModelMaintenancePolicy, WatchTarget
from repro.weakcall import weak_callback

__all__ = ["LawsDatabase"]


class LawsDatabase:
    """A relational database that harvests and exploits user models."""

    def __init__(
        self,
        quality_policy: QualityPolicy | None = None,
        use_legal_filter: bool = False,
        ingest_batch_size: int = 512,
        verify_sample_fraction: float = 0.05,
        verify_seed: int | None = None,
        observability: bool = True,
        slow_query_seconds: float = 0.25,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        # Construction order, top to bottom.  Every component is built once and
        # complete: the collectors it reports to, the resilience equipment it
        # uses and the guards it consults are constructor arguments.  What it
        # calls back into on this façade it gets as a ``weak_callback`` —
        # owner → component → bound method → owner would be a cycle reference
        # counting never frees.
        #
        # The collectors first; ``observability=False`` builds the same objects
        # switched off, so nothing downstream asks whether they are there.
        # Spans read the IO charged while they were open from the accountant's
        # per-thread scopes — which is why it exists before the IO model does.
        accountant = IOAccountant()
        metrics = MetricsRegistry(enabled=observability)
        journal = EventJournal(
            enabled=observability,
            on_record=lambda event: metrics.inc("events_total", kind=event.kind),
        )
        tracer = Tracer(enabled=observability, io_scope=accountant.scope)
        # The self-healing resilience runtime: retry with backoff, per-
        # component health, circuit breakers (refit storms, verifier
        # failures) and — once a durable store attaches — quarantine.
        # Fault injection stays strictly opt-in: without ``fault_injector``
        # every instrumented call site pays one attribute check and behaves
        # exactly as before.
        self.resilience = ResilienceRuntime(
            faults=fault_injector,
            retry_policy=retry_policy,
            journal=journal,
            # Plans are cached by (catalog, store) version; a health
            # transition changes what the degraded guard answers, so it bumps
            # the model store version to invalidate affected plans — keeping
            # health checks off the per-query hot path.
            on_health_transition=weak_callback(self._on_health_transition),
        )
        self.database = Database(IOModel(accountant=accountant, metrics=metrics, tracer=tracer))
        self.models = ModelStore(journal=journal)
        # Every capture path funnels through the harvester; the guard there
        # (and on maintenance refits) blocks fits over tables whose cold rows
        # moved to the archive tier.
        refit_guard = weak_callback(self._archive_refit_reason)
        self.harvester = ModelHarvester(
            self.database,
            self.models,
            quality_policy,
            journal=journal,
            fit_guard=refit_guard,
            faults=fault_injector,
        )
        self.approx = ApproximateQueryEngine(
            self.database,
            self.models,
            use_legal_filter=use_legal_filter,
            tracer=tracer,
            grouped_model_provider=weak_callback(self._grouped_model_provider),
        )
        self.lifecycle = ModelLifecycleManager(self.database, self.models, self.harvester)
        self.zero_io = ZeroIOScanner(self.database)
        self.ingestor = StreamIngestor(
            self.database,
            batch_size=ingest_batch_size,
            append=weak_callback(self._append),
            faults=fault_injector,
        )
        self.ingestor.add_listener(weak_callback(self._on_ingest_batch))
        self.maintenance = ModelMaintenancePolicy(
            self.database,
            self.models,
            self.harvester,
            self.lifecycle,
            journal=journal,
            resilience=self.resilience,
            refit_guard=refit_guard,
        )
        # The unified planner cost-routes every statement between the
        # model-serving routes and the exact vectorized engine; its feedback
        # verifier audits a sample of served answers against exact execution.
        feedback = ObservedErrorFeedback(
            self.database,
            self.models,
            quality_policy=self.harvester.policy,
            sample_fraction=verify_sample_fraction,
            seed=verify_seed,
            faults=fault_injector,
        )
        self.planner = UnifiedPlanner(
            self.database,
            self.models,
            self.approx,
            feedback,
            archive_guard=weak_callback(self._archive_blocking_reason),
            degraded_guard=weak_callback(self._degraded_reason),
        )
        # Partitioned parallel execution: tables with a committed partition
        # map run scan/filter/join/group-by per shard on a worker pool when
        # the planner's cost model says the dispatch pays; everything else
        # falls through to the standard root execution.
        # (A proxy: executor → engine → planner → database → executor would
        # otherwise be a cycle — and the reason the executor's strategy hook
        # is the one collaborator still assigned after construction.)
        pool = WorkerPool(journal=journal, metrics=metrics, faults=fault_injector)
        self.parallel = ParallelQueryEngine(
            self.database.catalog, weakref.proxy(self.planner), pool, tracer=tracer, metrics=metrics
        )
        self.database.executor.parallel = self.parallel
        # Durable storage is strictly opt-in: a directly constructed
        # LawsDatabase never touches disk.  ``LawsDatabase.open(path)``
        # attaches a DurableStore and the model-only archive tier.
        self.durable: DurableStore | None = None
        self.archive_tier: ArchiveTier | None = None
        self.last_recovery: RecoveryReport | None = None
        # Last, the observability hub: the collectors above bundled with the
        # self-observation loop, which needs the finished planner, the health
        # registry and this façade — adaptive cost calibration over traced
        # operator timings, declarative SLOs whose error-budget burn degrades
        # components through the health registry, and the flight recorder
        # streaming the system's own telemetry into reserved ``_telemetry_*``
        # tables via the real ingest path.
        self.obs = Observability(
            enabled=observability,
            metrics=metrics,
            journal=journal,
            tracer=tracer,
            compliance=ComplianceLedger(),
            slow_log=SlowQueryLog(slow_query_seconds, enabled=observability),
            calibration=CostCalibrator(
                self.planner, journal=journal, metrics=metrics, enabled=observability
            ),
            slo=SLOEngine(
                health=self.resilience.health,
                journal=journal,
                metrics=metrics,
                slos=default_slos(slow_query_seconds),
                enabled=observability,
            ),
            flight=FlightRecorder(self, enabled=observability),
        )

    # -- durable storage -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        rows_per_segment: int = 65536,
        fsync: bool = False,
        **kwargs: Any,
    ) -> "LawsDatabase":
        """Open (or create) a durable database rooted at ``path``.

        Recovery order: the last checkpoint's columnar snapshots are
        loaded, the WAL tail is replayed (torn or corrupted tails are
        truncated), and the model warehouse rehydrates every captured model
        with its staleness, observed-error evidence and the planner's cost
        calibration — so a reopened database cold-starts straight into
        model serving.  Constructor keyword arguments pass through to
        :class:`LawsDatabase`.
        """
        system = cls(**kwargs)
        # The store is born with the journal, metrics and resilience runtime:
        # the recovery event is recorded, unreadable artefacts quarantine
        # instead of blocking the open, and the outcome lands in
        # ``recovery_total``.  The archive tier is born with the store: its
        # directory, fault injector and redo log are the store's.
        system.durable = DurableStore(
            path,
            rows_per_segment=rows_per_segment,
            fsync=fsync,
            resilience=system.resilience,
            journal=system.obs.journal,
            metrics=system.obs.metrics,
        )
        system.archive_tier = ArchiveTier(system.database, system.durable)
        system.last_recovery = system.durable.recover(system)
        return system

    def checkpoint(self, flush_ingest: bool = True) -> CheckpointReport:
        """Snapshot tables, warehouse and calibration; reset the WAL.

        ``flush_ingest`` first flushes buffered stream rows so nothing the
        producer already handed over is invisible to the snapshot.
        """
        store = self._require_durable("checkpoint")
        if flush_ingest:
            self.ingestor.flush()
        return store.checkpoint(self)

    def close(self) -> None:
        """Detach the durable store (closing the WAL).  The in-memory
        database stays usable; further writes are no longer logged."""
        if self.durable is not None:
            self.durable.close()
            self.durable = None

    def __enter__(self) -> "LawsDatabase":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        # A clean exit persists everything; on an exception the WAL already
        # holds the acknowledged appends, so skip the (possibly failing)
        # checkpoint and keep the last consistent manifest.  close() runs
        # unconditionally — a failing exit checkpoint must still release
        # the WAL handle.
        if self.durable is not None:
            try:
                if exc_type is None:
                    self.checkpoint()
            finally:
                self.close()

    def _require_durable(self, operation: str) -> DurableStore:
        if self.durable is None:
            raise PersistenceError(
                f"{operation}() needs a durable store; construct the database "
                f"with LawsDatabase.open(path) — persistence is opt-in"
            )
        return self.durable

    # -- the model-only archive tier -------------------------------------------------

    def archive(self, table_name: str, predicate_sql: str) -> ArchiveReport:
        """Drop the raw rows matching ``predicate_sql`` to the archive tier.

        The rows move to durable archive segments; catalog statistics keep
        describing the full logical table, and queries that may touch the
        archived rows are served purely from warehouse models (or refused
        with an explicit reason when the accuracy contract cannot be met).
        """
        self._require_durable("archive")
        # The warehouse models about to serve in place of the raw rows must
        # be durable BEFORE the raw rows stop being: the archive record is
        # WAL-replayable immediately, but models only persist at
        # checkpoints — replaying an archive with no models behind it would
        # leave every non-disjoint query refusing until a manual recall.
        self.checkpoint()
        # The tier commits the move and its redo record as one critical section.
        report = self.archive_tier.archive(table_name, predicate_sql)
        self.obs.journal.record(
            "archive",
            table=table_name,
            predicate=predicate_sql,
            rows=report.rows_archived,
        )
        return report

    def recall_archive(self, table_name: str) -> int:
        """Load a table's archived segments back into memory."""
        self._require_durable("recall_archive")
        restored = self.archive_tier.recall(table_name)
        self.obs.journal.record("archive-recall", table=table_name, rows=restored)
        return restored

    # -- data management (delegated to the substrate) -----------------------------

    # Every durable mutation below is one ``catalog.writing()`` critical
    # section — apply, write the redo record, roll the catalog back if either
    # raised — followed, outside the lock, by the lifecycle notification.
    # WAL replay calls these same methods (the store's ``log_*`` are no-ops
    # until recovery finishes), so a recovered database is the live one.
    # Writes through ``self.database`` bypass all of it, by design.

    def create_table(self, name: str, schema: Schema) -> Table:
        return self.register_table(Table.empty(name, schema))

    def load_dict(self, name: str, data: Mapping[str, Sequence[Any]], schema: Schema | None = None) -> Table:
        return self.register_table(Table.from_dict(name, data, schema))

    def register_table(self, table: Table, replace: bool = False) -> Table:
        """Register ``table``; with ``replace`` every captured model of the
        table it replaces goes stale (§4.1) and its archived segments go."""
        with self.database.catalog.writing(table.name):
            registered = self.database.register_table(table, replace=replace)
            if self.durable is not None:
                self.durable.log_register_table(registered, replace=replace)
            if replace and self.archive_tier is not None:
                # Replacing a table replaces ALL of it: archived segments of the
                # old incarnation must not haunt the new one (phantom stats,
                # permanently blocked exact queries).
                self.archive_tier.drop(table.name)
        if replace:
            self.lifecycle.on_data_changed(table.name)
        return registered

    def drop_table(self, name: str) -> None:
        """Drop a table, retire its captured models, and log the drop.

        Dropping through this wrapper (not ``db.database.drop_table``)
        keeps the WAL consistent — an unlogged drop would be resurrected
        from the last snapshot on crash recovery.  Archived segments of the
        table are discarded with it (the rows belong to the table), so a
        recreated table of the same name starts clean.
        """
        with self.database.catalog.writing(name):
            self.database.drop_table(name)
            if self.durable is not None:
                self.durable.log_drop_table(name)
            if self.archive_tier is not None:
                self.archive_tier.drop(name)
        for model in self.models.models_for_table(name, include_unusable=True):
            if model.status != "retired":
                self.models.retire_model(model.model_id)

    def partition_table(
        self,
        name: str,
        partitions: int = 4,
        by: str | None = None,
        scheme: str | None = None,
    ) -> dict[str, Any]:
        """Commit a partition map for ``name``; queries fan out over it.

        ``scheme`` is ``"rows"`` (contiguous row ranges, no data movement —
        the default), ``"range"`` (physically re-cluster by sorting on
        ``by``, so shards — and the blocks a scan can skip — coincide with
        key ranges), or ``"hash"`` (re-cluster by a deterministic
        hash of ``by`` — co-locates equal keys for joins and DISTINCT).
        The re-clustering schemes rewrite the table (its captured models go
        stale); the map itself commits as table metadata under the catalog
        commit lock, so pinned snapshots keep seeing the map that matches
        their rows.  Appends stay cheap: rows past the map's ``built_rows``
        form an implicit tail shard until the next call.
        """
        scheme = scheme or ("range" if by is not None else "rows")
        if scheme in ("range", "hash") and by is None:
            raise ValueError(f"scheme {scheme!r} requires a partitioning column (by=...)")
        catalog = self.database.catalog
        # One lock across both commits, so no append lands between the
        # re-clustering and the map that describes it.
        with catalog.commit_lock:
            live = catalog.live_table(name)
            if scheme == "rows":
                table = live
            else:
                if scheme == "range":
                    order = range_partition_order(live, by)
                elif scheme == "hash":
                    order, _ = hash_partition_order(live, by, partitions)
                else:
                    raise ValueError(f"unknown partitioning scheme {scheme!r}")
                table = self.register_table(live.take(order), replace=True)
            payload = build_partition_map(
                table.pinned(),
                partitions,
                scheme={"kind": scheme, "partitions": partitions, "column": by},
            )
            with catalog.writing(name):
                catalog.set_table_meta(name, PARTITION_META_KEY, payload)
                if self.durable is not None:
                    self.durable.log_partition_map(name, payload)
        self.obs.journal.record(
            "partition-map",
            table=name,
            scheme=scheme,
            partitions=len(payload["partitions"]),
            rows=payload["built_rows"],
        )
        return payload

    def partition_map(self, name: str) -> dict[str, Any] | None:
        """The committed partition map of ``name`` (pin-aware), if any."""
        return self.database.catalog.table_meta(name, PARTITION_META_KEY)

    def table(self, name: str) -> Table:
        return self.database.table(name)

    def table_names(self) -> list[str]:
        return self.database.table_names()

    def insert_rows(self, name: str, rows: Sequence[Sequence[Any]]) -> None:
        """Append rows; captured models of the table become stale (§4.1)."""
        appended_from = self._append(name, rows)
        self.lifecycle.on_data_changed(name, appended_from=appended_from)

    def _append(self, name: str, rows: Sequence[Sequence[Any]]) -> int:
        """The durable append ``insert_rows()`` and every ingest flush commit
        through; returns the row the batch starts at.  A row the substrate
        rejected never reaches the redo log, and a row whose redo record
        failed does not stay in memory."""
        catalog = self.database.catalog
        with catalog.writing(name) as appended_from:
            # Sampled before the append: statistics that are fresh here
            # describe exactly the pre-append rows, so the batch's own can be
            # merged in and no later reader rescans the whole table.  WAL
            # replay comes through here too — a reopened store keeps the
            # statistics its checkpoint recorded fresh across the tail.
            stats_were_clean = catalog.stats_clean(name)
            self.database.insert_rows(name, rows)
            if self.durable is not None:
                self.durable.log_append(name, rows)
            if stats_were_clean:
                table = catalog.live_table(name)
                batch = table.slice(appended_from, table.num_rows)
                catalog.merge_stats_delta(name, compute_table_stats(batch))
        return appended_from

    # -- streaming ingestion & online maintenance -----------------------------------

    def ingest(
        self,
        table_name: str,
        rows: Sequence[Sequence[Any]] | Mapping[str, Sequence[Any]],
        flush: bool = False,
    ) -> list[IngestBatch]:
        """Submit rows to the streaming append path.

        Rows are buffered and appended in batches of ``ingest_batch_size``;
        every flushed batch marks the table's models stale and feeds the
        drift monitors registered with :meth:`watch`.  ``flush=True`` forces
        any remainder out immediately.
        """
        batches = self.ingestor.submit(table_name, rows)
        if flush:
            batches.extend(self.ingestor.flush(table_name))
        return batches

    def flush_ingest(self, table_name: str | None = None) -> list[IngestBatch]:
        """Flush buffered stream rows (one table, or all)."""
        return self.ingestor.flush(table_name)

    def ingest_stats(self, table_name: str) -> IngestStats:
        """Per-table ingest throughput accounting."""
        return self.ingestor.stats(table_name)

    def watch(
        self, table_name: str, output_column: str, order_column: str | None = None
    ) -> WatchTarget:
        """Monitor the captured model of a target column under ingestion."""
        return self.maintenance.watch(table_name, output_column, order_column=order_column)

    def maintain(self) -> MaintenanceReport:
        """One online-maintenance tick: re-validate quiet models, segment and
        refit drifted ones (change-point driven), superseding stale models in
        the store instead of leaving them benched."""
        return self.maintenance.maintain()

    def _on_ingest_batch(self, batch: IngestBatch) -> None:
        self.obs.metrics.inc("ingest_rows_total", len(batch.rows), table=batch.table_name)
        # An append's start row exempts partition models wholly below it —
        # only the shards the batch landed in go stale.
        self.lifecycle.on_data_changed(batch.table_name, appended_from=batch.start_row)
        self.maintenance.on_batch(batch)

    # -- SQL: the unified entry point ------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin a consistent view of the catalog and the model warehouse.

        The returned :class:`Snapshot` can be handed to :meth:`query` so a
        *sequence* of queries observes one committed state even while
        concurrent ``ingest()`` / ``maintain()`` / ``archive()`` commits
        land between them.  Individual queries already pin their own
        snapshot implicitly.
        """
        return self.planner.snapshot()

    def query(
        self,
        sql: str,
        contract: AccuracyContract | None = None,
        snapshot: Snapshot | None = None,
    ) -> PlannedAnswer:
        """Execute SQL through the staged query pipeline.

        This is the single entry point (:mod:`repro.core.pipeline`: parse →
        pin → plan → execute → verify → account): the planner cost-routes
        every statement between the captured-model serving routes and the
        exact vectorized engine, honouring the :class:`AccuracyContract`
        (error budget, deadline, mode).  A sampled fraction of model-served
        answers is verified against exact execution; the observed errors
        feed model quality and demote models the planner caught lying, so
        the maintenance loop refits them.  DDL/DML commits with its redo
        record and marks the table's captured models stale.

        Every query executes against a pinned snapshot — its own by
        default, or an explicitly held one passed as ``snapshot`` (see
        :meth:`snapshot`) for repeatable reads across statements.
        """
        return run_query(self, sql, contract, snapshot)[0]

    def explain(self, sql: str, contract: AccuracyContract | None = None) -> str:
        """The unified plan for ``sql``: candidate routes, predicted cost
        and predicted error per node, and the contract-driven decision —
        without executing anything or mutating the model store."""
        return self.planner.explain(sql, contract)

    def plan(
        self, sql: str, contract: AccuracyContract | None = None
    ) -> UnifiedPlan:
        """The :class:`UnifiedPlan` for ``sql`` (side-effect free)."""
        return self.planner.plan(sql, contract, for_execution=False)

    # -- observability -----------------------------------------------------------------

    def explain_analyze(
        self, sql: str, contract: AccuracyContract | None = None
    ) -> str:
        """Execute ``sql`` under tracing and render the span tree.

        Unlike :meth:`explain` this *runs* the query: every stage's wall
        time and simulated page IO, the route decision (with the rejected
        candidates and their predicted cost/error), per-operator execution
        spans, and — for model routes — the predicted vs. observed relative
        error (verification is forced, not sampled).  A leading ``EXPLAIN
        ANALYZE`` prefix in the SQL text is accepted and stripped.
        """
        from dataclasses import replace

        stripped = sql.strip()
        if stripped[:15].upper() == "EXPLAIN ANALYZE":
            stripped = stripped[15:].strip()
        contract = replace(contract or AccuracyContract(), verify_fraction=1.0)
        # The tree rendered is the root span this call opened, not whichever
        # trace finished last.  On an ``observability=False`` database the
        # trace is forced for this one query on this thread and nothing else
        # is switched on — no metric, SLO observation or flight record is left
        # behind, and no other thread's query is traced.
        answer, trace = run_query(self, stripped, contract, force_trace=True)
        return "\n".join(
            [
                f"EXPLAIN ANALYZE: {stripped}",
                f"Route: {answer.route_taken} — {answer.plan.reason}",
                trace.to_text(),
            ]
        )

    def last_trace(self) -> Span | None:
        """The span tree of the most recently traced query."""
        return self.obs.tracer.last_trace()

    def metrics(self) -> dict[str, Any]:
        """A stable snapshot of every counter, gauge and histogram.

        Derived gauges — plan-cache hit/miss stats of both caching layers,
        storage savings, model population by status, cumulative simulated
        IO — are refreshed on every call, so the snapshot is always
        current without per-query bookkeeping.
        """
        self._refresh_gauges()
        return self.obs.metrics.snapshot()

    def metrics_json(self, indent: int | None = 2) -> str:
        self._refresh_gauges()
        return self.obs.metrics.to_json(indent=indent)

    def metrics_prometheus(self) -> str:
        """The metrics snapshot in the Prometheus text exposition format."""
        self._refresh_gauges()
        return self.obs.metrics.to_prometheus_text()

    def _refresh_gauges(self) -> None:
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        for layer, info in (
            ("sql", self.database.plan_cache_info()),
            ("planner", self.planner.plan_cache_info()),
        ):
            for key, value in info.items():
                metrics.set_gauge(f"plan_cache_{key}", value, layer=layer)
        report = self.storage_report()
        for name, entry in report["tables"].items():
            for key, value in entry.items():
                metrics.set_gauge(f"storage_{key}", value, table=name)
        metrics.set_gauge("storage_total_raw_bytes", report["total_raw_bytes"])
        metrics.set_gauge("storage_total_model_bytes", report["total_model_bytes"])
        metrics.set_gauge(
            "storage_total_archived_bytes", report["total_archived_bytes"]
        )
        status_counts: dict[str, int] = {}
        for model in self.models.all_models():
            status_counts[model.status] = status_counts.get(model.status, 0) + 1
        for status, count in status_counts.items():
            metrics.set_gauge("models", count, status=status)
        for key, value in self.database.io_snapshot().items():
            metrics.set_gauge(f"io_{key}", value)
        metrics.set_gauge("slow_queries", self.obs.slow_log.total)

    def events(
        self, kind: str | None = None, limit: int | None = None, **field_filters: Any
    ) -> list[Event]:
        """Lifecycle events from the journal (drift, changepoints, model
        captures/demotions/refits, checkpoint/recovery/archive operations)."""
        return self.obs.journal.events(kind=kind, limit=limit, **field_filters)

    def slow_queries(self, limit: int | None = None) -> list[SlowQuery]:
        """Queries that exceeded the slow-query wall-time threshold."""
        return self.obs.slow_log.entries(limit=limit)

    def compliance_report(self) -> dict[str, Any]:
        """Per-route and per-model predicted-vs-observed error accounting."""
        return self.obs.compliance.report()

    def slo_report(self) -> dict[str, Any]:
        """Current SLO burn-rate evaluation and latency percentiles."""
        return self.obs.slo.report()

    def calibration_report(self) -> dict[str, Any]:
        """Cost-model provenance and the adaptive calibrator's estimates."""
        return self.obs.calibration.report()

    def flush_telemetry(self) -> int:
        """Force the flight recorder's pending records through ingest."""
        return self.obs.flight.flush()

    def export_traces_otlp(self) -> dict[str, Any]:
        """Completed traces as an OTLP/JSON ``ExportTraceServiceRequest``."""
        return spans_to_otlp(self.obs.tracer.traces())

    def ops_report(self) -> dict[str, Any]:
        """One JSON-serializable operational status document.

        Everything an operator (or the ``tools/repro_top.py`` dashboard, or
        the CI artifact upload) needs in one call: query counters by route,
        SLO burn rates with latency percentiles, cost-calibration
        provenance, the flight recorder's self-telemetry accounting,
        journal event totals (monotonic — these reconcile with the metrics
        counters), component health, plan-cache and storage figures.
        """
        self._refresh_gauges()
        metrics = self.obs.metrics

        def by_label(counter: str, label: str) -> dict[str, float]:
            return {
                dict(key).get(label, ""): value
                for key, value in metrics.counter_series(counter).items()
            }

        return {
            "queries": {
                "total": metrics.counter_total("queries_total"),
                "by_route": by_label("queries_total", "route"),
                "errors": metrics.counter_total("query_errors_total"),
                "fallbacks": metrics.counter_total("fallbacks_total"),
                "degraded": metrics.counter_total("degraded_answers_total"),
                "verified": metrics.counter_total("feedback_verifications_total"),
                "contract_violations": metrics.counter_total(
                    "contract_violations_total"
                ),
                "slow": self.obs.slow_log.total,
            },
            "slo": self.slo_report(),
            "calibration": self.calibration_report(),
            "flight": self.obs.flight.report(),
            "events": self.obs.journal.totals(),
            "health": self.health_report(),
            "plan_cache": {
                "sql": self.database.plan_cache_info(),
                "planner": self.planner.plan_cache_info(),
            },
            "storage": self.storage_report(),
            "compliance": self.compliance_report(),
        }

    # -- resilience --------------------------------------------------------------------

    def health_report(self) -> dict[str, Any]:
        """Component health, circuit breakers and quarantined artefacts."""
        return self.resilience.report()

    def quarantine_report(self) -> dict[str, Any]:
        """What recovery moved aside instead of failing the open."""
        # The store hangs its quarantine manager on the runtime when it opens.
        quarantine = self.resilience.quarantine
        return quarantine.report() if quarantine is not None else {"records": []}

    def acknowledge_degraded(self, component: str) -> None:
        """Operator acknowledgement: mark a failed/degraded component healthy.

        Quarantined artefacts stay journaled on disk for forensics; this
        only lifts the planner's degraded guard (e.g. after the lost rows
        were re-ingested or the loss was accepted).
        """
        self.resilience.health.mark_healthy(
            component, "operator acknowledged the degradation"
        )

    def _on_health_transition(self, name: str, previous: str, state: str) -> None:
        # Cached plans were costed against the old health state; the bump
        # invalidates them through the (sql, contract, versions) cache key.
        self.models._bump()

    def _degraded_reason(self, statement: SelectStatement) -> str | None:
        """Why ``statement`` cannot honestly run over the raw rows right now.

        A table whose snapshot segments were quarantined at recovery is
        FAILED: its surviving in-memory rows are incomplete, so exact
        execution would silently under-count.  Formatted as
        ``component — reason`` (the planner splits it back for the typed
        :class:`~repro.errors.DegradedServiceError`).
        """
        health = self.resilience.health
        for name in statement.table_names():
            component = f"table:{name}"
            if health.is_failed(component):
                reason = health.reason(component) or "snapshot segments quarantined"
                return f"{component} — {reason}"
        return None

    # -- model harvesting -----------------------------------------------------------------

    def strawman(self, table_name: str, predicate_sql: str | None = None) -> StrawmanFrame:
        """The user-facing proxy object whose fits are intercepted (Figure 2)."""
        # Validate eagerly so typos fail fast.
        self.database.table(table_name)
        return StrawmanFrame(self, table_name, predicate_sql)

    def fit(
        self,
        table_name: str,
        formula: str,
        group_by: str | list[str] | None = None,
        **kwargs: Any,
    ) -> HarvestReport:
        """Fit a model formula in-database and capture it."""
        return self.harvester.fit_and_capture(table_name, formula, group_by=group_by, **kwargs)

    def fit_partitioned(
        self,
        table_name: str,
        formula: str,
        group_by: str | list[str] | None = None,
        **kwargs: Any,
    ) -> list[HarvestReport]:
        """Fit one model per partition of ``table_name`` (see
        :meth:`partition_table`); drift, demotion and refit then run per
        shard instead of staleness cascading across the whole table."""
        return self.harvester.fit_partitioned(table_name, formula, group_by=group_by, **kwargs)

    def ensure_grouped_model(
        self,
        table_name: str,
        output_column: str,
        group_columns: str | list[str],
        formula: str | None = None,
    ) -> CapturedModel | None:
        """Harvest (or return) a grouped model for GROUP BY answering."""
        if isinstance(group_columns, str):
            group_columns = [group_columns]
        return self.harvester.ensure_grouped(
            table_name, output_column, tuple(group_columns), formula=formula
        )

    def captured_models(self, table_name: str | None = None) -> list[CapturedModel]:
        if table_name is None:
            return self.models.all_models()
        return self.models.models_for_table(table_name, include_unusable=True)

    def best_model(self, table_name: str, output_column: str) -> CapturedModel:
        # Stale models stay servable (deprioritized behind active ones) so
        # the window between an ingest batch and the next maintain() tick
        # does not break model-backed features.
        return self.models.best_model(table_name, output_column, include_stale=True)

    # -- storage optimisation ------------------------------------------------------------------

    def compress_table(
        self,
        table_name: str,
        model: CapturedModel | None = None,
        quantisation_step: float = 0.0,
    ) -> CompressedTable:
        """Semantic compression of a table using a captured model (§4.1)."""
        table = self.database.table(table_name)
        if model is None:
            model = self._any_model_for(table_name)
        compressor = ModelCompressor(quantisation_step=quantisation_step)
        return compressor.compress(table, model)

    def compare_scan(self, table_name: str, output_column: str | None = None) -> ScanComparison:
        """Raw scan vs. zero-IO model scan for a modelled table (§4.1)."""
        model = (
            self.models.best_model(table_name, output_column, include_stale=True)
            if output_column is not None
            else self._any_model_for(table_name)
        )
        return self.zero_io.compare(model)

    def anomalies(
        self,
        table_name: str,
        output_column: str | None = None,
        metric: str = "relative_rse",
        mad_multiplier: float = 4.0,
    ) -> AnomalyReport:
        """Groups of a table that the captured model fails to explain (§4.2)."""
        model = (
            self.models.best_model(table_name, output_column, include_stale=True)
            if output_column is not None
            else self._any_model_for(table_name)
        )
        return detect_anomalies(model, metric=metric, mad_multiplier=mad_multiplier)

    # -- accounting -----------------------------------------------------------------------------

    def storage_report(self) -> dict[str, Any]:
        """Raw table bytes vs. captured-model bytes, per table and total.

        ``archived_bytes`` counts rows moved to the model-only tier: on
        disk, no longer in memory, served from warehouse models."""
        per_table: dict[str, dict[str, int]] = {}
        for name in self.database.table_names():
            raw = self.database.table(name).byte_size()
            model_bytes = sum(
                model.stored_byte_size() for model in self.models.models_for_table(name)
            )
            archived = (
                self.archive_tier.archived_bytes(name) if self.archive_tier is not None else 0
            )
            per_table[name] = {
                "raw_bytes": raw,
                "model_bytes": model_bytes,
                "archived_bytes": archived,
            }
        return {
            "tables": per_table,
            "total_raw_bytes": sum(entry["raw_bytes"] for entry in per_table.values()),
            "total_model_bytes": self.models.total_stored_bytes(),
            "total_archived_bytes": sum(
                entry["archived_bytes"] for entry in per_table.values()
            ),
        }

    def describe(self) -> str:
        return f"{self.database.describe()}\n\nCaptured models:\n{self.models.describe()}"

    # -- internals ---------------------------------------------------------------------------------

    def _archive_refit_reason(self, table_name: str) -> str | None:
        """Why refitting models of ``table_name`` is unsound right now.

        With raw segments in the model-only tier, a fresh fit would see only
        the (predicate-biased) live remainder yet be served as describing
        the full logical table — and the archive guard disables feedback
        verification, so nothing would ever catch the bias.
        """
        if self.archive_tier is not None and self.archive_tier.has_archived(table_name):
            rows = self.archive_tier.archived_rows(table_name)
            return (
                f"{rows} row(s) of {table_name!r} are archived; a refit would "
                f"fit only the live remainder — recall the archive first"
            )
        return None

    def _archive_blocking_reason(self, statement: SelectStatement) -> str | None:
        """The planner's archive guard: why ``statement`` cannot honestly run
        over the raw rows (None without an archive tier)."""
        if self.archive_tier is None:
            return None
        return self.archive_tier.blocking_reason(statement)

    def _grouped_model_provider(self, table_name: str, output_column: str, group_columns, formula=None):
        """The approximate engine's on-demand grouped harvest — declined over
        telemetry tables and over tables with archived rows."""
        if is_telemetry_table(table_name):
            # No auto-harvest over the system's own telemetry: the flight
            # recorder owns its baselines, and a query-triggered fit here
            # would mint models (and journal events) as a side effect of
            # merely reading telemetry.
            return None
        if self._archive_refit_reason(table_name) is not None:
            # The live remainder is predicate-biased; never fit against it.
            return None
        return self.harvester.ensure_grouped(
            table_name, output_column, group_columns, formula=formula
        )

    def _any_model_for(self, table_name: str) -> CapturedModel:
        # include_stale: during continuous ingestion a stale (deprioritized)
        # model still beats failing.
        return self.models.best_model_for_table(table_name, include_stale=True)
