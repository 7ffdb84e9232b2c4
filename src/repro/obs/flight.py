"""The flight recorder: the system's own telemetry, dogfooded as data.

The paper's economics — models are a few KB and answer with zero raw IO —
apply to the system's *own* metrics series too.  Instead of exporting flat
snapshots, the flight recorder flushes per-query latency records, span-
derived per-operator timings and metrics-registry snapshots into reserved
``_telemetry_*`` tables **through the real streaming-ingest path**, so the
PR-1 machinery watches the system watch itself: a baseline model is fitted
over the query-latency series, the drift detector scores every flushed
batch, and a latency regression surfaces as the same journaled
``drift-detected`` event a drifting sensor table would produce.

Feedback-loop discipline: anything named ``_telemetry_*`` is excluded from
the harvester's auto-capture paths, from feedback verification sampling,
from the slow-query log and from the flight recorder itself (the planner
checks :func:`is_telemetry_table` via the plan's ``telemetry`` flag) — so
querying the telemetry warehouse can never generate more telemetry than it
reads, and a flush can never recursively observe itself.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import Any

__all__ = ["TELEMETRY_PREFIX", "FlightRecorder", "is_telemetry_table"]

#: Reserved table-name prefix for the system's own telemetry.
TELEMETRY_PREFIX = "_telemetry_"

#: The reserved telemetry tables and their schemas (name -> columns).
QUERY_TABLE = TELEMETRY_PREFIX + "queries"
OPERATOR_TABLE = TELEMETRY_PREFIX + "operators"
METRIC_TABLE = TELEMETRY_PREFIX + "metrics"


def is_telemetry_table(name: str | None) -> bool:
    """Whether ``name`` is a reserved self-telemetry table."""
    return bool(name) and name.startswith(TELEMETRY_PREFIX)


def _baseline_policy():
    """Baseline acceptance for telemetry series: a *flat* latency series is
    the healthy case, and a flat series has R² ≈ 0 by construction — the
    default quality gate would reject exactly the models we want.  What
    matters for drift detection is the fit-time residual scale (RSE), not
    explained variance, so the baseline fit is judged leniently.  (Imported
    lazily: ``repro.obs`` must not pull in ``repro.core`` at import time.)
    """
    from repro.core.quality import QualityPolicy

    return QualityPolicy(min_r_squared=-1.0, min_observations=16)


class FlightRecorder:
    """Streams the system's own telemetry into ``_telemetry_*`` tables."""

    def __init__(
        self,
        system: Any,
        flush_every: int = 64,
        baseline_min_rows: int = 64,
        capacity: int = 8192,
        enabled: bool = True,
    ) -> None:
        #: The owning :class:`~repro.core.system.LawsDatabase` façade — the
        #: recorder rides its real ingest/harvest/maintenance machinery.  A
        #: weak proxy: the façade owns the recorder, and a strong reference
        #: back would make every dropped database cyclic garbage.
        self.system = weakref.proxy(system)
        self.enabled = enabled
        #: Pending query records auto-flush through the ingest path once
        #: this many accumulate (0 disables auto-flush; call flush()).
        self.flush_every = flush_every
        self.baseline_min_rows = baseline_min_rows
        self._pending: deque[tuple[int, str, float, float]] = deque(maxlen=capacity)
        self._operator_pending: deque[tuple[int, str, float, float]] = deque(
            maxlen=capacity
        )
        self._seq = 0
        self._recorded = 0
        self._flushes = 0
        self._flushed_rows = 0
        self._baseline_model_id: int | None = None
        self._baseline_fitted = False
        self._watching = False
        self._lock = threading.Lock()
        #: Re-entrancy latch: a flush runs ingest listeners (lifecycle,
        #: drift scoring) that must never trigger another flush.
        self._flushing = False

    # -- recording (the per-query hot path) -----------------------------------

    def on_query(self, answer: Any, root: Any, elapsed_seconds: float) -> None:
        """Record one served query (called from the pipeline's account stage)."""
        if not self.enabled:
            return
        operators = [
            (span.name[3:], float(span.attributes.get("rows_out", 0) or 0), span.self_seconds)
            for span in root.walk()
            if span.name.startswith("op:")
        ]
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._recorded += 1
            self._pending.append(
                (seq, answer.route_taken, elapsed_seconds, float(answer.io.get("pages_read", 0.0)))
            )
            for name, rows, seconds in operators:
                self._operator_pending.append((seq, name, rows, seconds))
            due = (
                self.flush_every > 0
                and len(self._pending) >= self.flush_every
                and not self._flushing
            )
        if due:
            self.flush()

    def record_query(
        self, route: str, elapsed_seconds: float, pages_read: float = 0.0
    ) -> None:
        """Record a synthetic query observation (test/ops seam)."""
        if not self.enabled:
            return
        with self._lock:
            self._seq += 1
            self._recorded += 1
            self._pending.append((self._seq, route, elapsed_seconds, pages_read))

    # -- flushing (the real streaming-ingest path) ----------------------------

    def flush(self) -> int:
        """Drain pending records into the ``_telemetry_*`` tables.

        Every row goes through :class:`~repro.streaming.ingest.StreamIngestor`
        — the same batched, WAL-framed, listener-notifying append path user
        data takes — so telemetry batches feed the registered drift monitor
        exactly like sensor batches would.  Returns the rows ingested.
        """
        if not self.enabled:
            return 0
        with self._lock:
            if self._flushing:
                return 0
            self._flushing = True
            queries = list(self._pending)
            self._pending.clear()
            operators = list(self._operator_pending)
            self._operator_pending.clear()
        try:
            rows = self._ingest(queries, operators)
            with self._lock:
                self._flushes += 1
                self._flushed_rows += rows
            self._ensure_baseline()
            return rows
        finally:
            with self._lock:
                self._flushing = False

    def _ingest(self, queries: list[tuple], operators: list[tuple]) -> int:
        # With no queries pending an explicit flush still writes a metrics
        # snapshot.
        system = self.system
        self._ensure_tables()
        ingested = 0
        if queries:
            system.ingestor.submit(
                QUERY_TABLE,
                [
                    (seq, route, elapsed * 1e6, pages)
                    for seq, route, elapsed, pages in queries
                ],
            )
            ingested += len(queries)
        if operators:
            system.ingestor.submit(
                OPERATOR_TABLE,
                [(seq, name, rows, seconds * 1e6) for seq, name, rows, seconds in operators],
            )
            ingested += len(operators)
        metric_rows = self._metric_rows()
        if metric_rows:
            system.ingestor.submit(METRIC_TABLE, metric_rows)
            ingested += len(metric_rows)
        # Telemetry must not sit invisible in the ingest buffer until
        # unrelated traffic tops up a batch: force the remainder out so the
        # drift monitor scores what was just recorded.
        for table in (QUERY_TABLE, OPERATOR_TABLE, METRIC_TABLE):
            system.ingestor.flush(table)
        return ingested

    def _metric_rows(self) -> list[tuple]:
        metrics = self.system.obs.metrics
        if not metrics.enabled:
            return []
        with self._lock:
            self._seq += 1
            seq = self._seq
        rows = []
        for name, series in metrics.snapshot()["counters"].items():
            for entry in series:
                label = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                rows.append((seq, name, label, float(entry["value"])))
        return rows

    def _ensure_tables(self) -> None:
        from repro.db.schema import Schema
        from repro.db.types import DataType

        system = self.system
        for name, columns in (
            (
                QUERY_TABLE,
                [
                    ("seq", DataType.INT64),
                    ("route", DataType.STRING),
                    ("elapsed_us", DataType.FLOAT64),
                    ("pages_read", DataType.FLOAT64),
                ],
            ),
            (
                OPERATOR_TABLE,
                [
                    ("seq", DataType.INT64),
                    ("operator", DataType.STRING),
                    ("rows_out", DataType.FLOAT64),
                    ("elapsed_us", DataType.FLOAT64),
                ],
            ),
            (
                METRIC_TABLE,
                [
                    ("seq", DataType.INT64),
                    ("metric", DataType.STRING),
                    ("labels", DataType.STRING),
                    ("value", DataType.FLOAT64),
                ],
            ),
        ):
            if not system.database.has_table(name):
                system.create_table(name, Schema.from_pairs(columns))

    # -- the self-watching baseline -------------------------------------------

    def _ensure_baseline(self) -> None:
        """Fit the latency baseline and register the drift watch, once.

        The baseline models ``elapsed_us ~ linear(seq)`` over the query
        table: for a healthy steady state the law is flat noise around the
        typical latency, and its fit-time RSE anchors the residual drift
        detector — a latency regression inflates residuals past the
        multiplier and journals ``drift-detected`` like any drifting table.
        """
        with self._lock:
            if self._baseline_fitted:
                return
        system = self.system
        if not system.database.has_table(QUERY_TABLE):
            return
        if system.database.table(QUERY_TABLE).num_rows < self.baseline_min_rows:
            return
        report = system.harvester.fit_and_capture(
            QUERY_TABLE, "elapsed_us ~ linear(seq)", policy=_baseline_policy()
        )
        if not report.accepted:  # pragma: no cover - lenient policy accepts
            return
        report.model.metadata["telemetry_baseline"] = True
        try:
            system.maintenance.watch(QUERY_TABLE, "elapsed_us", order_column="seq")
            watching = True
        except Exception:
            # A perfectly flat series has RSE 0 and cannot anchor a residual
            # detector.  Keep the baseline (so we do not refit on every
            # flush); the watch is simply not armed.
            watching = False
        with self._lock:
            self._baseline_model_id = report.model.model_id
            self._watching = watching
            self._baseline_fitted = True

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "recorded_queries": self._recorded,
                "pending_queries": len(self._pending),
                "pending_operator_rows": len(self._operator_pending),
                "flushes": self._flushes,
                "flushed_rows": self._flushed_rows,
                "baseline_model_id": self._baseline_model_id,
                "watching_latency_drift": self._watching,
            }
