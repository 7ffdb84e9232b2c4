"""The observability hub: one object owning tracer, metrics, journal & co.

``LawsDatabase`` builds one :class:`Observability` per instance and hands
its parts to the layers that need them — the tracer to the planner and the
SQL executor, the journal to the maintenance loop / harvester / model
store / durable store, the metrics registry and compliance ledger to the
planner's post-query accounting.  Disabling the hub flips every part's
``enabled`` flag so instrumented hot paths degrade to single attribute
checks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.weakcall import weak_callback

from .events import ComplianceLedger, Event, EventJournal
from .metrics import MetricsRegistry
from .slowlog import SlowQueryLog
from .trace import Tracer

__all__ = ["Observability", "normalize_reason"]


def normalize_reason(reason: str | None) -> str:
    """Collapse a planner reason string to a stable, low-cardinality label.

    Planner reasons embed query-specific detail after the first ``;`` (and
    sometimes volatile numbers); metrics labels must stay bounded, so only
    the leading clause is kept, truncated to 80 characters.  The
    reconciliation test uses the same helper to tally fallback reasons.
    """
    if not reason:
        return "unspecified"
    head = reason.split(";", 1)[0].strip()
    return head[:80] if head else "unspecified"


class Observability:
    """Bundles the tracer, metrics registry, event journal, compliance
    ledger and slow-query log behind one enable/disable switch."""

    def __init__(
        self,
        io_snapshot: Callable[[], dict[str, float]] | None = None,
        enabled: bool = True,
        slow_query_seconds: float = 0.25,
        journal_capacity: int = 2048,
        keep_traces: int = 8,
        io_scope: Callable[[], Any] | None = None,
    ) -> None:
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(
            io_snapshot=io_snapshot,
            enabled=enabled,
            keep_traces=keep_traces,
            io_scope=io_scope,
        )
        self.journal = EventJournal(capacity=journal_capacity)
        self.journal.enabled = enabled
        self.journal.on_record = weak_callback(self._on_event)
        self.compliance = ComplianceLedger()
        self.slow_log = SlowQueryLog(threshold_seconds=slow_query_seconds)
        self.slow_log.enabled = enabled
        #: The self-observation trio, wired by ``LawsDatabase`` (they need
        #: the planner / health registry / façade, which outlive this hub's
        #: construction): :class:`repro.obs.calibration.CostCalibrator`,
        #: :class:`repro.obs.slo.SLOEngine`,
        #: :class:`repro.obs.flight.FlightRecorder`.  None means "not wired"
        #: — the pipeline's account stage checks before calling.
        self.calibration: Any = None
        self.slo: Any = None
        self.flight: Any = None
        self._enabled = enabled

    def _on_event(self, event: Event) -> None:
        self.metrics.inc("events_total", kind=event.kind)

    # -- switching -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True
        self.metrics.enabled = True
        self.tracer.enabled = True
        self.journal.enabled = True
        self.slow_log.enabled = True
        for part in (self.calibration, self.slo, self.flight):
            if part is not None:
                part.enabled = True

    def disable(self) -> None:
        """Turn every collector off; recorded data is retained, not erased."""
        self._enabled = False
        self.metrics.enabled = False
        self.tracer.enabled = False
        self.journal.enabled = False
        self.slow_log.enabled = False
        for part in (self.calibration, self.slo, self.flight):
            if part is not None:
                part.enabled = False

    # -- convenience -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return self.metrics.snapshot()
