"""The observability hub: the bundle of everything a database observes with.

One rule holds for every collector in this package: **it is always there,
and "off" is its own ``enabled`` flag** — ``record()`` / ``inc()`` /
``span()`` test that flag first, so a component calls the collector it was
constructed with unguarded and never asks whether one is wired.

``LawsDatabase`` creates the primitive collectors first (metrics registry,
event journal, tracer), passes them to the constructor of every layer that
reports, builds the self-observation trio (cost calibrator, SLO engine,
flight recorder) on the finished planner and health registry, and only then
assembles this hub from the parts.  The hub holds them — next to the
compliance ledger and slow-query log, which only the query pipeline reports
to — and answers ``enabled``, a fact fixed at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import CostCalibrator
from .events import ComplianceLedger, EventJournal
from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .slo import SLOEngine
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


@dataclass(frozen=True)
class Observability:
    """The collectors and the self-observation trio of one database."""

    #: Whether the database was constructed to observe itself.  Each part
    #: carries its own switch, set from the same value by whoever built it.
    enabled: bool
    metrics: MetricsRegistry
    journal: EventJournal
    tracer: Tracer
    compliance: ComplianceLedger
    slow_log: SlowQueryLog
    calibration: CostCalibrator
    slo: SLOEngine
    flight: FlightRecorder
