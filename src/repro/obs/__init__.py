"""Observability: query-lifecycle tracing, metrics, and the event journal.

See the README's "Observability" section for the trace anatomy, the
metrics catalog, and exporter usage.
"""

from .calibration import CostCalibrator
from .events import ComplianceLedger, Event, EventJournal
from .flight import TELEMETRY_PREFIX, FlightRecorder, is_telemetry_table
from .hub import Observability, normalize_reason
from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from .otlp import spans_to_otlp
from .slo import DEFAULT_SLOS, SLO, SLOEngine
from .slowlog import SlowQuery, SlowQueryLog
from .trace import Span, Tracer

__all__ = [
    "ComplianceLedger",
    "CostCalibrator",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SLOS",
    "Event",
    "EventJournal",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SLO",
    "SLOEngine",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "TELEMETRY_PREFIX",
    "Tracer",
    "is_telemetry_table",
    "normalize_reason",
    "spans_to_otlp",
]
