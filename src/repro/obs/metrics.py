"""Counters, gauges and latency histograms with a stable snapshot shape.

The registry is deliberately small: labelled counters (monotonic),
labelled gauges (set-to-value), and fixed-bucket histograms, with two
exporters — a JSON document and the Prometheus text exposition format.
When the registry is disabled every mutator returns after a single
attribute check, so instrumented hot paths stay within the overhead budget
``benchmarks/bench_observability.py`` gates.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Any

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Histogram bucket upper bounds (seconds) for query latency: 100µs .. 10s.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

#: Label-key type: a sorted tuple of (label name, label value) pairs.
LabelKey = tuple

#: ``# HELP`` text for the well-known metric names (Prometheus exposition
#: conformance: scrapers and ``promtool check metrics`` expect HELP next to
#: TYPE).  Unknown metrics fall back to a generic line.  Read-only.
_METRIC_HELP = {
    "queries_total": "Queries served, by route taken.",
    "query_seconds": "End-to-end query latency.",
    "query_errors_total": "Queries that raised, by exception type.",
    "pages_read_total": "Simulated pages read from base tables, by route.",
    "fallbacks_total": "Model routes that fell back to exact execution.",
    "degraded_answers_total": "Answers served while a needed component was degraded.",
    "feedback_verifications_total": "Sampled answers audited against exact execution.",
    "feedback_demotions_total": "Models demoted by observed-error feedback.",
    "contract_violations_total": "Audited answers whose observed error broke the contract.",
    "verifier_failures_total": "Feedback audits that raised (behind the breaker).",
    "events_total": "Journal events recorded, by kind.",
    "ingest_rows_total": "Rows committed through streaming ingestion.",
    "partitions_pruned_total": "Shards of a fanned-out query that no kept scan block reaches (they get no task).",
    "scan_blocks_pruned_total": "Scan blocks skipped because their min/max synopses rule out the WHERE clause.",
    "cost_recalibrations_total": "Adaptive cost-model recalibrations installed.",
    "slo_breaches_total": "SLO error-budget burn alerts fired, by objective and window.",
    "recovery_total": "Crash/fault recovery outcomes.",
}
_GENERIC_HELP = "repro metric (no description registered)."


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict[str, Any]:
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative.append([bound, running])
        cumulative.append(["+Inf", running + self.counts[-1]])
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """Labelled counters/gauges/histograms with JSON + Prometheus export."""

    def __init__(self, enabled: bool = True, namespace: str = "repro") -> None:
        self.enabled = enabled
        self.namespace = namespace
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, Histogram] = {}
        # One lock covers every series: concurrent queries all report into the
        # same registry, and unlocked `series[key] = series.get(key) + amount`
        # read-modify-writes would lose increments under interleaving.  The
        # disabled fast path stays a single attribute check before the lock.
        self._lock = threading.Lock()

    # -- mutators -------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, buckets: tuple[float, ...] | None = None) -> None:
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets or DEFAULT_LATENCY_BUCKETS)
            histogram.observe(value)

    def reset(self) -> None:
        """Zero every series (the registry stays enabled/disabled as it was)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- reads ----------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """One labelled counter's value (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum over every label combination of a counter."""
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    def counter_series(self, name: str) -> dict[LabelKey, float]:
        """Every labelled value of one counter (label-key tuple -> value).

        The chaos suite asserts on outcome distributions
        (``recovery_total{outcome=...}``) without enumerating labels upfront.
        """
        with self._lock:
            return dict(self._counters.get(name, {}))

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels))

    def snapshot(self) -> dict[str, Any]:
        """A stable plain-dict snapshot of every series."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, Any]:
        return {
            "counters": {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    # -- exporters ------------------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (one scrape's worth)."""
        with self._lock:
            return self._to_prometheus_text_locked()

    def _to_prometheus_text_locked(self) -> str:
        lines: list[str] = []
        for name, series in sorted(self._counters.items()):
            metric = f"{self.namespace}_{name}"
            lines.append(f"# HELP {metric} {_help_text(name)}")
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(series.items()):
                lines.append(f"{metric}{_format_labels(key)} {_format_value(value)}")
        for name, series in sorted(self._gauges.items()):
            metric = f"{self.namespace}_{name}"
            lines.append(f"# HELP {metric} {_help_text(name)}")
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(series.items()):
                lines.append(f"{metric}{_format_labels(key)} {_format_value(value)}")
        for name, histogram in sorted(self._histograms.items()):
            metric = f"{self.namespace}_{name}"
            lines.append(f"# HELP {metric} {_help_text(name)}")
            lines.append(f"# TYPE {metric} histogram")
            running = 0
            for bound, count in zip(histogram.buckets, histogram.counts):
                running += count
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {running}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_format_value(histogram.sum)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def _label_key(labels: dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _help_text(name: str) -> str:
    # HELP text escaping differs from label escaping: only backslash and
    # newline (quotes are legal in HELP).
    text = _METRIC_HELP.get(name, _GENERIC_HELP)
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
