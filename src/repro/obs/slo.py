"""Declarative SLOs with multi-window error-budget burn-rate alerting.

An :class:`SLO` declares an objective over a per-query good/bad signal:

* ``latency`` — a query is bad when its wall time exceeds
  ``threshold_seconds`` (p50/p99 percentiles are reported alongside);
* ``compliance`` — a *verified* query is bad when its observed relative
  error violated the contract's budget (the planner's sampled audit);
* ``degraded`` — a query is bad when it was served from surviving models
  while a needed component was failed/quarantined.

The error budget is ``1 - objective``.  Burn rate over a window is the
fraction of bad events in that window divided by the budget — burn 1.0
spends the budget exactly at the objective's rate; burn 14 exhausts a
30-day budget in ~2 days.  Each SLO is evaluated over two windows (the
SRE-style multiwindow alert): a *fast* window with a high threshold that
catches cliffs within minutes, and a *slow* window with a low threshold
that catches sustained simmer.  When either window's burn crosses its
threshold the SLO alerts: the breach is journaled (``slo-burn``) and the
component ``slo:<name>`` is degraded in the PR-8 health registry — which
bumps the model-store version, so cached plans are re-costed and the
degradation is visible to ``health_report()`` consumers.  Recovery marks
the component healthy again (``slo-recovered``).

The clock is injectable so burn windows are testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .events import EventJournal
from .metrics import MetricsRegistry

__all__ = ["SLO", "SLOEngine", "DEFAULT_SLOS", "default_slos"]


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective."""

    name: str
    #: "latency" | "compliance" | "degraded"
    kind: str
    #: Target good fraction (e.g. 0.99 → a 1% error budget).
    objective: float
    #: Latency SLOs only: wall time above this is a bad event.
    threshold_seconds: float | None = None
    fast_window_seconds: float = 300.0
    fast_burn_threshold: float = 14.0
    slow_window_seconds: float = 3600.0
    slow_burn_threshold: float = 6.0
    #: Minimum events in a window before its burn rate is meaningful.
    min_events: int = 24

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"SLO {self.name!r}: objective must be in (0, 1)")
        if self.kind not in ("latency", "compliance", "degraded"):
            raise ValueError(f"SLO {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "latency" and self.threshold_seconds is None:
            raise ValueError(f"SLO {self.name!r}: latency SLOs need threshold_seconds")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


def default_slos(slow_query_seconds: float = 0.25) -> tuple[SLO, ...]:
    """The objectives of a ``LawsDatabase``: p99-style latency under the
    slow-query threshold, contract compliance of verified answers, and a cap
    on disclosed-degraded serving."""
    return (
        SLO(name="latency", kind="latency", objective=0.99, threshold_seconds=slow_query_seconds),
        SLO(name="compliance", kind="compliance", objective=0.95),
        SLO(name="degraded-serving", kind="degraded", objective=0.99),
    )


DEFAULT_SLOS = default_slos()


class _SLOState:
    """Mutable tracking state behind one declared SLO."""

    __slots__ = ("slo", "events", "alerting", "alert_window", "breaches")

    def __init__(self, slo: SLO, capacity: int) -> None:
        self.slo = slo
        #: (timestamp, bad) pairs, oldest first, bounded.
        self.events: deque[tuple[float, bool]] = deque(maxlen=capacity)
        self.alerting = False
        self.alert_window: str | None = None
        self.breaches = 0

    def window_stats(self, window_seconds: float, now: float) -> tuple[int, int]:
        cutoff = now - window_seconds
        total = bad = 0
        for timestamp, is_bad in reversed(self.events):
            if timestamp < cutoff:
                break
            total += 1
            if is_bad:
                bad += 1
        return total, bad


class SLOEngine:
    """Evaluates declared SLOs over the live query stream."""

    def __init__(
        self,
        health: Any,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
        slos: tuple[SLO, ...] | list[SLO] = DEFAULT_SLOS,
        clock: Callable[[], float] = time.time,
        capacity: int = 4096,
        evaluate_every: int = 8,
        enabled: bool = True,
    ) -> None:
        self.health = health
        self.journal = journal or EventJournal(enabled=False)
        self.metrics = metrics or MetricsRegistry(enabled=False)
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self.evaluate_every = evaluate_every
        self._states: dict[str, _SLOState] = {}
        self._latencies: deque[float] = deque(maxlen=capacity)
        self._observed = 0
        self._lock = threading.Lock()
        for slo in slos:
            self.define(slo)

    def define(self, slo: SLO) -> None:
        """Declare (or replace) one SLO; tracking starts empty."""
        with self._lock:
            self._states[slo.name] = _SLOState(slo, self.capacity)

    # -- observation ----------------------------------------------------------

    def observe_query(
        self,
        elapsed_seconds: float,
        degraded: bool = False,
        violated: bool | None = None,
    ) -> None:
        """Fold one served query into every SLO's event stream.

        ``violated`` is three-valued: None when the answer was not sampled
        for verification (compliance SLOs only count audited answers —
        unaudited ones are evidence of nothing).
        """
        if not self.enabled:
            return
        now = self.clock()
        with self._lock:
            self._observed += 1
            self._latencies.append(elapsed_seconds)
            for state in self._states.values():
                slo = state.slo
                if slo.kind == "latency":
                    state.events.append((now, elapsed_seconds > slo.threshold_seconds))
                elif slo.kind == "degraded":
                    state.events.append((now, degraded))
                elif violated is not None:  # compliance, audited answers only
                    state.events.append((now, violated))
            due = self._observed % self.evaluate_every == 0
        if due:
            self.evaluate()

    # -- evaluation -----------------------------------------------------------

    def evaluate(self) -> dict[str, Any]:
        """Re-evaluate every SLO's burn rates; fire/clear alerts; report."""
        now = self.clock()
        report: dict[str, Any] = {}
        transitions: list[tuple[SLO, bool, str | None, dict[str, Any]]] = []
        with self._lock:
            for name, state in self._states.items():
                slo = state.slo
                windows: dict[str, Any] = {}
                alerting_window: str | None = None
                for label, window_seconds, threshold in (
                    ("fast", slo.fast_window_seconds, slo.fast_burn_threshold),
                    ("slow", slo.slow_window_seconds, slo.slow_burn_threshold),
                ):
                    total, bad = state.window_stats(window_seconds, now)
                    bad_fraction = bad / total if total else 0.0
                    burn = bad_fraction / slo.error_budget if slo.error_budget > 0 else 0.0
                    breaching = total >= slo.min_events and burn >= threshold
                    windows[label] = {
                        "window_seconds": window_seconds,
                        "events": total,
                        "bad": bad,
                        "bad_fraction": bad_fraction,
                        "burn_rate": burn,
                        "burn_threshold": threshold,
                        "alerting": breaching,
                    }
                    if breaching and alerting_window is None:
                        alerting_window = label
                now_alerting = alerting_window is not None
                if now_alerting != state.alerting:
                    transitions.append((slo, now_alerting, alerting_window, windows))
                    state.alerting = now_alerting
                    state.alert_window = alerting_window
                    if now_alerting:
                        state.breaches += 1
                report[name] = {
                    "kind": slo.kind,
                    "objective": slo.objective,
                    "error_budget": slo.error_budget,
                    "alerting": now_alerting,
                    "alert_window": alerting_window,
                    "breaches": state.breaches,
                    "windows": windows,
                }
        # Side effects outside the lock: health/journal/metrics each take
        # their own locks, and holding ours across them invites ordering
        # deadlocks with concurrent observers.
        for slo, fired, window, windows in transitions:
            component = f"slo:{slo.name}"
            if fired:
                burn = windows[window]["burn_rate"]
                reason = (
                    f"error-budget burn {burn:.1f}x over the {window} window "
                    f"(objective {slo.objective:g})"
                )
                self.metrics.inc("slo_breaches_total", slo=slo.name, window=window)
                self.journal.record(
                    "slo-burn",
                    slo=slo.name,
                    window=window,
                    burn_rate=burn,
                    objective=slo.objective,
                )
                self.health.mark_degraded(component, reason)
            else:
                self.journal.record("slo-recovered", slo=slo.name)
                self.health.mark_healthy(component, "error-budget burn subsided")
        return report

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Current burn-rate evaluation plus latency percentiles."""
        evaluation = self.evaluate()
        with self._lock:
            latencies = sorted(self._latencies)
            observed = self._observed
        return {
            "observed_queries": observed,
            "latency_percentiles": {
                "p50": _percentile(latencies, 0.50),
                "p99": _percentile(latencies, 0.99),
            },
            "objectives": evaluation,
        }


def _percentile(ordered: list[float], fraction: float) -> float | None:
    if not ordered:
        return None
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]
