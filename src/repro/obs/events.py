"""The event journal and the contract-compliance ledger.

The journal is the system's flight recorder: drift detections, change
points, model captures/demotions/refits/supersedes, checkpoint and
WAL-replay operations, archive moves — everything that used to be computed
and thrown away becomes a queryable :class:`Event`.

The :class:`ComplianceLedger` is the accuracy-contract accounting the
paper's serving story needs: per route, how often answers were served,
what error the planner *predicted*, what the sampled verification
*observed*, and how often the observation violated the caller's error
budget — plus the same evidence per model, so "which models are lying and
how often" is a direct lookup.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = ["Event", "EventJournal", "ComplianceLedger"]


@dataclass(frozen=True)
class Event:
    """One recorded lifecycle event."""

    seq: int
    timestamp: float
    kind: str
    fields: Mapping[str, Any]

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.seq}] {self.kind}: {inner}"


class EventJournal:
    """A bounded in-memory journal of lifecycle events.

    Retention is a ring buffer (oldest events drop first) but the per-kind
    totals are monotonic, so counters survive eviction.  ``on_record`` is
    called with every recorded event (``LawsDatabase`` mirrors them into the
    ``events_total`` counter); None means nobody is listening.  A journal
    built with ``enabled=False`` records nothing — what a component reports
    to when it was handed no journal of its owner's.
    """

    def __init__(
        self,
        capacity: int = 2048,
        *,
        enabled: bool = True,
        on_record: Callable[[Event], None] | None = None,
    ) -> None:
        self.capacity = capacity
        self.enabled = enabled
        self.on_record = on_record
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._totals: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, kind: str, **fields: Any) -> Event | None:
        if not self.enabled:
            return None
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, timestamp=time.time(), kind=kind, fields=fields)
            self._events.append(event)
            self._totals[kind] = self._totals.get(kind, 0) + 1
        # The hook runs outside the lock: it mirrors into the metrics registry,
        # which has its own lock, and holding both invites ordering deadlocks.
        if self.on_record is not None:
            self.on_record(event)
        return event

    def events(
        self, kind: str | None = None, limit: int | None = None, **field_filters: Any
    ) -> list[Event]:
        """Retained events, oldest first, optionally filtered by kind/fields."""
        with self._lock:
            retained = list(self._events)
        selected = [
            event
            for event in retained
            if (kind is None or event.kind == kind)
            and all(event.fields.get(k) == v for k, v in field_filters.items())
        ]
        if limit is not None:
            selected = selected[-limit:]
        return selected

    def totals(self) -> dict[str, int]:
        """Monotonic per-kind event counts (including evicted events)."""
        with self._lock:
            return dict(self._totals)


# ---------------------------------------------------------------------------
# Contract-compliance accounting
# ---------------------------------------------------------------------------


@dataclass
class _RouteLedger:
    served: int = 0
    verified: int = 0
    #: Answers served while a needed component was failed/quarantined —
    #: the resilience layer's disclosed-degradation accounting.
    degraded_served: int = 0
    predicted_error_sum: float = 0.0
    observed_error_sum: float = 0.0
    budget_checks: int = 0
    budget_violations: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "served": self.served,
            "verified": self.verified,
            "degraded_served": self.degraded_served,
            "mean_predicted_relative_error": (
                self.predicted_error_sum / self.served if self.served else None
            ),
            "mean_observed_relative_error": (
                self.observed_error_sum / self.verified if self.verified else None
            ),
            "budget_checks": self.budget_checks,
            "budget_violations": self.budget_violations,
        }


@dataclass
class _ModelLedger:
    served: int = 0
    verified: int = 0
    observed_error_sum: float = 0.0
    budget_violations: int = 0
    demotions: int = 0
    last_observed_relative_error: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "served": self.served,
            "verified": self.verified,
            "mean_observed_relative_error": (
                self.observed_error_sum / self.verified if self.verified else None
            ),
            "budget_violations": self.budget_violations,
            "demotions": self.demotions,
            "last_observed_relative_error": self.last_observed_relative_error,
        }


class ComplianceLedger:
    """Predicted-vs-observed error accounting, per route and per model."""

    def __init__(self) -> None:
        self._routes: dict[str, _RouteLedger] = {}
        self._models: dict[int, _ModelLedger] = {}
        self._lock = threading.Lock()

    def _route(self, route: str) -> _RouteLedger:
        ledger = self._routes.get(route)
        if ledger is None:
            ledger = self._routes[route] = _RouteLedger()
        return ledger

    def _model(self, model_id: int) -> _ModelLedger:
        ledger = self._models.get(model_id)
        if ledger is None:
            ledger = self._models[model_id] = _ModelLedger()
        return ledger

    def record_served(
        self,
        route: str,
        predicted_relative_error: float | None,
        model_ids: tuple[int, ...] | list[int] = (),
        degraded: bool = False,
    ) -> None:
        with self._lock:
            ledger = self._route(route)
            ledger.served += 1
            if degraded:
                ledger.degraded_served += 1
            if predicted_relative_error is not None and math.isfinite(
                predicted_relative_error
            ):
                ledger.predicted_error_sum += predicted_relative_error
            for model_id in model_ids:
                self._model(model_id).served += 1

    def record_verified(
        self,
        route: str,
        observed_relative_error: float,
        error_budget: float,
        model_ids: tuple[int, ...] | list[int] = (),
        demoted_ids: tuple[int, ...] | list[int] = (),
    ) -> bool:
        """Record one verification pass; returns True on a budget violation."""
        with self._lock:
            ledger = self._route(route)
            ledger.verified += 1
            ledger.observed_error_sum += observed_relative_error
            violated = False
            if math.isfinite(error_budget):
                ledger.budget_checks += 1
                violated = observed_relative_error > error_budget
                if violated:
                    ledger.budget_violations += 1
            for model_id in model_ids:
                model = self._model(model_id)
                model.verified += 1
                model.observed_error_sum += observed_relative_error
                model.last_observed_relative_error = observed_relative_error
                if violated:
                    model.budget_violations += 1
            for model_id in demoted_ids:
                self._model(model_id).demotions += 1
            return violated

    def report(self) -> dict[str, Any]:
        """Per-route and per-model compliance accounting, ready to print."""
        with self._lock:
            return {
                "routes": {
                    route: ledger.to_dict() for route, ledger in sorted(self._routes.items())
                },
                "models": {
                    model_id: ledger.to_dict()
                    for model_id, ledger in sorted(self._models.items())
                },
            }

    def lying_models(self, min_verified: int = 1) -> list[dict[str, Any]]:
        """Models with budget violations or demotions, worst offenders first."""
        offenders = []
        with self._lock:
            models = list(self._models.items())
        for model_id, ledger in models:
            if ledger.verified < min_verified:
                continue
            if ledger.budget_violations == 0 and ledger.demotions == 0:
                continue
            entry = {"model_id": model_id}
            entry.update(ledger.to_dict())
            offenders.append(entry)
        offenders.sort(
            key=lambda e: (e["budget_violations"], e["demotions"]), reverse=True
        )
        return offenders
