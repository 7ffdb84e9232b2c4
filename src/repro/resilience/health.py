"""Per-component health states and circuit breakers.

Components (``warehouse``, ``wal``, ``table:<name>``, ``verifier``,
``refit:<table>.<column>``) move ``healthy -> degraded -> failed`` as
faults accumulate and back to ``healthy`` when they recover or an
operator acknowledges a disclosed loss.  Transitions are journaled and
fan out through ``on_transition`` so the planner can invalidate cached
plans exactly when health changes (instead of checking health on the
hot path).

:class:`CircuitBreaker` guards repeatedly-failing operations (refit
storms, verifier failures): ``failure_threshold`` consecutive failures
open the circuit for ``cooldown_seconds``; after the cooldown one trial
call is allowed through (half-open) and its outcome closes or re-opens
the circuit.  The clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.events import EventJournal

__all__ = ["HEALTHY", "DEGRADED", "FAILED", "ComponentHealth", "HealthRegistry", "CircuitBreaker"]

HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"
_STATES = (HEALTHY, DEGRADED, FAILED)


@dataclass
class ComponentHealth:
    name: str
    state: str = HEALTHY
    reason: str = ""
    since: float = field(default_factory=time.time)


class HealthRegistry:
    """Thread-safe map of component name -> health state."""

    def __init__(
        self,
        *,
        journal: EventJournal | None = None,
        on_transition: Callable[[str, str, str], None] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._components: dict[str, ComponentHealth] = {}
        self.journal = journal or EventJournal(enabled=False)
        #: Called (without the lock held) after every state *transition* —
        #: ``LawsDatabase`` invalidates cached plans from it.  None: nobody
        #: is listening.
        self.on_transition = on_transition

    def set_state(self, name: str, state: str, reason: str = "") -> None:
        if state not in _STATES:
            raise ValueError(f"unknown health state {state!r}")
        with self._lock:
            component = self._components.get(name)
            previous = component.state if component is not None else HEALTHY
            if component is None:
                component = ComponentHealth(name=name)
                self._components[name] = component
            component.state = state
            component.reason = reason
            if previous != state:
                component.since = time.time()
        if previous != state:
            self.journal.record(
                "health-transition", component=name, state=state, was=previous, reason=reason
            )
            if self.on_transition is not None:
                self.on_transition(name, previous, state)

    def mark_degraded(self, name: str, reason: str) -> None:
        self.set_state(name, DEGRADED, reason)

    def mark_failed(self, name: str, reason: str) -> None:
        self.set_state(name, FAILED, reason)

    def mark_healthy(self, name: str, reason: str = "") -> None:
        self.set_state(name, HEALTHY, reason)

    def state(self, name: str) -> str:
        with self._lock:
            component = self._components.get(name)
            return component.state if component is not None else HEALTHY

    def reason(self, name: str) -> str:
        with self._lock:
            component = self._components.get(name)
            return component.reason if component is not None else ""

    def is_failed(self, name: str) -> bool:
        return self.state(name) == FAILED

    def failed_components(self) -> list[str]:
        with self._lock:
            return [name for name, c in self._components.items() if c.state == FAILED]

    def report(self) -> dict:
        with self._lock:
            return {
                name: {"state": c.state, "reason": c.reason, "since": c.since}
                for name, c in sorted(self._components.items())
            }


class CircuitBreaker:
    """Consecutive-failure breaker with cooldown and half-open trials."""

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        cooldown_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        health: HealthRegistry | None = None,
        journal: EventJournal | None = None,
    ) -> None:
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._half_open = False
        self.health = health
        self.journal = journal or EventJournal(enabled=False)

    @property
    def is_open(self) -> bool:
        with self._lock:
            return self._opened_at is not None and not self._cooldown_elapsed_locked()

    def allow(self) -> bool:
        """May the protected operation run now?  Half-open admits one trial."""
        with self._lock:
            if self._opened_at is None:
                return True
            if not self._cooldown_elapsed_locked():
                return False
            if self._half_open:
                return False
            self._half_open = True
            return True

    def record_success(self) -> None:
        with self._lock:
            was_open = self._opened_at is not None
            self._failures = 0
            self._opened_at = None
            self._half_open = False
        if was_open:
            self.journal.record("breaker-close", component=self.name)
            if self.health is not None:
                self.health.mark_healthy(self.name, "circuit closed after successful trial")

    def record_failure(self, reason: str = "") -> bool:
        """Count a failure; returns True when this failure opens the circuit."""
        with self._lock:
            self._failures += 1
            reopened = self._half_open
            self._half_open = False
            should_open = reopened or self._failures >= self.failure_threshold
            newly_open = should_open and (self._opened_at is None or reopened)
            if should_open:
                self._opened_at = self._clock()
        if newly_open:
            self.journal.record(
                "breaker-open", component=self.name, failures=self._failures, reason=reason
            )
            if self.health is not None:
                self.health.mark_degraded(self.name, f"circuit open: {reason}" if reason else "circuit open")
        return newly_open

    def _cooldown_elapsed_locked(self) -> bool:
        return self._opened_at is not None and (self._clock() - self._opened_at) >= self.cooldown_seconds
