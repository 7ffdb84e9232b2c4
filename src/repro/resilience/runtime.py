"""The resilience runtime bundle :class:`~repro.core.system.LawsDatabase` builds.

One object carries everything the production layers share: the (optional)
fault injector, the retrier, the health registry and the named circuit
breakers.  It is constructed with the journal its members report to and
hands it over as it builds each member — there is no second step that
attaches it.  The quarantine manager belongs to the durable store (it is
rooted at the store directory), which hangs it here when it is constructed
so operator reports have one place to look.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.events import EventJournal

from .faults import FaultInjector
from .health import CircuitBreaker, HealthRegistry
from .quarantine import QuarantineManager
from .retry import Retrier, RetryPolicy

__all__ = ["ResilienceRuntime"]


class ResilienceRuntime:
    """Shared resilience state: faults (opt-in), retry, health, breakers."""

    #: Consecutive failures that open a breaker, and how long it stays open.
    breaker_failure_threshold = 3
    breaker_cooldown_seconds = 60.0

    def __init__(
        self,
        *,
        faults: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        journal: EventJournal,
        on_health_transition: Callable[[str, str, str], None],
    ) -> None:
        #: None = unarmed: every fault point is one ``is not None`` check.
        self.faults = faults
        self.journal = journal
        # Under an armed injector retry backoff does not sleep, so chaos
        # schedules with latency faults stay fast; production (no injector)
        # sleeps for real.
        sleep = (lambda _s: None) if faults is not None else time.sleep
        self.retrier = Retrier(retry_policy, sleep=sleep, journal=journal)
        self.health = HealthRegistry(journal=journal, on_transition=on_health_transition)
        self._breakers: dict[str, CircuitBreaker] = {}
        #: The durable store's quarantine manager, once a store was opened —
        #: assigned by the store, not passed here: it is rooted at a store
        #: directory that a memory-only database never has.
        self.quarantine: QuarantineManager | None = None

    def breaker(self, name: str) -> CircuitBreaker:
        """Get-or-create the named circuit breaker."""
        existing = self._breakers.get(name)
        if existing is not None:
            return existing
        breaker = CircuitBreaker(
            name,
            failure_threshold=self.breaker_failure_threshold,
            cooldown_seconds=self.breaker_cooldown_seconds,
            health=self.health,
            journal=self.journal,
        )
        return self._breakers.setdefault(name, breaker)

    def report(self) -> dict:
        """Operator-facing health + breaker + quarantine summary."""
        return {
            "health": self.health.report(),
            "breakers": {
                name: {"open": breaker.is_open}
                for name, breaker in sorted(self._breakers.items())
            },
            "quarantine": self.quarantine.report() if self.quarantine is not None else None,
            "faults_armed": self.faults is not None,
        }
