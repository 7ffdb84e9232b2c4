"""The resilience runtime bundle wired into :class:`~repro.core.system.LawsDatabase`.

One object carries everything the production layers share: the (optional)
fault injector, the retrier, the health registry and the named circuit
breakers.  The quarantine manager belongs to the durable store (it is rooted
at the store directory), which hangs it here when it is constructed so
operator reports have one place to look.
"""

from __future__ import annotations

import time
from typing import Callable

from .faults import FaultInjector
from .health import CircuitBreaker, HealthRegistry
from .quarantine import QuarantineManager
from .retry import Retrier, RetryPolicy

__all__ = ["ResilienceRuntime"]


class ResilienceRuntime:
    """Shared resilience state: faults (opt-in), retry, health, breakers."""

    def __init__(
        self,
        *,
        faults: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 60.0,
    ) -> None:
        self.faults = faults
        self.clock = clock
        # Under an armed injector default to a no-op sleep so chaos schedules
        # with latency faults and retry backoff stay fast; production (no
        # injector) sleeps for real.
        if sleep is None:
            sleep = (lambda _s: None) if faults is not None else time.sleep
        self.sleep = sleep
        self.retrier = Retrier(retry_policy or RetryPolicy(), sleep=sleep, clock=clock)
        self.health = HealthRegistry()
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_cooldown_seconds = breaker_cooldown_seconds
        self._breakers: dict[str, CircuitBreaker] = {}
        #: The durable store's quarantine manager, once a store was opened.
        self.quarantine: QuarantineManager | None = None
        self.journal = None
        self.metrics = None

    def breaker(
        self,
        name: str,
        *,
        failure_threshold: int | None = None,
        cooldown_seconds: float | None = None,
    ) -> CircuitBreaker:
        """Get-or-create the named circuit breaker."""
        existing = self._breakers.get(name)
        if existing is not None:
            return existing
        breaker = CircuitBreaker(
            name,
            failure_threshold=failure_threshold or self.breaker_failure_threshold,
            cooldown_seconds=(
                cooldown_seconds if cooldown_seconds is not None else self.breaker_cooldown_seconds
            ),
            clock=self.clock,
            health=self.health,
            journal=self.journal,
        )
        return self._breakers.setdefault(name, breaker)

    def attach_observability(self, journal: object, metrics: object) -> None:
        """Wire the event journal and metrics registry through every member."""
        self.journal = journal
        self.metrics = metrics
        self.health.journal = journal
        self.retrier.journal = journal
        for breaker in self._breakers.values():
            breaker.journal = journal

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
