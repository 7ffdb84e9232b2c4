"""Retry with exponential backoff, jitter and a per-operation time budget.

The :class:`Retrier` is used by the persist layer for transient IO errors
(``EIO``, ``EAGAIN``, ``EINTR``, ``EBUSY``): the first attempt always runs
inline at the call site so the happy path pays nothing; the retry loop only
engages once an exception has already been raised.  ``ENOSPC`` and friends
are *not* transient — retrying a full disk is pointless — so they bypass
retry and surface as typed errors immediately.

Clock and sleep are injectable, which keeps the backoff tests instant and
lets the chaos suite run thousands of schedules without real sleeping.
"""

from __future__ import annotations

import errno as _errno
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.obs.events import EventJournal

T = TypeVar("T")

__all__ = ["RetryPolicy", "Retrier", "TRANSIENT_ERRNOS"]

#: OS errors worth retrying: transient by nature, not a capacity problem.
TRANSIENT_ERRNOS: frozenset[int] = frozenset(
    {_errno.EIO, _errno.EAGAIN, _errno.EINTR, _errno.EBUSY}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape: ``base_delay * multiplier**n``, capped, jittered."""

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.25
    timeout_budget: float | None = 5.0

    def delays(self, rng: random.Random) -> Iterator[float]:
        """Backoff delays between attempts (``max_attempts - 1`` of them)."""
        delay = self.base_delay
        for _ in range(max(0, self.max_attempts - 1)):
            jittered = delay * (1.0 + self.jitter * rng.random()) if self.jitter else delay
            yield min(jittered, self.max_delay)
            delay = min(delay * self.multiplier, self.max_delay)


class Retrier:
    """Re-runs an already-failed operation under a :class:`RetryPolicy`.

    ``retry`` is called *after* the inline first attempt raised, with the
    original exception; it re-raises the last failure when attempts or the
    time budget run out, so call sites keep their normal error contracts
    (and wrap in typed errors as usual).
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
        journal: EventJournal | None = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)
        self.journal = journal or EventJournal(enabled=False)

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """True for OS errors that plausibly succeed on a second try."""
        return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS

    def retry(
        self,
        fn: Callable[[], T],
        *,
        first_error: BaseException,
        operation: str = "",
        retryable: type[BaseException] | tuple[type[BaseException], ...] = OSError,
        retry_all: bool = False,
    ) -> T:
        """Keep re-running ``fn`` until success, exhaustion or budget overrun.

        ``retry_all=True`` retries every ``retryable`` error, not only the
        transient set — correct for *idempotent reads*, where a retry can
        never double-apply anything and even an "unretryable" errno (say
        ``ENOSPC`` reported by a flaky mount) says nothing about whether the
        bytes on disk are good.  Writes keep the default: retrying a full
        disk is pointless, and the caller's typed error should surface fast.
        """
        last = first_error
        start = self._clock()
        attempts = 1
        for delay in self.policy.delays(self._rng):
            budget = self.policy.timeout_budget
            if budget is not None and (self._clock() - start) + delay > budget:
                break
            self._sleep(delay)
            attempts += 1
            try:
                result = fn()
            except retryable as exc:
                if not retry_all and not self.is_transient(exc):
                    raise
                last = exc
                continue
            self.journal.record(
                "retry", operation=operation, attempts=attempts, outcome="success"
            )
            return result
        self.journal.record("retry", operation=operation, attempts=attempts, outcome="exhausted")
        raise last
