"""A bounded slow-query log.

Queries whose wall time exceeds a configurable threshold leave behind a
structured record — the SQL, the route the planner took, the per-stage
trace summary — retrievable via ``db.slow_queries()``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = ["SlowQuery", "SlowQueryLog"]


@dataclass(frozen=True)
class SlowQuery:
    """One query that exceeded the slow-query threshold."""

    sql: str
    route: str
    elapsed_seconds: float
    trace_summary: str
    contract: str
    timestamp: float

    def describe(self) -> str:
        return (
            f"{self.elapsed_seconds * 1000.0:.2f}ms [{self.route}] {self.sql}"
            f" — {self.trace_summary}"
        )


class SlowQueryLog:
    """Keeps the most recent queries slower than ``threshold_seconds``."""

    def __init__(
        self, threshold_seconds: float = 0.25, capacity: int = 128, *, enabled: bool = True
    ) -> None:
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self.enabled = enabled
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._total = 0
        self._lock = threading.Lock()

    def observe(
        self,
        sql: str,
        route: str,
        elapsed_seconds: float,
        trace_summary: str = "",
        contract: Any = None,
    ) -> SlowQuery | None:
        if not self.enabled or elapsed_seconds < self.threshold_seconds:
            return None
        entry = SlowQuery(
            sql=sql,
            route=route,
            elapsed_seconds=elapsed_seconds,
            trace_summary=trace_summary,
            contract="" if contract is None else str(contract),
            timestamp=time.time(),
        )
        with self._lock:
            self._entries.append(entry)
            self._total += 1
        return entry

    def entries(self, limit: int | None = None) -> list[SlowQuery]:
        """Retained slow queries, oldest first."""
        with self._lock:
            selected = list(self._entries)
        if limit is not None:
            selected = selected[-limit:]
        return selected

    @property
    def total(self) -> int:
        """Slow queries ever observed (including evicted entries)."""
        return self._total
