"""The benchmark's own spans: kept in memory, written out when the run ends.

Spans are recorded around the *public* calls into each layer from outside the
program (tracing inside the program is a later change).  A span is
``[name, start, end, parent index, op id]``; a layer's self time is its
duration minus the part its children cover.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self.recorder
        recorder.spans[self.index][END] = perf_counter()
        recorder._open.pop()


class SpanRecorder:
    """Single-threaded span stack (the benchmark has one client thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, op: int | None = None) -> _Span:
        parent = self._open[-1] if self._open else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        index = len(self.spans)
        self._open.append(index)
        self.spans.append([name, perf_counter(), None, parent, op])
        return _Span(self, index)

    def durations(self) -> list[float]:
        return [span[END] - span[START] for span in self.spans]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        durations = self.durations()
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                own[span[PARENT]] -= duration
        return own

    def self_time_by_name(self, ops: set[int] | None = None) -> dict[str, float]:
        """Total self time per span name, optionally restricted to some op ids."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if ops is None or span[OP] in ops:
                totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def duration_by_name(self, ops: set[int] | None = None) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = {}
        for span, duration in zip(self.spans, self.durations()):
            if ops is None or span[OP] in ops:
                grouped.setdefault(span[NAME], []).append(duration)
        return grouped

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            {"name": s[NAME], "start_us": round((s[START] - origin) * 1e6, 1),
             "end_us": round((s[END] - origin) * 1e6, 1), "parent": s[PARENT], "op": s[OP]}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))
