"""Query-lifecycle tracing: a span tree per query.

A :class:`Span` is one timed stage of a query's life — parse, plan/probe,
the route decision, execution (with one child span per physical operator),
the verification sample — carrying its wall time, the simulated page IO it
charged (from :class:`repro.db.io_model.IOModel`), and free-form
attributes.  The :class:`Tracer` assembles spans into a tree per traced
query and keeps the last completed trace for ``db.last_trace()`` /
``EXPLAIN ANALYZE``.

Overhead discipline: a disabled tracer (or a span opened outside any active
trace) costs one attribute check and allocates nothing — the hot paths the
``BENCH_hotpaths`` suite gates stay untouched when tracing is off.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer"]

#: IO counters copied onto spans (a subset of the accountant snapshot —
#: the two numbers the paper's zero-IO argument is about).
_IO_KEYS = ("pages_read", "virtual_io_seconds")


@dataclass
class Span:
    """One timed stage of a traced query (a node in the span tree)."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Wall-clock time (``time.time()``) the span opened — the anchor the
    #: OTLP exporter needs, since ``elapsed_seconds`` is monotonic-relative.
    started_at: float = 0.0
    #: Simulated IO charged while this span (including children) was open.
    io: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Elapsed time net of child spans (an operator's own work)."""
        return max(0.0, self.elapsed_seconds - sum(c.elapsed_seconds for c in self.children))

    @property
    def pages_read(self) -> float:
        return float(self.io.get("pages_read", 0.0))

    def annotate(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    # -- navigation -----------------------------------------------------------

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given span name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def span_names(self) -> list[str]:
        """Depth-first span names — the golden-trace shape tests key on this."""
        return [span.name for span in self.walk()]

    # -- rendering ------------------------------------------------------------

    def render(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        parts = [f"{pad}{self.name}  [{self.elapsed_seconds * 1000.0:.3f}ms"]
        pages = self.pages_read
        if pages:
            parts.append(f", io={pages:.0f} page(s)")
        parts.append("]")
        lines = ["".join(parts)]
        for key, value in self.attributes.items():
            if isinstance(value, (list, tuple)):
                for entry in value:
                    lines.append(f"{pad}  · {key}: {entry}")
            else:
                lines.append(f"{pad}  · {key}: {value}")
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def summary(self) -> str:
        """One line per stage — what the slow-query log stores."""
        stages = ", ".join(
            f"{child.name}={child.elapsed_seconds * 1000.0:.2f}ms"
            for child in self.children
        )
        return f"{self.name} {self.elapsed_seconds * 1000.0:.2f}ms ({stages})"

    def to_text(self) -> str:
        return "\n".join(self.render())


class _SpanStack(threading.local):
    """One thread's open spans, root first.

    The :class:`repro.db.snapshot.PinStack` idiom, for its reason: ``.spans``
    always exists, so the ``active`` test every plan execution makes is a
    plain attribute load and not a ``getattr`` miss — over a microsecond per
    query on a thread that never traced.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []


class Tracer:
    """Builds one span tree per traced query.

    ``io_scope`` is a context-manager factory like
    :meth:`repro.db.io_model.IOAccountant.scope`: every span opens one and
    records what was charged on its thread while it was open, so a concurrent
    query on another thread can never inflate this trace's page counts.
    Without one, spans carry wall time only.

    Span stacks are thread-local: concurrent traced queries each build their
    own tree, and whether spans are recorded at all is a fact about the
    calling thread's stack — non-empty only under a root :meth:`trace`
    opened, which is the one place ``enabled`` is read.  The completed-trace
    ring is shared (and lock-protected), so ``last_trace()`` reports whichever
    trace finished most recently; a caller that wants *its* trace keeps the
    root ``trace()`` handed it.
    """

    def __init__(
        self,
        enabled: bool = True,
        keep_traces: int = 8,
        io_scope: Callable[[], Any] | None = None,
    ) -> None:
        self.enabled = enabled
        self.io_scope = io_scope
        self.keep_traces = keep_traces
        #: Injectable monotonic clock.  Span timings come from here, so a
        #: test (or the calibration convergence harness) can skew observed
        #: operator durations without sleeping.
        self.clock: Callable[[], float] = perf_counter
        self._local = _SpanStack()
        self._traces: list[Span] = []
        self._traces_lock = threading.Lock()

    # -- state ----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while a trace is open *on this thread* (spans get recorded)."""
        return bool(self._local.spans)

    @property
    def current(self) -> Span | None:
        stack = self._local.spans
        return stack[-1] if stack else None

    def last_trace(self) -> Span | None:
        """The root span of the most recently completed trace."""
        with self._traces_lock:
            return self._traces[-1] if self._traces else None

    def traces(self) -> list[Span]:
        with self._traces_lock:
            return list(self._traces)

    # -- span management -------------------------------------------------------

    @contextmanager
    def _span_io(self, span: Span) -> Iterator[None]:
        """Attribute the IO charged while the span is open onto ``span.io``."""
        if self.io_scope is None:
            yield
            return
        with self.io_scope() as scope:
            try:
                yield
            finally:
                span.io = {
                    key: value
                    for key, value in scope.snapshot().items()
                    if key in _IO_KEYS and value
                }

    def trace(
        self, name: str, *, force: bool = False, **attributes: Any
    ) -> AbstractContextManager[Span]:
        """Open a root span on this thread (a throwaway one when disabled).

        ``force`` opens the root whatever ``enabled`` says.  Forcing is a
        fact about *this thread's* span stack, not about the tracer —
        ``EXPLAIN ANALYZE`` on an observability-off database traces its own
        query and no other thread's.  With a trace already open on this
        thread (a nested ``query()`` from the feedback verifier) the span
        becomes a child of the open one instead of clobbering it.
        """
        stack = self._local.spans
        if stack or force or self.enabled:
            return self._open(stack, name, attributes)
        return _DISCARD

    def span(self, name: str, **attributes: Any) -> AbstractContextManager[Span]:
        """Open a child span under the current one (no-op outside a trace)."""
        stack = self._local.spans
        if stack:
            return self._open(stack, name, attributes)
        return _DISCARD

    @contextmanager
    def _open(self, stack: list[Span], name: str, attributes: dict[str, Any]) -> Iterator[Span]:
        """Time one span on ``stack``; the span that leaves it empty is a finished trace."""
        span = Span(name=name, attributes=attributes, started_at=time.time())
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        started = self.clock()
        try:
            with self._span_io(span):
                yield span
        finally:
            span.elapsed_seconds = self.clock() - started
            stack.pop()
            if not stack:
                with self._traces_lock:
                    self._traces.append(span)
                    if len(self._traces) > self.keep_traces:
                        del self._traces[: len(self._traces) - self.keep_traces]

    def record(
        self, name: str, started_at: float, elapsed_seconds: float, **attributes: Any
    ) -> None:
        """Attach a finished child span under the current one (no-op outside a trace).

        For work timed on another thread: span stacks are thread-local, so a
        pool worker reports its own wall time and the thread that owns the
        trace records it.
        """
        stack = self._local.spans
        if stack:
            stack[-1].children.append(
                Span(name, dict(attributes), elapsed_seconds, started_at)
            )


#: Shared throwaway span handed out when tracing is off: callers may
#: annotate it freely; nothing is retained.
_DISCARDED = Span(name="discarded")
#: The context manager yielding it (stateless, so one serves every thread).
_DISCARD = nullcontext(_DISCARDED)
