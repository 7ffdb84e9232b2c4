"""Simulated storage IO cost model.

The paper's "zero-IO scans" argument (§4.1) is about replacing an IO-bound
table scan with CPU-only model evaluation.  This reproduction runs entirely
in memory, so the IO savings would be invisible without an explicit cost
model.  :class:`IOModel` attributes a page count to every table and charges
page reads to an :class:`IOAccountant` whenever an operator scans a base
table.  The accountant can optionally *simulate* the latency of those reads
(sleep-free: it accrues virtual time) so benchmarks can report both page
counts and estimated IO time.

The defaults model a commodity SATA SSD: 8 KiB pages, 500 MB/s sequential
bandwidth and 80 µs per random read.  The exact values only scale the
reported savings; the *shape* of the zero-IO result (model answering reads
no pages at all) does not depend on them.

A scan is charged the bytes it reads: each column at the width it is stored
at (:attr:`~repro.db.column.Column.stored_width` — a catalog table's INT64
column at 1, 2, 4 or 8 bytes, as the durable store writes it).  The nominal
width (:meth:`~repro.db.column.Column.byte_size`, ``TableStats.byte_size``)
stays the unit of the cost model and of the compression baselines, so
narrowing a column moves neither a route choice nor a compression ratio.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.db.table import Table
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["IOParameters", "IOAccountant", "IOModel", "IOScope"]


@dataclass(frozen=True)
class IOParameters:
    """Device parameters for the simulated storage layer."""

    page_size_bytes: int = 8192
    sequential_bandwidth_bytes_per_s: float = 500e6
    random_read_latency_s: float = 80e-6

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Number of pages needed to hold ``num_bytes``."""
        if num_bytes <= 0:
            return 0
        return int(math.ceil(num_bytes / self.page_size_bytes))

    def sequential_read_time(self, pages: int) -> float:
        """Virtual seconds to read ``pages`` sequentially."""
        return pages * self.page_size_bytes / self.sequential_bandwidth_bytes_per_s

    def random_read_time(self, pages: int) -> float:
        """Virtual seconds to read ``pages`` with random access."""
        return pages * (self.random_read_latency_s + self.page_size_bytes / self.sequential_bandwidth_bytes_per_s)


class IOScope:
    """Per-execution IO attribution: what one query (or stage) charged.

    A scope is opened with :meth:`IOAccountant.scope` around one execution
    (it is its own context manager — ``with accountant.scope() as s:``);
    every charge made *by the opening thread* while the scope is open is
    credited to it (and to any enclosing scopes on the same thread, so a
    nested execution's IO still shows up in its caller's total, exactly as
    the old before/after snapshot deltas did).  Charges from *other*
    threads are never credited, which is what fixes the interleaved-query
    misattribution the snapshot-delta approach suffered from.
    """

    __slots__ = (
        "pages_read",
        "bytes_read",
        "sequential_reads",
        "random_reads",
        "virtual_io_seconds",
        "_stack",
    )

    def __init__(self, stack: list | None = None) -> None:
        self.pages_read = 0
        self.bytes_read = 0
        self.sequential_reads = 0
        self.random_reads = 0
        self.virtual_io_seconds = 0.0
        self._stack = stack

    def __enter__(self) -> "IOScope":
        self._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Scopes nest strictly (context managers unwind LIFO), so popping is
        # enough — but guard against a mispaired exit all the same.
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - defensive
            try:
                stack.remove(self)
            except ValueError:
                pass

    def _add(self, pages: int, num_bytes: int, sequential: bool, seconds: float) -> None:
        self.pages_read += pages
        self.bytes_read += num_bytes
        if sequential:
            self.sequential_reads += 1
        else:
            self.random_reads += 1
        self.virtual_io_seconds += seconds

    def snapshot(self) -> dict[str, float]:
        """Counters in the same shape as :meth:`IOAccountant.snapshot`."""
        return {
            "pages_read": self.pages_read,
            "bytes_read": self.bytes_read,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
            "virtual_io_seconds": self.virtual_io_seconds,
        }


@dataclass
class IOAccountant:
    """Accumulates simulated IO charged during query execution.

    Global totals are lock-protected (concurrent queries all charge the one
    accountant); per-execution attribution goes through thread-local
    :class:`IOScope` stacks, which need no locking.
    """

    parameters: IOParameters = field(default_factory=IOParameters)
    pages_read: int = 0
    bytes_read: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    virtual_io_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _local: threading.local = field(default_factory=threading.local, repr=False, compare=False)

    def scope(self) -> IOScope:
        """A per-execution attribution scope for the calling thread.

        The returned :class:`IOScope` is a context manager; charges are only
        credited while it is entered.
        """
        scopes = getattr(self._local, "scopes", None)
        if scopes is None:
            scopes = self._local.scopes = []
        return IOScope(scopes)

    def _charge(self, pages: int, num_bytes: int, sequential: bool, seconds: float) -> None:
        with self._lock:
            self.pages_read += pages
            self.bytes_read += num_bytes
            if sequential:
                self.sequential_reads += 1
            else:
                self.random_reads += 1
            self.virtual_io_seconds += seconds
        scopes = getattr(self._local, "scopes", None)
        if scopes:
            for entry in scopes:
                entry._add(pages, num_bytes, sequential, seconds)

    def charge_sequential(self, num_bytes: int) -> None:
        """Charge a sequential read of ``num_bytes`` (e.g. a column scan)."""
        pages = self.parameters.pages_for_bytes(num_bytes)
        self._charge(pages, num_bytes, True, self.parameters.sequential_read_time(pages))

    def charge_random(self, num_bytes: int) -> None:
        """Charge a random read of ``num_bytes`` (e.g. an index lookup)."""
        pages = self.parameters.pages_for_bytes(num_bytes)
        self._charge(pages, num_bytes, False, self.parameters.random_read_time(pages))

    def reset(self) -> None:
        with self._lock:
            self.pages_read = 0
            self.bytes_read = 0
            self.sequential_reads = 0
            self.random_reads = 0
            self.virtual_io_seconds = 0.0

    def snapshot(self) -> dict[str, float]:
        """A plain-dict snapshot, convenient for benchmark reporting."""
        with self._lock:
            return {
                "pages_read": self.pages_read,
                "bytes_read": self.bytes_read,
                "sequential_reads": self.sequential_reads,
                "random_reads": self.random_reads,
                "virtual_io_seconds": self.virtual_io_seconds,
            }


class IOModel:
    """Attributes page counts to tables and charges scans to an accountant.

    ``accountant`` is for an owner that needed it before this model existed
    (a tracer reads span IO from its scopes); its parameters are the model's.
    ``metrics`` and ``tracer`` are where scans report the rows they evaluated
    and the blocks they never read (:meth:`charge_read`).
    """

    def __init__(
        self,
        parameters: IOParameters | None = None,
        accountant: IOAccountant | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.accountant = accountant or IOAccountant(parameters=parameters or IOParameters())
        self.parameters = self.accountant.parameters
        self.metrics = metrics or MetricsRegistry(enabled=False)
        self.tracer = tracer or Tracer(enabled=False)

    # -- sizing ---------------------------------------------------------------

    def column_bytes(self, table: Table, column_names: list[str] | None = None) -> int:
        """Bytes a scan of a subset of a table's columns reads (columnar
        layout): each column at its stored width."""
        names = column_names if column_names is not None else table.schema.names
        return sum(len(column) * column.stored_width for column in map(table.column, names))

    # -- charging ---------------------------------------------------------------

    def charge_scan(self, table: Table, column_names: list[str] | None = None) -> int:
        """Charge a sequential columnar scan; returns the bytes charged."""
        num_bytes = self.column_bytes(table, column_names)
        self.accountant.charge_sequential(num_bytes)
        return num_bytes

    def charge_read(
        self, num_bytes: int, *, rows_read: int, pruned: int = 0, answered: int = 0
    ) -> None:
        """Charge one scan's read: ``num_bytes`` in one sequential read.

        ``rows_read`` is how many rows the scan evaluated (its survivors may
        be far fewer), ``pruned`` / ``answered`` the blocks it did not read —
        ones its synopses proved empty, ones they proved wholly matching.
        Those blocks cost nothing (that is the point), but each nonzero count
        goes to its counter (``scan_blocks_pruned_total`` /
        ``scan_blocks_answered_total``), and all three go onto the calling
        thread's open span (the scan's own, in a traced execution) as
        ``rows_read`` / ``blocks_pruned`` / ``blocks_answered``.
        """
        self.accountant.charge_sequential(num_bytes)
        span = self.tracer.current
        if span is not None:
            span.annotate(rows_read=span.attributes.get("rows_read", 0) + rows_read)
        for counter, key, blocks in (
            ("scan_blocks_pruned_total", "blocks_pruned", pruned),
            ("scan_blocks_answered_total", "blocks_answered", answered),
        ):
            if blocks:
                self.metrics.inc(counter, float(blocks))
                if span is not None:
                    span.annotate(**{key: span.attributes.get(key, 0) + blocks})

    def charge_point_lookup(self, table: Table, column_names: list[str] | None = None) -> int:
        """Charge a random single-row lookup (one page per accessed column)."""
        names = column_names if column_names is not None else table.schema.names
        num_bytes = sum(table.schema.dtype_of(name).byte_width for name in names)
        # A point lookup still touches at least one page per column file.
        for _ in names:
            self.accountant.charge_random(self.parameters.page_size_bytes)
        return num_bytes

    def scope(self):
        """Open a per-execution IO attribution scope (see :class:`IOScope`)."""
        return self.accountant.scope()

    def reset(self) -> None:
        self.accountant.reset()

    def snapshot(self) -> dict[str, float]:
        return self.accountant.snapshot()
