"""Deterministic, seed-driven fault injection.

A :class:`FaultInjector` reaches the persist layer, streaming, model fitting,
the feedback verifier and the worker pool as the ``faults=`` argument of
their constructors — from ``LawsDatabase(fault_injector=)`` directly, or off
the resilience runtime a component already takes.  ``None`` means unarmed
and is the one collaborator that may be: every instrumented call site does
a single ``if self.faults is not None`` check, so with injection off (the
default everywhere) the hot paths pay one attribute load and nothing else.

Fault points are named strings (``persist.wal.append``, ``fitting.fit``,
...).  A schedule is a list of :class:`FaultSpec` entries binding a fault
*kind* to the N-th arrival at a point, so a given schedule replays
identically run after run — the chaos suite relies on this to diff a
faulted run against a never-faulted oracle.

Fault kinds:

``oserror``
    Raise :class:`OSError` with a configurable errno (default ``ENOSPC``).
``exception``
    Raise :class:`repro.errors.InjectedFault` (an exception storm).
``latency``
    Sleep ``latency_seconds`` through the injectable sleep, then continue.
``torn_write``
    Cooperative: returned to the call site, which writes only a prefix of
    the payload and then raises ``OSError(EIO)`` — simulating a short
    write / power cut mid-frame.
``bit_flip``
    Cooperative: returned to the call site, which flips one bit of the
    payload (on write) or of the bytes just read (on read) — simulating
    silent media corruption.
``nan``
    Cooperative: returned to the fitting call site, which replaces the
    fitted coefficients with NaNs — simulating a diverged solver.
"""

from __future__ import annotations

import errno as _errno
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import InjectedFault

__all__ = ["FAULT_POINTS", "FAULT_KINDS", "FaultSpec", "FaultAction", "FaultEvent", "FaultInjector"]


#: Every named fault point wired into production code.  Kept in one place so
#: schedules (and the chaos suite's coverage assertion) can enumerate them.
FAULT_POINTS: tuple[str, ...] = (
    "persist.snapshot.write",
    "persist.snapshot.read",
    "persist.wal.append",
    "persist.wal.reset",
    "persist.wal.replay",
    "persist.warehouse.store",
    "persist.warehouse.load",
    "persist.manifest.write",
    "persist.archive.write",
    "persist.archive.read",
    "streaming.ingest.flush",
    "streaming.maintenance.refit",
    "fitting.fit",
    "planner.verify",
    "parallel.worker.task",
)

FAULT_KINDS: tuple[str, ...] = ("oserror", "exception", "latency", "torn_write", "bit_flip", "nan")

#: Kinds that make sense at each point.  ``torn_write``/``bit_flip`` are
#: cooperative and only honoured where the call site manipulates bytes;
#: ``nan`` only at the fitting point.  Used by :meth:`FaultInjector.random_schedule`.
_POINT_KINDS: dict[str, tuple[str, ...]] = {
    "persist.snapshot.write": ("oserror", "latency", "torn_write"),
    "persist.snapshot.read": ("oserror", "latency", "bit_flip"),
    "persist.wal.append": ("oserror", "latency", "torn_write"),
    "persist.wal.reset": ("oserror", "latency"),
    "persist.wal.replay": ("oserror", "latency", "bit_flip"),
    "persist.warehouse.store": ("oserror", "latency", "torn_write"),
    "persist.warehouse.load": ("oserror", "latency", "bit_flip"),
    "persist.manifest.write": ("oserror", "latency"),
    "persist.archive.write": ("oserror", "latency"),
    "persist.archive.read": ("oserror", "latency"),
    "streaming.ingest.flush": ("oserror", "exception", "latency"),
    "streaming.maintenance.refit": ("oserror", "exception", "latency"),
    "fitting.fit": ("exception", "latency", "nan"),
    "planner.verify": ("exception", "latency"),
    # A worker task raising (exception) or hanging past its deadline
    # (latency): the pool retries once, then degrades to serial execution.
    "parallel.worker.task": ("exception", "latency"),
}

#: Fault kinds that, by construction, destroy durable bytes that may hold
#: acknowledged commits (silent media rot on a read path).  The chaos
#: harness exempts schedules containing these from the byte-exact no-loss
#: assertion and instead asserts *disclosure* (journaled quarantine or
#: truncation, degraded health, typed errors).
DESTRUCTIVE: frozenset[tuple[str, str]] = frozenset(
    {
        ("persist.wal.replay", "bit_flip"),
        ("persist.snapshot.read", "bit_flip"),
        ("persist.warehouse.load", "bit_flip"),
        ("persist.snapshot.write", "torn_write"),
        ("persist.warehouse.store", "torn_write"),
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` on the ``hit``-th arrival at ``point``."""

    point: str
    kind: str
    hit: int = 1
    errno_code: int = _errno.ENOSPC
    latency_seconds: float = 0.0
    fraction: float = 0.5
    bit_index: int = 7
    message: str = ""

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {self.point!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.hit < 1:
            raise ValueError("hit indices are 1-based")


@dataclass(frozen=True)
class FaultAction:
    """A cooperative fault returned to the call site for it to enact."""

    point: str
    kind: str
    fraction: float = 0.5
    bit_index: int = 7


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired, recorded for chaos-suite accounting."""

    point: str
    kind: str
    hit: int


@dataclass
class _PointState:
    specs: dict[int, FaultSpec] = field(default_factory=dict)
    count: int = 0


class FaultInjector:
    """Replays a deterministic schedule of faults at named fault points.

    Thread-safe: hit counters and the fired-fault log are guarded by a
    lock, so concurrent writers (ingest vs. maintenance vs. checkpoint)
    still observe a deterministic *per-point* schedule.
    """

    def __init__(
        self,
        schedule: Iterable[FaultSpec] = (),
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._lock = threading.Lock()
        self._points: dict[str, _PointState] = {}
        self._sleep = sleep
        self.log: list[FaultEvent] = []
        self.schedule: tuple[FaultSpec, ...] = tuple(schedule)
        for spec in self.schedule:
            state = self._points.setdefault(spec.point, _PointState())
            if spec.hit in state.specs:
                raise ValueError(f"duplicate fault for {spec.point!r} hit {spec.hit}")
            state.specs[spec.hit] = spec

    # -- core ---------------------------------------------------------------

    def hit(self, point: str, path: object | None = None) -> FaultAction | None:
        """Record one arrival at ``point``; raise, sleep, or hand back an action.

        Raising kinds (``oserror``/``exception``) raise from here.  Latency
        sleeps and returns ``None``.  Cooperative kinds (``torn_write``,
        ``bit_flip``, ``nan``) return a :class:`FaultAction` for the call
        site to enact.  Unscheduled arrivals return ``None``.
        """
        with self._lock:
            state = self._points.get(point)
            if state is None:
                return None
            state.count += 1
            spec = state.specs.get(state.count)
            if spec is None:
                return None
            self.log.append(FaultEvent(point=point, kind=spec.kind, hit=state.count))
            count = state.count
        if spec.kind == "oserror":
            name = _errno.errorcode.get(spec.errno_code, str(spec.errno_code))
            detail = spec.message or f"injected {name} at {point} (hit {count})"
            raise OSError(spec.errno_code, detail, str(path) if path is not None else None)
        if spec.kind == "exception":
            raise InjectedFault(
                spec.message or f"injected exception storm at {point} (hit {count})",
                point=point,
                hit=count,
            )
        if spec.kind == "latency":
            self._sleep(spec.latency_seconds)
            return None
        return FaultAction(
            point=point, kind=spec.kind, fraction=spec.fraction, bit_index=spec.bit_index
        )

    def filter_bytes(self, point: str, data: bytes, path: object | None = None) -> bytes:
        """``hit`` + enact any cooperative byte corruption on ``data``."""
        action = self.hit(point, path=path)
        if action is None:
            return data
        return self.apply(action, data)

    @staticmethod
    def apply(action: FaultAction, data: bytes) -> bytes:
        """Enact a cooperative action on a byte payload."""
        if not data:
            return data
        if action.kind == "torn_write":
            cut = max(1, int(len(data) * action.fraction))
            return data[:cut]
        if action.kind == "bit_flip":
            index = action.bit_index % (len(data) * 8)
            byte_index, bit = divmod(index, 8)
            corrupted = bytearray(data)
            corrupted[byte_index] ^= 1 << bit
            return bytes(corrupted)
        return data

    # -- introspection ------------------------------------------------------

    def fired(self) -> tuple[FaultEvent, ...]:
        with self._lock:
            return tuple(self.log)

    def drain(self) -> tuple[FaultEvent, ...]:
        """Return and clear the fired-fault log (per-operation accounting)."""
        with self._lock:
            fired = tuple(self.log)
            self.log.clear()
            return fired

    def is_destructive(self) -> bool:
        """True if the schedule can silently destroy acknowledged durable bytes."""
        return any((spec.point, spec.kind) in DESTRUCTIVE for spec in self.schedule)

    # -- schedule construction ----------------------------------------------

    @classmethod
    def random_schedule(
        cls,
        seed: int,
        *,
        n_faults: int = 4,
        max_hit: int = 5,
        points: Sequence[str] = FAULT_POINTS,
        latency_seconds: float = 0.0005,
    ) -> list[FaultSpec]:
        """Build a reproducible schedule: same seed, same faults, forever."""
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        used: set[tuple[str, int]] = set()
        for _ in range(n_faults):
            for _attempt in range(64):
                point = rng.choice(list(points))
                hit = rng.randint(1, max_hit)
                if (point, hit) in used:
                    continue
                used.add((point, hit))
                kind = rng.choice(list(_POINT_KINDS[point]))
                errno_code = rng.choice((_errno.ENOSPC, _errno.EIO, _errno.EAGAIN))
                specs.append(
                    FaultSpec(
                        point=point,
                        kind=kind,
                        hit=hit,
                        errno_code=errno_code,
                        latency_seconds=latency_seconds,
                        fraction=rng.choice((0.1, 0.5, 0.9)),
                        bit_index=rng.randint(0, 4096),
                    )
                )
                break
        return specs
