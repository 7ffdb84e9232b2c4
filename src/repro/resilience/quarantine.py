"""Quarantine: move unreadable artefacts aside instead of failing ``open()``.

When recovery meets a corrupt warehouse entry, snapshot segment or WAL
frame, the :class:`QuarantineManager` moves the offending bytes into a
``quarantine/`` directory next to the store root, appends a record to a
JSON ledger, journals a ``quarantine`` event and bumps the
``quarantine_total{artefact}`` metric — and the rest of the store keeps
serving.

For batch artefacts (the warehouse restores dozens of model entries in
one go) :func:`minimal_failing_subset` isolates the *smallest* set of
entries that explains the failure by binary-search shrinking, in the
spirit of minimal-conflicting-set extraction (Ouangraoua & Raffinot):
only the genuinely bad entries are quarantined, every good entry is
restored.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry

T = TypeVar("T")

__all__ = ["QuarantineRecord", "QuarantineManager", "minimal_failing_subset"]

LEDGER_NAME = "QUARANTINE.json"


def minimal_failing_subset(items: Sequence[T], probe: Callable[[Sequence[T]], None]) -> list[int]:
    """Indices of a minimal set of ``items`` responsible for ``probe`` failing.

    ``probe(batch)`` must raise when the batch contains a bad item and
    return normally otherwise.  The whole batch is probed first (fast path:
    no failure, no further probes), then failing ranges are bisected so a
    batch of *n* items with *k* bad entries costs O(k log n) probes instead
    of n.  Assumes item failures are independent (true for per-entry
    decoding); for each returned index the singleton ``[items[i]]`` fails.
    """
    bad: list[int] = []

    def shrink(lo: int, hi: int) -> None:
        try:
            probe(items[lo:hi])
        except Exception:
            if hi - lo == 1:
                bad.append(lo)
                return
            mid = (lo + hi) // 2
            shrink(lo, mid)
            shrink(mid, hi)

    if items:
        shrink(0, len(items))
    return bad


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined artefact: what, where it came from, why, where it went."""

    artefact: str
    source: str
    reason: str
    quarantined_path: str
    detail: str = ""
    timestamp: float = field(default_factory=time.time)


class QuarantineManager:
    """Moves unreadable artefacts under ``<root>/quarantine/`` and ledgers them."""

    def __init__(
        self,
        root: Path | str,
        *,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.directory = self.root / "quarantine"
        self.ledger_path = self.directory / LEDGER_NAME
        self.journal = journal or EventJournal(enabled=False)
        self.metrics = metrics or MetricsRegistry(enabled=False)
        self._lock = threading.Lock()
        self._records: list[QuarantineRecord] = []
        if self.ledger_path.exists():
            try:
                payload = json.loads(self.ledger_path.read_text(encoding="utf-8"))
                self._records = [QuarantineRecord(**entry) for entry in payload.get("records", [])]
            except (ValueError, TypeError, OSError):
                # An unreadable ledger must not block open(); start fresh and
                # keep the old file aside for forensics.
                try:
                    self.ledger_path.rename(self.ledger_path.with_suffix(".corrupt"))
                except OSError:
                    pass
                self._records = []

    # -- quarantine operations ----------------------------------------------

    def quarantine_file(self, path: Path | str, *, artefact: str, reason: str, detail: str = "") -> QuarantineRecord:
        """Move a file out of the live tree into quarantine."""
        source = Path(path)
        destination = self._destination(source.name)
        try:
            source.rename(destination)
        except OSError:
            # Cross-device or permission trouble: fall back to copy+unlink,
            # and if even that fails, ledger the artefact in place.
            try:
                destination.write_bytes(source.read_bytes())
                source.unlink()
            except OSError:
                destination = source
        return self._admit(artefact, str(source), reason, str(destination), detail)

    def quarantine_bytes(self, data: bytes, *, name: str, artefact: str, reason: str, detail: str = "") -> QuarantineRecord:
        """Preserve loose bytes (a truncated WAL tail, a bad frame) in quarantine."""
        destination = self._destination(name)
        try:
            destination.write_bytes(data)
        except OSError:
            destination = Path("<unwritable>")
        return self._admit(artefact, name, reason, str(destination), detail)

    def quarantine_entry(self, entry: object, *, name: str, artefact: str, reason: str, detail: str = "") -> QuarantineRecord:
        """Preserve a JSON-serialisable entry (e.g. one warehouse model) in quarantine."""
        try:
            data = json.dumps(entry, indent=2, sort_keys=True, default=repr).encode("utf-8")
        except (TypeError, ValueError):
            data = repr(entry).encode("utf-8")
        return self.quarantine_bytes(data, name=name, artefact=artefact, reason=reason, detail=detail)

    # -- introspection ------------------------------------------------------

    def records(self, artefact: str | None = None) -> list[QuarantineRecord]:
        with self._lock:
            if artefact is None:
                return list(self._records)
            return [record for record in self._records if record.artefact == artefact]

    def report(self) -> dict:
        """Operator-facing summary of everything quarantined."""
        with self._lock:
            records = list(self._records)
        by_artefact: dict[str, int] = {}
        for record in records:
            by_artefact[record.artefact] = by_artefact.get(record.artefact, 0) + 1
        return {
            "directory": str(self.directory),
            "count": len(records),
            "by_artefact": by_artefact,
            "records": [asdict(record) for record in records],
        }

    # -- internals ----------------------------------------------------------

    def _destination(self, name: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        candidate = self.directory / name
        counter = 1
        while candidate.exists():
            candidate = self.directory / f"{name}.{counter}"
            counter += 1
        return candidate

    def _admit(self, artefact: str, source: str, reason: str, destination: str, detail: str) -> QuarantineRecord:
        record = QuarantineRecord(
            artefact=artefact,
            source=source,
            reason=reason,
            quarantined_path=destination,
            detail=detail,
        )
        with self._lock:
            self._records.append(record)
            self._flush_ledger_locked()
        self.journal.record(
            "quarantine",
            artefact=artefact,
            source=source,
            reason=reason,
            quarantined_path=destination,
        )
        self.metrics.inc("quarantine_total", artefact=artefact)
        return record

    def _flush_ledger_locked(self) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = {"records": [asdict(record) for record in self._records]}
            tmp = self.ledger_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
            tmp.replace(self.ledger_path)
        except OSError:
            # The ledger is best-effort bookkeeping; never let it turn a
            # successful quarantine into a failure.
            pass
