"""Append-only, checksummed write-ahead log.

Between checkpoints every acknowledged write (a created table, a streaming
ingest batch, a direct row insert, a DDL or SQL statement) is one record,
framed into the WAL so a crashed process can replay it on top of the last
snapshot.  The format is deliberately simple:

``[length:u32][crc32:u32][payload bytes]``

where the payload is a UTF-8 JSON header, optionally followed by a NUL byte
and a binary body (JSON text never holds a raw NUL).  A record carries its
body as bytes under :data:`BODY_KEY` — the rows it writes, as one segment —
and replay hands it back there; a record without one frames as plain JSON.
Replay walks the frames from the start and stops at the first torn or
corrupted frame — a crash mid-write leaves a torn tail, and a bit flip
breaks the CRC (body included); either way everything *before* the bad
frame is intact and everything after it is untrusted, so the tail is
truncated (standard redo-log semantics).

Every log begins with an ``epoch`` record naming the checkpoint it extends.
A manifest rename and the log reset that follows it are two separate
filesystem operations; the epoch lets a reopening process detect a WAL that
predates (or outlives) the manifest it found and discard it instead of
double-applying records.  An epoch record is a *log restart marker*: replay
discards everything accumulated before it, so a reset that failed to
truncate the file (ENOSPC, flaky disk) is still safe — the next successful
append stamps the new epoch first and the stale prefix is dropped on
replay.

Failure handling: the log keeps its own framing and rollback — a torn
in-process write is truncated back off to the pre-append size — and takes
fault arrival (``persist.wal.append`` / ``.reset`` / ``.replay``, opt-in via
``faults=``), retry, sync and the escaping ``OSError`` from
:mod:`repro.persist.files`; that error surfaces as a typed
:class:`~repro.errors.WALError` carrying the log path.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.errors import PersistenceError, WALError
from repro.persist import files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import FaultInjector, Retrier

__all__ = ["BODY_KEY", "WalReplay", "WriteAheadLog"]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: The record key whose bytes are framed as the body after the JSON header.
BODY_KEY = "segment"

#: Sanity bound on a single frame: a "length" beyond this is corruption, not
#: a real record (protects replay from allocating garbage-sized buffers).
_MAX_FRAME_BYTES = 256 * 1024 * 1024


def _frame_parts(record: dict[str, Any]) -> tuple[bytes, bytes | None]:
    """``record``'s JSON header (every key but :data:`BODY_KEY`) and its body."""
    body = record.get(BODY_KEY)
    header = record if body is None else {k: v for k, v in record.items() if k != BODY_KEY}
    return json.dumps(header, separators=(",", ":")).encode("utf-8"), body


@dataclass
class WalReplay:
    """What one replay pass recovered (and what it had to discard)."""

    #: The checkpoint epoch this log extends (0 when no epoch record found).
    epoch: int = 0
    records: list[dict[str, Any]] = field(default_factory=list)
    valid_bytes: int = 0
    truncated_bytes: int = 0
    truncation_reason: str | None = None
    #: The discarded tail bytes, captured before repair so recovery can
    #: quarantine them instead of silently dropping evidence.
    tail: bytes = b""

    @property
    def was_truncated(self) -> bool:
        return self.truncated_bytes > 0


class WriteAheadLog:
    """A single append-only log file with CRC-framed records."""

    def __init__(
        self,
        path: Path | str,
        fsync: bool = False,
        *,
        faults: FaultInjector | None = None,
        retrier: Retrier | None = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        #: Fault injector (``persist.wal.append`` / ``.reset`` / ``.replay``;
        #: None = unarmed) and the retrier transient IO errors go through
        #: (None = the first failure surfaces).
        self.faults = faults
        self.retrier = retrier
        self._handle: BinaryIO | None = None
        # Frames must hit the file whole: two concurrent appends
        # interleaving header and payload writes would corrupt the log.
        # Re-entrant because reset() appends the epoch record itself.
        self._lock = threading.RLock()
        #: Epoch waiting to be stamped: set by reset(); if stamping fails
        #: (full disk mid-checkpoint) the next successful append writes the
        #: epoch frame first, so records can never land under a stale epoch.
        self._pending_epoch: int | None = None

    # -- writing ---------------------------------------------------------------

    def _open_handle(self) -> BinaryIO:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def fits(self, record: dict[str, Any]) -> bool:
        """Whether :meth:`append` frames ``record`` within the frame limit."""
        header, body = _frame_parts(record)
        return len(header) + (0 if body is None else 1 + len(body)) <= _MAX_FRAME_BYTES

    def append(self, record: dict[str, Any]) -> int:
        """Frame and append one record; returns the log size afterwards.

        The bytes under :data:`BODY_KEY`, if any, follow the JSON header of
        every other key after one NUL."""
        payload, body = _frame_parts(record)
        if body is not None:
            payload = b"\0".join((payload, body))
        if len(payload) > _MAX_FRAME_BYTES:
            raise PersistenceError(
                f"WAL record of {len(payload)} bytes exceeds the frame limit "
                f"({_MAX_FRAME_BYTES} bytes); checkpoint instead of logging it"
            )
        with self._lock, files.raising(WALError, "WAL append to", self.path):
            return files.retrying(
                lambda: self._append_payload(payload), point="persist.wal.append", retrier=self.retrier
            )

    def _append_payload(self, payload: bytes) -> int:
        if self._pending_epoch is not None:
            self._write_epoch(self._pending_epoch)
        return self._write_frame(payload)

    def _write_epoch(self, epoch: int) -> None:
        self._write_frame(json.dumps({"op": "epoch", "id": epoch}, separators=(",", ":")).encode())
        self._pending_epoch = None

    def _write_frame(self, payload: bytes) -> int:
        handle = self._open_handle()
        start = handle.tell()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        try:
            files.put(handle, frame, point="persist.wal.append", faults=self.faults, fsync=self.fsync)
        except OSError:
            self._rollback(start)
            raise
        return handle.tell()

    def _rollback(self, size: int) -> None:
        """Truncate the log back to ``size`` bytes so a retry starts clean.

        Best-effort: if even the truncate fails, the CRC framing makes a
        torn tail detectable (and truncatable) at the next replay, and an
        epoch frame written after a stale prefix restarts the log there."""
        try:
            self.close()
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
        except OSError:
            pass

    def reset(self, epoch: int) -> None:
        """Truncate the log and stamp it with the checkpoint epoch it extends.

        If stamping fails the epoch stays *pending*: the next successful
        append writes the epoch frame first.  An epoch frame is a restart
        marker on replay, so a stale prefix a failed truncate left behind is
        discarded rather than double-applied.
        """
        epoch = int(epoch)

        def restart() -> None:
            files.arrive("persist.wal.reset", self.path, self.faults)
            self._rollback(0)
            self._write_epoch(epoch)

        with self._lock, files.raising(WALError, "WAL reset of", self.path):
            self._pending_epoch = epoch
            files.retrying(restart, point="persist.wal.reset", retrier=self.retrier)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    @property
    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # -- replay ----------------------------------------------------------------

    def replay(self) -> WalReplay:
        """Read every intact record and truncate the file at a bad tail, so
        later appends extend a clean log.

        An epoch record mid-log restarts accumulation: records before it
        belong to an older checkpoint that already contains them.
        """
        replay = WalReplay()
        if not self.path.exists():
            return replay
        self.close()  # never replay through a buffered write handle
        with files.raising(WALError, "WAL replay of", self.path):
            data = files.read(
                self.path,
                lambda handle: handle.read(),
                point="persist.wal.replay",
                faults=self.faults,
                retrier=self.retrier,
            )
        offset = 0
        total = len(data)
        while offset < total:
            if offset + _FRAME.size > total:
                replay.truncation_reason = "torn frame header"
                break
            length, crc = _FRAME.unpack_from(data, offset)
            if length > _MAX_FRAME_BYTES:
                replay.truncation_reason = f"implausible frame length {length}"
                break
            start = offset + _FRAME.size
            end = start + length
            if end > total:
                replay.truncation_reason = "torn frame payload"
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                replay.truncation_reason = "frame checksum mismatch"
                break
            header, nul, body = payload.partition(b"\0")
            try:
                record = json.loads(header.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                replay.truncation_reason = "frame header is not valid JSON"
                break
            if nul:
                record[BODY_KEY] = body
            if isinstance(record, dict) and record.get("op") == "epoch":
                replay.epoch = int(record.get("id", 0))
                replay.records.clear()  # restart marker: prior records are pre-checkpoint
            else:
                replay.records.append(record)
            offset = end
        replay.valid_bytes = offset
        replay.truncated_bytes = total - offset
        if replay.was_truncated:
            replay.tail = bytes(data[offset:])
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(offset)
            except OSError:
                # Leave the tail in place; the next replay will hit the
                # same clean truncation point.
                pass
        return replay
