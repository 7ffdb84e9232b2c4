"""Append-only, checksummed write-ahead log.

Between checkpoints every acknowledged append (streaming ingest batches and
direct row inserts) is framed into the WAL so a crashed process can replay
it on top of the last snapshot.  The format is deliberately simple:

``[length:u32][crc32:u32][payload bytes]``

where the payload is a UTF-8 JSON record.  Replay walks the frames from the
start and stops at the first torn or corrupted frame — a crash mid-write
leaves a torn tail, and a bit flip breaks the CRC; either way everything
*before* the bad frame is intact and everything after it is untrusted, so
the tail is truncated (standard redo-log semantics).

Every log begins with an ``epoch`` record naming the checkpoint it extends.
A manifest rename and the log reset that follows it are two separate
filesystem operations; the epoch lets a reopening process detect a WAL that
predates (or outlives) the manifest it found and discard it instead of
double-applying records.  An epoch record is a *log restart marker*: replay
discards everything accumulated before it, so a reset that failed to
truncate the file (ENOSPC, flaky disk) is still safe — the next successful
append stamps the new epoch first and the stale prefix is dropped on
replay.

Failure handling: a torn in-process write is rolled back by truncating the
file to its pre-append size, transient OS errors (EIO/EAGAIN) are retried
through its :class:`~repro.resilience.Retrier`, and every OS-level
failure that escapes surfaces as a typed :class:`~repro.errors.WALError`
carrying the log path.  Fault injection (``persist.wal.append``,
``persist.wal.reset``, ``persist.wal.replay``) is strictly opt-in via the
``faults=`` argument.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Iterable

import numpy as np

from repro.errors import PersistenceError, WALError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import FaultInjector, Retrier

__all__ = ["WalReplay", "WriteAheadLog"]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)


def coerce_json_scalar(value: Any) -> Any:
    """NumPy scalar -> plain Python (the one coercion table for persist/).

    Used both as the WAL's ``json.dumps`` default (producers hand rows
    straight from NumPy) and by the warehouse's metadata sanitizer.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"persist payloads must be JSON-serializable; got {type(value).__name__}")

#: Sanity bound on a single frame: a "length" beyond this is corruption, not
#: a real record (protects replay from allocating garbage-sized buffers).
_MAX_FRAME_BYTES = 256 * 1024 * 1024


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
    """A single append-only log file with CRC-framed JSON records."""

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

    def append(self, record: dict[str, Any]) -> int:
        """Frame and append one record; returns the log size afterwards."""
        payload = json.dumps(
            record, separators=(",", ":"), default=coerce_json_scalar
        ).encode("utf-8")
        if len(payload) > _MAX_FRAME_BYTES:
            raise PersistenceError(
                f"WAL record of {len(payload)} bytes exceeds the frame limit "
                f"({_MAX_FRAME_BYTES} bytes); checkpoint instead of logging it"
            )
        with self._lock:
            try:
                return self._append_payload(payload)
            except OSError as exc:
                if self.retrier is not None and self.retrier.is_transient(exc):
                    try:
                        return self.retrier.retry(
                            lambda: self._append_payload(payload),
                            first_error=exc,
                            operation="wal.append",
                        )
                    except OSError as final:
                        exc = final
                raise WALError(
                    f"WAL append to {self.path} failed: {exc.strerror or exc}",
                    path=str(self.path),
                    errno_code=exc.errno,
                ) from exc

    def append_all(self, records: Iterable[dict[str, Any]]) -> None:
        """Append several records as one unit: every frame lands, or the log
        (and an epoch stamp still pending) is left as it was.

        A redo record spanning frames — a created table and its rows, a batch
        over the chunk size — must not survive in part: the caller rolls the
        change back in memory, and a replayed prefix would resurrect it.
        """
        with self._lock:
            size, pending_epoch = self.size_bytes, self._pending_epoch
            try:
                for record in records:
                    self.append(record)
            except BaseException:
                self._rollback(size)
                self._pending_epoch = pending_epoch
                raise

    def _append_payload(self, payload: bytes) -> int:
        handle = self._open_handle()
        if self._pending_epoch is not None:
            epoch_payload = json.dumps(
                {"op": "epoch", "id": int(self._pending_epoch)}, separators=(",", ":")
            ).encode("utf-8")
            self._write_frame(handle, epoch_payload)
            self._pending_epoch = None
            handle = self._open_handle()
        return self._write_frame(handle, payload)

    def _write_frame(self, handle: BinaryIO, payload: bytes) -> int:
        start = handle.tell()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        try:
            action = None
            if self.faults is not None:
                action = self.faults.hit("persist.wal.append", path=self.path)
            if action is not None and action.kind == "torn_write":
                cut = max(1, int(len(frame) * action.fraction))
                handle.write(frame[:cut])
                handle.flush()
                raise OSError(
                    _errno.EIO,
                    f"injected torn write ({cut}/{len(frame)} bytes)",
                    str(self.path),
                )
            if action is not None and action.kind == "bit_flip":
                frame = self.faults.apply(action, frame)
            handle.write(frame)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError:
            self._rollback(start)
            raise
        return handle.tell()

    def _rollback(self, size: int) -> None:
        """Truncate a torn frame back off the log so a retry starts clean."""
        try:
            self.close()
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
        except OSError:
            # Rollback is best-effort: if even the truncate fails, the CRC
            # framing makes the torn tail detectable (and truncatable) at
            # the next replay.
            pass

    def reset(self, epoch: int) -> None:
        """Truncate the log and stamp it with the checkpoint epoch it extends.

        If truncation or stamping fails the epoch stays *pending*: the next
        successful append writes the epoch frame first, and since an epoch
        frame is a restart marker on replay, any stale prefix left by the
        failed truncate is discarded rather than double-applied.
        """
        with self._lock:
            self._pending_epoch = int(epoch)
            try:
                if self.faults is not None:
                    self.faults.hit("persist.wal.reset", path=self.path)
                self.close()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "wb"):
                    pass  # truncate
                handle = self._open_handle()
                epoch_payload = json.dumps(
                    {"op": "epoch", "id": int(epoch)}, separators=(",", ":")
                ).encode("utf-8")
                self._write_frame(handle, epoch_payload)
                self._pending_epoch = None
            except OSError as exc:
                raise WALError(
                    f"WAL reset of {self.path} failed: {exc.strerror or exc}",
                    path=str(self.path),
                    errno_code=exc.errno,
                ) from exc

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

    def _read_log_bytes(self) -> bytes:
        data = self.path.read_bytes()
        if self.faults is not None:
            data = self.faults.filter_bytes("persist.wal.replay", data, path=self.path)
        return data

    def replay(self, repair: bool = True) -> WalReplay:
        """Read every intact record; truncate (or just skip) a bad tail.

        ``repair=True`` (the default during recovery) physically truncates
        the file at the first bad frame so subsequent appends extend a
        clean log.  An epoch record mid-log restarts accumulation: records
        before it belong to an older checkpoint that already contains them.
        """
        replay = WalReplay()
        if not self.path.exists():
            return replay
        self.close()  # never replay through a buffered write handle
        try:
            try:
                data = self._read_log_bytes()
            except OSError as exc:
                # Replay is an idempotent read: retrying cannot double-apply
                # anything, and a failed read says nothing about the bytes on
                # disk — so *any* OSError is worth retrying before the caller
                # escalates to quarantining a perfectly good log.
                if self.retrier is None:
                    raise
                data = self.retrier.retry(
                    self._read_log_bytes,
                    first_error=exc,
                    operation="wal.replay",
                    retry_all=True,
                )
        except OSError as exc:
            raise WALError(
                f"WAL replay of {self.path} failed: {exc.strerror or exc}",
                path=str(self.path),
                errno_code=exc.errno,
            ) from exc
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
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                replay.truncation_reason = "frame payload is not valid JSON"
                break
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
            if repair:
                try:
                    with open(self.path, "r+b") as handle:
                        handle.truncate(offset)
                except OSError:
                    # Leave the tail in place; the next replay will hit the
                    # same clean truncation point.
                    pass
        return replay
