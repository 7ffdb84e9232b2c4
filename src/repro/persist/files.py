"""The one way a persist file is written and read.

WAL frames, pool segments (checkpoint, bulk-load, archive), the warehouse
and the manifest all go through here.  Each write or read attempt is one arrival at
its named fault point: a cooperative ``torn_write`` persists a prefix and
fails with ``EIO``, a ``bit_flip`` persists (or reads back) one flipped bit;
unarmed, a write streams straight into its file.  A write retries transient
errors, an idempotent read any ``OSError``.  JSON goes tmp + rename.  The
sync rule (``fsync=True``): every file is synced when written, and so is each
directory on its path below the store root, before any redo record or
manifest names it; a JSON rename syncs the directory it lands in (the
manifest's is the root).  The last ``OSError`` escapes, and :func:`raising`
turns it into the caller's typed error.
"""

from __future__ import annotations

import errno as _errno
import io
import json
import os
from contextlib import contextmanager
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterator, TypeVar, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.errors import StorageIOError
    from repro.resilience import FaultInjector, Retrier
    from repro.resilience.faults import FaultAction

__all__ = ["arrive", "put", "raising", "read", "retrying", "sync", "write_file", "write_json"]

T = TypeVar("T")
#: What a write puts: the bytes, or a function that streams them into a handle.
Payload = Union[bytes, Callable[[BinaryIO], Any]]


def arrive(point: str, path: Path, faults: FaultInjector | None) -> FaultAction | None:
    """One arrival at ``point``: raises, sleeps, or hands back a cooperative action."""
    return None if faults is None else faults.hit(point, path=path)


def put(
    handle: BinaryIO, payload: Payload, *, point: str, faults: FaultInjector | None, fsync: bool = False
) -> None:
    """Write ``payload`` into the file ``handle`` as one arrival at ``point``."""
    action = arrive(point, Path(handle.name), faults)
    if callable(payload) and action is not None:  # the fault needs the bytes in hand
        buffer = io.BytesIO()
        payload(buffer)
        payload = buffer.getvalue()
    if callable(payload):
        payload(handle)
    else:
        handle.write(payload if action is None else faults.apply(action, payload))
    handle.flush()
    if action is not None and action.kind == "torn_write":
        raise OSError(_errno.EIO, "injected torn write", handle.name)
    if fsync:
        os.fsync(handle.fileno())


def retrying(attempt: Callable[[], T], *, point: str, retrier: Retrier | None, read: bool = False) -> T:
    """Run ``attempt``; retry a write's transient ``OSError``, a read's any."""
    try:
        return attempt()
    except OSError as exc:
        if retrier is None or not (read or retrier.is_transient(exc)):
            raise
        return retrier.retry(attempt, first_error=exc, operation=point, retry_all=read)


@contextmanager
def raising(error: type[StorageIOError], action: str, path: Path) -> Iterator[None]:
    """Turn the ``OSError`` escaping the block into ``error`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        message = f"{action} {path} failed: {exc.strerror or exc}"
        raise error(message, path=str(path), errno_code=exc.errno) from exc


def write_file(
    path: Path,
    payload: Payload,
    *,
    point: str,
    faults: FaultInjector | None,
    retrier: Retrier | None,
    sync_root: Path | None,
) -> None:
    """(Re)write the whole file at ``path`` — a retry starts it afresh — and,
    given the store root as ``sync_root``, sync it by the rule."""

    def attempt() -> None:
        with open(path, "wb") as handle:
            put(handle, payload, point=point, faults=faults)
        if sync_root is not None:
            sync(path, sync_root)

    retrying(attempt, point=point, retrier=retrier)


def write_json(
    path: Path,
    payload: dict[str, Any],
    *,
    point: str,
    faults: FaultInjector | None,
    retrier: Retrier | None,
    sync_root: Path | None,
) -> None:
    """:func:`write_file` to a ``.tmp`` sibling, then rename it into place."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    write_file(tmp, data, point=point, faults=faults, retrier=retrier, sync_root=sync_root)
    tmp.replace(path)
    if sync_root is not None:
        sync(path.parent, sync_root)


def sync(path: Path, root: Path) -> None:
    """Sync ``path`` and each directory above it below ``root``."""
    above = takewhile(lambda parent: parent != root, path.parents)
    for entry in (path, *(above if root in path.parents else ())):
        fd = os.open(entry, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def read(
    path: Path,
    decode: Callable[[BinaryIO], T],
    *,
    point: str,
    faults: FaultInjector | None = None,
    retrier: Retrier | None = None,
) -> T:
    """``decode`` the file at ``path``; an armed injector corrupts the bytes first."""

    def attempt() -> T:
        if faults is None:
            with open(path, "rb") as handle:
                return decode(handle)
        return decode(io.BytesIO(faults.filter_bytes(point, path.read_bytes(), path=path)))

    return retrying(attempt, point=point, retrier=retrier, read=True)
