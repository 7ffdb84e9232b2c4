"""Columnar table snapshots: one ``.npz`` segment per column batch.

A checkpoint (and a bulk load, and the archive tier) writes a table as a
sequence of segments, each holding a contiguous row range of all columns.
The manifest entry for a segment records its row count and lightweight
per-column statistics (null count, min, max) so tooling can reason about a
snapshot without opening it.

On-disk format (``FORMAT_VERSION`` 2 in :mod:`repro.persist.store`): a
segment is a zip of ``.npy`` members, ``v__<column>`` for the values and
``m__<column>`` for the validity mask, the mask present only when the column
has a NULL in that segment.  INT64 values are stored at the narrowest signed
width (1, 2, 4 or 8 bytes) that holds the segment's valid values, NULL slots
as 0; FLOAT64 and BOOL as they are.  Numeric and boolean members are
``ZIP_STORED`` — writing one costs a copy, and its zip CRC-32 is what detects
a damaged byte — while string members stay ``ZIP_DEFLATED``.  Version-1
segments (every member deflated, INT64 at 8 bytes, a mask for every column)
are a special case of the same layout and read through the same decoder.

Strings are stored as fixed-width unicode arrays (``object`` arrays cannot
be saved without pickling, and pickled snapshots would tie the on-disk
format to Python internals); NULL positions are carried solely by the
validity bitmap and restored as ``None`` on read.
"""

from __future__ import annotations

import errno as _errno
import io
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable

import numpy as np

from repro.db.column import Column
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType, null_value, python_value
from repro.errors import PersistenceError, SnapshotReadError, SnapshotWriteError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import FaultInjector
    from repro.resilience.retry import Retrier

__all__ = [
    "schema_to_payload",
    "schema_from_payload",
    "write_table_segments",
    "read_table_segments",
]

#: Default rows per snapshot segment.
DEFAULT_ROWS_PER_SEGMENT = 65536


def schema_to_payload(schema: Schema) -> list[list[Any]]:
    """Schema -> JSON-friendly ``[[name, dtype, nullable], ...]``."""
    return [[c.name, c.dtype.value, bool(c.nullable)] for c in schema]


def schema_from_payload(payload: list[list[Any]]) -> Schema:
    return Schema(
        ColumnDef(name, DataType(dtype), bool(nullable)) for name, dtype, nullable in payload
    )


#: Appended to every stored string: NumPy's fixed-width unicode dtype strips
#: *trailing NUL characters* on read, so "a\x00" would silently come back as
#: "a".  One guaranteed non-NUL final character protects any trailing NULs;
#: decode strips exactly this one character back off.
_STRING_PAD = "\x01"


#: Signed widths an INT64 member may be stored at, narrowest first.
_INT_WIDTHS = tuple(np.dtype(code) for code in ("<i1", "<i2", "<i4", "<i8"))


def _encode_segment(piece: Table) -> tuple[dict[str, np.ndarray], dict[str, dict[str, Any]]]:
    """One segment as its npz members plus the manifest's per-column stats.

    Per column ``v__<name>`` holds the values and ``m__<name>`` the validity
    mask — the mask only when the segment has a NULL in that column.  INT64
    values are stored at the narrowest signed width holding the min and max
    of the segment's valid values, with 0 in the NULL slots (the sentinel,
    ``INT64`` min, would pin every nullable column at 8 bytes); FLOAT64 and
    BOOL go as they are.  The min/max that pick the width are the ones the
    manifest records, so they are computed once.
    """
    members: dict[str, np.ndarray] = {}
    stats: dict[str, dict[str, Any]] = {}
    for name in piece.schema.names:
        column = piece.column(name)
        dtype, values, validity = column.dtype, column.values, column.validity
        null_count = len(validity) - int(np.count_nonzero(validity))
        present = values[validity] if null_count else values
        low = high = None
        if len(present):
            if dtype is DataType.STRING:
                low, high = min(present), max(present)
            else:
                low, high = present.min(), present.max()
        if dtype is DataType.STRING:
            # Replace None (the STRING null sentinel) before the unicode cast.
            values = np.asarray(
                [("" if v is None else str(v)) + _STRING_PAD for v in values], dtype=np.str_
            )
        elif dtype is DataType.INT64:
            if null_count:
                values = np.where(validity, values, 0)
            values = values.astype(_int_width(low, high), copy=False)
        members[f"v__{name}"] = values
        if null_count:
            members[f"m__{name}"] = validity
        stats[name] = {
            "null_count": null_count,
            "min": python_value(dtype, low),
            "max": python_value(dtype, high),
        }
    return members, stats


def _int_width(low: Any, high: Any) -> np.dtype:
    """The narrowest signed dtype holding ``low..high`` (an all-NULL segment
    has neither and stores its zeros at one byte)."""
    if low is None:
        return _INT_WIDTHS[0]
    return next(
        width for width in _INT_WIDTHS if np.iinfo(width).min <= low and high <= np.iinfo(width).max
    )


def _decode_member(
    col_def: ColumnDef,
    stored: np.ndarray,
    mask: np.ndarray | None,
    values: np.ndarray,
    validity: np.ndarray,
) -> None:
    """Decode one column of one segment into its row range of the table's
    arrays: ``values`` / ``validity`` are views, written in place.

    Serves both format generations: the assignment widens a narrowed member
    to the schema's dtype, and an absent mask means all valid.
    """
    validity[:] = True if mask is None else mask
    if col_def.dtype is DataType.STRING:
        values[:] = [str(v)[:-1] for v in stored]
    else:
        values[:] = stored
    if mask is not None and col_def.dtype in (DataType.INT64, DataType.STRING):
        # Stored as 0 / "": back to the sentinel a live column holds there.
        values[~validity] = null_value(col_def.dtype)


def write_table_segments(
    directory: Path,
    table: Table,
    rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
    file_prefix: str | None = None,
    faults: "FaultInjector | None" = None,
) -> list[dict[str, Any]]:
    """Write ``table`` as npz segments under ``directory``.

    Returns one manifest entry per segment: relative file name, row range
    and per-column stats.  An empty table writes no segment files (schema
    alone reconstructs it).  OS failures surface as typed
    :class:`SnapshotWriteError` carrying the segment path.  The caller keeps
    ``table`` from changing underneath (every user holds the commit lock):
    members are written from views of its buffers, not copies.
    """
    if rows_per_segment < 1:
        raise PersistenceError(f"rows_per_segment must be positive, got {rows_per_segment}")
    directory.mkdir(parents=True, exist_ok=True)
    prefix = file_prefix if file_prefix is not None else table.name
    entries: list[dict[str, Any]] = []
    for index, start in enumerate(range(0, table.num_rows, rows_per_segment)):
        stop = min(start + rows_per_segment, table.num_rows)
        members, column_stats = _encode_segment(table.slice(start, stop))
        file_name = f"{prefix}__{index:05d}.npz"
        path = directory / file_name
        try:
            _write_segment(path, members, faults)
        except OSError as exc:
            raise SnapshotWriteError(
                f"snapshot segment {path} could not be written: {exc.strerror or exc}",
                path=str(path),
                errno_code=exc.errno,
            ) from exc
        entries.append(
            {
                "file": file_name,
                "start_row": start,
                "rows": stop - start,
                "columns": column_stats,
            }
        )
    return entries


def _write_members(handle: BinaryIO, members: dict[str, np.ndarray]) -> None:
    """The one segment writer: ``members`` as ``.npy`` entries of a zip.

    The container ``np.savez`` writes (so ``np.load`` reads it, and every
    member keeps its CRC-32 — the only corruption detector of a stored
    member), with the storage method picked per member from its dtype alone:
    fixed-width unicode deflates 100-fold (UCS-4 text is mostly zero bytes),
    numeric and boolean members are stored — deflate spent 70–80 % of a
    checkpoint shaving 6 % off float noise.  Every ``ZipInfo`` carries the
    zip epoch instead of the clock, so equal rows give byte-equal files.
    """
    with zipfile.ZipFile(handle, mode="w", allowZip64=True) as archive:
        for key, array in members.items():
            info = zipfile.ZipInfo(f"{key}.npy")
            info.compress_type = (
                zipfile.ZIP_DEFLATED if array.dtype.kind == "U" else zipfile.ZIP_STORED
            )
            with archive.open(info, mode="w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _write_segment(path: Path, members: dict[str, np.ndarray], faults: "FaultInjector | None") -> None:
    action = None
    if faults is not None:
        action = faults.hit("persist.snapshot.write", path=path)
    if action is None:
        with open(path, "wb") as handle:
            _write_members(handle, members)
        return
    # Cooperative faults need the full payload in hand: torn_write persists
    # only a prefix then fails the call, bit_flip persists silently-corrupt
    # bytes (caught later by the read path, never here).
    buffer = io.BytesIO()
    _write_members(buffer, members)
    data = faults.apply(action, buffer.getvalue())
    path.write_bytes(data)
    if action.kind == "torn_write":
        raise OSError(_errno.EIO, "injected torn write", str(path))


def read_table_segments(
    directory: Path,
    name: str,
    schema: Schema,
    entries: list[dict[str, Any]],
    faults: "FaultInjector | None" = None,
    on_segment_error: Callable[[dict[str, Any], Path, Exception], bool] | None = None,
    retrier: "Retrier | None" = None,
) -> Table:
    """Rebuild a table from its snapshot segments (in manifest order).

    Every column is one array allocated from the entries' row counts; each
    segment decodes straight into its row range of it.  An unreadable
    segment raises a typed :class:`SnapshotReadError` — unless
    ``on_segment_error`` is given and returns True for it, in which case the
    segment is skipped (the caller quarantines it), the next one takes its
    place and the table is the surviving rows.
    """
    capacity = sum(int(entry["rows"]) for entry in entries)
    values = {c.name: np.empty(capacity, dtype=c.dtype.numpy_dtype) for c in schema}
    validity = {c.name: np.empty(capacity, dtype=bool) for c in schema}
    filled = 0
    for entry in entries:
        path = directory / entry["file"]
        rows = slice(filled, filled + int(entry["rows"]))
        try:
            _load_segment(
                path,
                schema,
                {n: v[rows] for n, v in values.items()},
                {n: v[rows] for n, v in validity.items()},
                faults,
                retrier,
            )
        except SnapshotReadError as exc:
            if on_segment_error is not None and on_segment_error(entry, path, exc):
                continue
            raise
        filled = rows.stop
    columns = {
        c.name: Column(c.dtype, values[c.name][:filled], validity[c.name][:filled]) for c in schema
    }
    return Table(name, schema, columns)


def _open_segment(path: Path, faults: "FaultInjector | None") -> BinaryIO:
    if faults is None:
        return open(path, "rb")
    # A cooperative read fault corrupts the bytes, so it needs them in hand.
    return io.BytesIO(faults.filter_bytes("persist.snapshot.read", path.read_bytes(), path=path))


def _load_segment(
    path: Path,
    schema: Schema,
    values: dict[str, np.ndarray],
    validity: dict[str, np.ndarray],
    faults: "FaultInjector | None",
    retrier: "Retrier | None" = None,
) -> None:
    """Decode the segment at ``path`` into ``values`` / ``validity``: per
    column, views of exactly the rows the manifest entry promised."""

    def decode() -> None:
        with _open_segment(path, faults) as handle, np.load(handle, allow_pickle=False) as payload:
            for col_def in schema:
                value_key, mask_key = f"v__{col_def.name}", f"m__{col_def.name}"
                if value_key not in payload:
                    raise SnapshotReadError(
                        f"segment {path} lacks column {col_def.name!r} "
                        f"(snapshot and schema disagree)",
                        path=str(path),
                    )
                stored = payload[value_key]
                mask = payload[mask_key] if mask_key in payload else None
                expected = values[col_def.name].shape
                if stored.shape != expected or (mask is not None and mask.shape != expected):
                    raise SnapshotReadError(
                        f"segment {path} holds column {col_def.name!r} in shape "
                        f"{stored.shape}; its manifest entry recorded {expected}",
                        path=str(path),
                    )
                _decode_member(
                    col_def, stored, mask, values[col_def.name], validity[col_def.name]
                )

    try:
        if not path.is_file():
            raise SnapshotReadError(f"snapshot segment missing: {path}", path=str(path))
        try:
            decode()
        except OSError as exc:
            # Segment reads are idempotent, so any OSError — not just the
            # transient set — is retried before the caller quarantines bytes
            # that may be perfectly intact on disk.
            if retrier is None:
                raise
            retrier.retry(decode, first_error=exc, operation="snapshot.read", retry_all=True)
    except SnapshotReadError:
        raise
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise SnapshotReadError(
            f"snapshot segment {path} unreadable: {exc}",
            path=str(path),
            errno_code=getattr(exc, "errno", None),
        ) from exc
