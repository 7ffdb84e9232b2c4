"""Columnar table snapshots: one ``.npz`` segment per column batch.

A checkpoint, a large redo record and the archive tier write a table as a
sequence of segments, each a contiguous row range of all columns, into the
store's segment pool (through ``DurableStore.write_segments``, their one
caller).  The entry for a segment records its file, row count and
lightweight per-column statistics (null count, min, max) so tooling can
reason about a snapshot without opening it.  A smaller redo record carries
one segment's bytes in its WAL frame (:func:`segment_bytes`).

On-disk format (since ``FORMAT_VERSION`` 2 in :mod:`repro.persist.store`): a
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

Bytes reach the disk and come back through :mod:`repro.persist.files`
(fault arrival, retry, sync); this module knows only the layout.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable

import numpy as np

from repro.db.column import Column, int_width
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType, null_value, python_value
from repro.errors import PersistenceError, SnapshotReadError, SnapshotWriteError
from repro.persist import files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import FaultInjector
    from repro.resilience.retry import Retrier

__all__ = [
    "schema_to_payload",
    "schema_from_payload",
    "write_table_segments",
    "read_table_segments",
    "segment_bytes",
    "read_segment_bytes",
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


def _encode_segment(piece: Table) -> tuple[dict[str, np.ndarray], dict[str, dict[str, Any]]]:
    """One segment as its npz members plus the manifest's per-column stats.

    Per column ``v__<name>`` holds the values and ``m__<name>`` the validity
    mask — the mask only when the segment has a NULL in that column.  INT64
    values are stored at the narrowest signed width holding the min and max
    of the segment's valid values, with 0 in the NULL slots (the sentinel,
    ``INT64`` min, would pin every nullable column at 8 bytes); FLOAT64 and
    BOOL go as they are.  The min/max that pick the width are the ones the
    manifest records, so they are computed once — over the column as it is
    stored (:attr:`Column.stored`), never widened first.
    """
    members: dict[str, np.ndarray] = {}
    stats: dict[str, dict[str, Any]] = {}
    for name in piece.schema.names:
        column = piece.column(name)
        dtype, values, validity = column.dtype, column.stored, column.validity
        null_count = column.null_count
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
                values = np.where(validity, values, values.dtype.type(0))
            values = values.astype(int_width(low, high), copy=False)
        members[f"v__{name}"] = values
        if null_count:
            members[f"m__{name}"] = validity
        stats[name] = {
            "null_count": null_count,
            "min": python_value(dtype, low),
            "max": python_value(dtype, high),
        }
    return members, stats


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
    *,
    point: str = "persist.snapshot.write",
    retrier: "Retrier | None" = None,
    sync_root: Path | None = None,
) -> list[dict[str, Any]]:
    """Write ``table`` as npz segments under ``directory``.

    Returns one manifest entry per segment: relative file name, row range
    and per-column stats.  An empty table writes no segment files (schema
    alone reconstructs it).  Each file is one :func:`files.write_file` at
    ``point`` (checkpoints and bulk loads ``persist.snapshot.write``, the
    archive tier ``persist.archive.write``); with a ``sync_root`` (the store
    root) each file and every directory on its path below it is synced.  OS
    failures surface as typed :class:`SnapshotWriteError` carrying the
    path.  The caller keeps ``table`` from changing underneath (every user
    holds the commit lock): members are written from views of its buffers.
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
        with files.raising(SnapshotWriteError, "snapshot segment write of", path):
            files.write_file(
                path,
                lambda handle: _write_members(handle, members),
                point=point,
                faults=faults,
                retrier=retrier,
                sync_root=sync_root,
            )
        entries.append({"file": file_name, "start_row": start, "rows": stop - start, "columns": column_stats})
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


def segment_bytes(table: Table) -> bytes:
    """``table`` as one segment: the bytes its file would hold."""
    buffer = io.BytesIO()
    _write_members(buffer, _encode_segment(table)[0])
    return buffer.getvalue()


def read_table_segments(
    directory: Path,
    name: str,
    schema: Schema,
    entries: list[dict[str, Any]],
    faults: "FaultInjector | None" = None,
    on_segment_error: Callable[[dict[str, Any], Path, Exception], bool] | None = None,
    retrier: "Retrier | None" = None,
    *,
    point: str = "persist.snapshot.read",
) -> Table:
    """Rebuild a table from its snapshot segments (in manifest order).

    Every column is one array allocated from the entries' row counts; each
    segment is one :func:`files.read` at ``point`` and decodes straight into
    its row range of it.  An unreadable segment raises a typed
    :class:`SnapshotReadError` — unless ``on_segment_error`` is given and
    returns True for it, in which case the segment is skipped (the caller
    quarantines it), the next one takes its place and the table is the
    surviving rows.
    """
    capacity = sum(int(entry["rows"]) for entry in entries)
    values = {c.name: np.empty(capacity, dtype=c.dtype.numpy_dtype) for c in schema}
    validity = {c.name: np.empty(capacity, dtype=bool) for c in schema}
    read = partial(files.read, point=point, faults=faults, retrier=retrier)
    filled = 0
    for entry in entries:
        path = directory / entry["file"]
        rows = slice(filled, filled + int(entry["rows"]))
        try:
            if not path.is_file():
                raise SnapshotReadError(f"snapshot segment missing: {path}", path=str(path))
            _load_segment(
                path,
                schema,
                {n: v[rows] for n, v in values.items()},
                {n: v[rows] for n, v in validity.items()},
                partial(read, path),
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


def read_segment_bytes(data: bytes, name: str, schema: Schema, rows: int) -> Table:
    """The ``rows``-row table one segment's bytes hold, decoded as its file is."""
    values = {c.name: np.empty(rows, dtype=c.dtype.numpy_dtype) for c in schema}
    validity = {c.name: np.empty(rows, dtype=bool) for c in schema}
    source = Path(f"<segment of {name!r}>")
    _load_segment(source, schema, values, validity, lambda decode: decode(io.BytesIO(data)))
    return Table(name, schema, {c.name: Column(c.dtype, values[c.name], validity[c.name]) for c in schema})


def _load_segment(
    path: Path,
    schema: Schema,
    values: dict[str, np.ndarray],
    validity: dict[str, np.ndarray],
    read: Callable[[Callable[[BinaryIO], None]], None],
) -> None:
    """Decode the segment ``read`` hands over (its file at ``path``, or a
    redo record's bytes) into ``values`` / ``validity``: per column, views
    of exactly the rows its entry or record promised."""

    def decode(handle: BinaryIO) -> None:
        with np.load(handle, allow_pickle=False) as payload:
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
        read(decode)
    except SnapshotReadError:
        raise
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise SnapshotReadError(
            f"snapshot segment {path} unreadable: {exc}",
            path=str(path),
            errno_code=getattr(exc, "errno", None),
        ) from exc
