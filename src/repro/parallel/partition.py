"""Partition maps: contiguous row-range shards of a base table.

A partition map is a JSON-friendly payload stored in the catalog's
per-table metadata (key :data:`PARTITION_META_KEY`), so it commits with the
table state and pinned snapshots see the map that matches their data:

.. code-block:: python

    {
        "version": 1,
        "built_rows": 200000,          # table length when the map was built
        "scheme": {"kind": "rows", "partitions": 4},
        "partitions": [{"id": 0, "start": 0, "rows": 50000}, ...],
    }

Partitions are contiguous, disjoint and ordered, which is what makes the
merge side trivially order-preserving.  Tables are append-only, so a map
stays valid as the table grows: rows past ``built_rows`` form an implicit
*tail partition*.

A map is row ranges and nothing else: what a query may skip is decided by
the block zone maps on the column buffers (:func:`repro.db.operators.scan.
kept_rows`), for partitioned and serial scans alike.  Maps written before
that carried per-partition ``columns`` statistics; they are ignored.  A
PR-5 snapshot segment manifest converts into a map as is
(:func:`partition_map_from_segments`).
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ReproError

__all__ = [
    "PARTITION_META_KEY",
    "PARTITION_MAP_VERSION",
    "build_partition_map",
    "partition_map_from_segments",
    "partition_entries",
    "range_partition_order",
    "hash_partition_order",
]

#: Catalog table-meta key under which partition maps are committed.
PARTITION_META_KEY = "partitions"

PARTITION_MAP_VERSION = 1


def build_partition_map(
    table: Table,
    num_partitions: int,
    scheme: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Shard ``table`` into ``num_partitions`` contiguous row ranges.

    Row counts differ by at most one across partitions.  Empty shards are
    dropped (a 10-row table asked for 16 partitions gets 10).
    """
    if num_partitions < 1:
        raise ReproError(f"num_partitions must be positive, got {num_partitions}")
    num_rows = table.num_rows
    bounds = np.linspace(0, num_rows, num_partitions + 1).astype(np.int64)
    entries: list[dict[str, Any]] = []
    for index in range(num_partitions):
        start, stop = int(bounds[index]), int(bounds[index + 1])
        if stop <= start:
            continue
        entries.append({"id": len(entries), "start": start, "rows": stop - start})
    return {
        "version": PARTITION_MAP_VERSION,
        "built_rows": num_rows,
        "scheme": scheme or {"kind": "rows", "partitions": num_partitions},
        "partitions": entries,
    }


def partition_map_from_segments(
    table: Table, segment_entries: list[dict[str, Any]]
) -> dict[str, Any]:
    """Convert a PR-5 snapshot segment manifest into a partition map.

    Segment entries carry ``start_row`` / ``rows``, so a reopened store fans
    out without rescanning a single byte.  Entries must tile a prefix of the
    table contiguously from row 0 (manifest order); rows appended since the
    checkpoint become the implicit tail partition.
    """
    entries: list[dict[str, Any]] = []
    expected_start = 0
    for entry in segment_entries:
        start = int(entry["start_row"])
        rows = int(entry["rows"])
        if start != expected_start:
            raise ReproError(
                f"segment manifest is not contiguous: expected start row "
                f"{expected_start}, got {start}"
            )
        entries.append({"id": len(entries), "start": start, "rows": rows})
        expected_start = start + rows
    if expected_start > table.num_rows:
        raise ReproError(
            f"segment manifest covers {expected_start} rows but table "
            f"{table.name!r} has only {table.num_rows}"
        )
    return {
        "version": PARTITION_MAP_VERSION,
        "built_rows": expected_start,
        "scheme": {"kind": "segments", "segments": len(entries)},
        "partitions": entries,
    }


def partition_entries(payload: dict[str, Any], num_rows: int) -> list[dict[str, Any]] | None:
    """The payload's partitions plus the implicit tail, validated for ``num_rows``.

    Returns None when the map cannot describe the table (fewer rows than
    when it was built — the table was replaced, not appended to).
    """
    built_rows = int(payload.get("built_rows", -1))
    entries = list(payload.get("partitions", ()))
    if built_rows < 0 or built_rows > num_rows:
        return None
    total = sum(int(e["rows"]) for e in entries)
    if total != built_rows:
        return None
    if num_rows > built_rows:
        entries.append({"id": len(entries), "start": built_rows, "rows": num_rows - built_rows})
    return entries


# -- physical repartitioning orders ---------------------------------------------


def range_partition_order(table: Table, column: str) -> np.ndarray:
    """Stable row permutation sorting the table by ``column`` (NULLs last).

    Clustering rows by key value makes contiguous row-range partitions —
    and the 1024-row blocks inside them — coincide with key ranges, which is
    what gives range predicates their pruning power.
    """
    col = table.column(column)
    validity = np.asarray(col.validity, dtype=bool)
    if col.dtype is DataType.STRING:
        keys = np.asarray(["" if v is None else str(v) for v in col.values], dtype=object)
        order = np.argsort(keys, kind="stable")
    else:
        order = np.argsort(np.asarray(col.values), kind="stable")
    # Stable two-pass: valid rows in key order first, NULL rows after.
    return np.concatenate([order[validity[order]], order[~validity[order]]])


def hash_partition_order(
    table: Table, column: str, num_partitions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable permutation clustering rows by a deterministic hash bucket.

    Returns ``(order, bucket_ids_sorted)``.  The hash is seed-independent
    (crc32 for strings, value-derived for numerics) so restarted
    processes agree on the bucketing.
    """
    if num_partitions < 1:
        raise ReproError(f"num_partitions must be positive, got {num_partitions}")
    col = table.column(column)
    validity = np.asarray(col.validity, dtype=bool)
    if col.dtype is DataType.STRING:
        buckets = np.fromiter(
            (
                zlib.crc32(str(v).encode("utf-8")) % num_partitions if ok else 0
                for v, ok in zip(col.values, validity)
            ),
            dtype=np.int64,
            count=len(col),
        )
    else:
        values = np.asarray(col.values)
        as_int = np.nan_to_num(values.astype(np.float64), nan=0.0).view(np.uint64)
        # Fibonacci-style multiplicative mix keeps adjacent values apart.
        mixed = as_int * np.uint64(11400714819323198485)
        buckets = (mixed >> np.uint64(33)).astype(np.int64) % num_partitions
    buckets[~validity] = 0  # NULLs all land in bucket 0
    order = np.argsort(buckets, kind="stable")
    return order, buckets[order]
