"""Immutable catalog snapshots — the storage half of snapshot isolation.

A :class:`CatalogSnapshot` is a frozen view of the catalog taken at one
commit boundary: the version counter and one pinned :class:`~repro.db.
table.Table` per base table.  Pinning is O(tables), not O(rows): a pinned
table shares the live table's immutable column objects, so the snapshot
costs a dict copy per table and no data movement.  ``Table.append_rows``
*replaces* a table's column mapping rather than mutating it, which is
exactly what makes the shared columns safe — a concurrent ingest commit
builds new columns and swaps them in; the pinned view keeps the old ones.

Readers enter a snapshot with :meth:`repro.db.catalog.Catalog.reading`,
after which every catalog lookup on that thread resolves through the pin.
Statistics are computed lazily *from the pinned tables* (seeded with the
live catalog's cached stats when they were already fresh at pin time), so
a planner probing a snapshot never observes statistics newer than the data
it will scan.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

from repro.db.stats import TableStats, compute_table_stats
from repro.db.table import Table
from repro.errors import CatalogError

__all__ = ["CatalogSnapshot", "PinStack"]


class PinStack(threading.local):
    """Per-thread stack of pinned snapshots (innermost pin wins).

    Subclassing ``threading.local`` runs ``__init__`` once per accessing
    thread, so ``.pins`` always exists: readers get a plain attribute load
    instead of ``getattr(local, "pins", None)``, whose internal
    AttributeError on never-pinned threads costs close to a microsecond on
    the version-check path the plan cache hits for every query.
    """

    def __init__(self) -> None:
        self.pins: list = []


class CatalogSnapshot:
    """A frozen ``(version, tables, stats)`` view of one catalog commit."""

    __slots__ = ("version", "_tables", "_stats", "_meta")

    def __init__(
        self,
        version: int,
        tables: dict[str, Table],
        stats: dict[str, TableStats] | None = None,
        meta: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        self.version = version
        self._tables = tables
        self._stats: dict[str, TableStats] = dict(stats) if stats else {}
        #: Per-table metadata captured in the same commit as the tables
        #: (see :meth:`repro.db.catalog.Catalog.set_table_meta`).  The
        #: archive tier keeps its stats overlay and segment list here;
        #: reading the *live* values from a pinned thread would pair one
        #: commit's tables with another commit's archive state — e.g. a
        #: live overlay over pinned stats double-counts rows archived
        #: after the pin.
        self._meta = {name: dict(entry) for name, entry in meta.items()} if meta else {}

    # -- lookup (mirrors the Catalog read surface) ----------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r} in snapshot@v{self.version}; known tables: {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def stats(
        self, name: str, on_computed: Callable[[str, TableStats, int], None] | None = None
    ) -> TableStats:
        """Statistics of the *pinned* table (lazily computed, then cached).

        A duplicate compute under a thread race is harmless — both threads
        derive identical stats from the same immutable pinned table and the
        dict store is atomic — so no lock is needed here.  ``on_computed``
        is told ``(name, stats, version)`` when they had to be computed: the
        catalog offers them to its live cache, which every query would
        otherwise bypass (queries always read through a pin).
        """
        cached = self._stats.get(name)
        if cached is None:
            cached = compute_table_stats(self.table(name))
            self._stats[name] = cached
            if on_computed is not None:
                on_computed(name, cached, self.version)
        overlay = self.table_meta(name, "stats_overlay")
        return overlay(cached) if overlay is not None else cached

    def table_meta(self, name: str, key: str, default: Any = None) -> Any:
        """Per-table metadata frozen at capture time."""
        entry = self._meta.get(name)
        if entry is None:
            return default
        return entry.get(key, default)

    def total_bytes(self) -> int:
        return sum(table.byte_size() for table in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CatalogSnapshot(version={self.version}, tables={sorted(self._tables)})"
