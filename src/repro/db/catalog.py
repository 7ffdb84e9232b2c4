"""System catalog: the registry of base tables and their statistics.

The catalog owns every base :class:`~repro.db.table.Table`, keeps their
:class:`~repro.db.stats.TableStats` fresh, and exposes lookups used by the
planner, the model harvester and the storage optimiser.

Concurrency model: all mutations (DDL, ``mark_dirty`` version bumps) are
serialized under one re-entrant *commit lock*; writers such as
``Database.insert_rows`` hold it across an append **and** its version bump
so the pair commits atomically (batch granularity).  Readers never block —
they either read live state (plain attribute reads of immutable objects)
or pin a :class:`~repro.db.snapshot.CatalogSnapshot` via :meth:`reading`,
after which every lookup on that thread resolves through the pin until the
context exits.  The pin is thread-local, so concurrent queries on other
threads are unaffected.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.db.schema import Schema
from repro.db.snapshot import CatalogSnapshot, PinStack
from repro.db.stats import TableStats, compute_table_stats, merge_table_stats
from repro.db.table import Table
from repro.errors import CatalogError

__all__ = ["Catalog"]


class Catalog:
    """A registry mapping table names to tables and their statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._stats_dirty: set[str] = set()
        #: Per-table metadata committed alongside the tables (the archive
        #: tier keeps its stats overlay and frozen segment list here).
        #: Lives in the catalog — not the Database façade — so
        #: :meth:`snapshot` captures it in the same commit as the tables it
        #: describes and pinned readers see matching archive state.
        self._table_meta: dict[str, dict[str, Any]] = {}
        self._version = 0
        # Serializes every commit (DDL + version bump).  Re-entrant so a
        # writer can hold it across a multi-step commit (append + mark_dirty)
        # that internally takes it again.
        self._commit_lock = threading.RLock()
        # Per-thread stack of pinned snapshots (innermost pin wins).
        self._local = PinStack()

    # -- snapshot pinning ------------------------------------------------------

    @property
    def commit_lock(self) -> threading.RLock:
        """The lock serializing commits; writers hold it across a batch."""
        return self._commit_lock

    def _pin(self) -> CatalogSnapshot | None:
        pins = self._local.pins
        return pins[-1] if pins else None

    @property
    def active_snapshot(self) -> CatalogSnapshot | None:
        """The snapshot the calling thread currently reads through, if any."""
        return self._pin()

    def snapshot(self) -> CatalogSnapshot:
        """Pin a consistent ``(version, tables, stats)`` view at a commit
        boundary.

        Taken under the commit lock, so the version and every pinned table
        belong to the same committed state — a concurrent writer mid-batch
        can never leak a table whose version bump has not landed yet.
        Stats already fresh in the live cache are carried over so the
        snapshot does not recompute them.
        """
        with self._commit_lock:
            tables = {name: table.pinned() for name, table in self._tables.items()}
            stats = {
                name: self._stats[name]
                for name in self._tables
                if name in self._stats and name not in self._stats_dirty
            }
            return CatalogSnapshot(self._version, tables, stats, self._table_meta)

    @contextmanager
    def writing(self, name: str) -> Iterator[int | None]:
        """One atomic mutation of table ``name``: append, create/replace, drop
        or a metadata change.

        The body runs under the commit lock and is the whole commit — the
        change to the catalog *and* whatever must land with it (the durable
        store's redo record).  Yields the table's row count before the body
        (``None`` when the table does not exist yet): the append boundary the
        model lifecycle is notified with afterwards.  If the body raises, the
        table and its metadata are put back as they were (its statistics are
        recomputed on demand), so memory never holds a change its redo log
        does not — and a retry of the failed call cannot apply it twice.
        """
        with self._commit_lock:
            table = self._tables.get(name)
            image = table.pinned() if table is not None else None
            meta = self._table_meta.get(name)
            meta = dict(meta) if meta is not None else None
            try:
                yield image.num_rows if image is not None else None
            except BaseException:
                if table is None:
                    self._tables.pop(name, None)
                    self._stats.pop(name, None)
                    self._stats_dirty.discard(name)
                else:
                    table.rollback_to(image)
                    self._tables[name] = table
                    self._stats_dirty.add(name)
                if meta is None:
                    self._table_meta.pop(name, None)
                else:
                    self._table_meta[name] = meta
                # Lock-free readers may have seen the aborted state's version.
                self._version += 1
                raise

    @contextmanager
    def reading(self, snapshot: CatalogSnapshot) -> Iterator[CatalogSnapshot]:
        """Resolve every catalog read on this thread through ``snapshot``.

        Nests: an inner ``reading()`` (a differential query issued while a
        snapshot is already pinned) shadows the outer pin until it exits.
        """
        pins = self._local.pins
        pins.append(snapshot)
        try:
            yield snapshot
        finally:
            pins.pop()

    @property
    def version(self) -> int:
        """Monotonically increasing counter, bumped on every DDL or data change.

        Consumers (the SQL plan cache, harvest schedulers) compare a stored
        version against the current one to detect that anything in the
        catalog — schemas or table contents — may have changed.  Inside a
        :meth:`reading` context this reports the *pinned* version, so caches
        keyed on it stay consistent with the data the query will scan.
        """
        pins = self._local.pins
        if pins:
            return pins[-1].version
        return self._version

    @property
    def live_version(self) -> int:
        """The committed version, ignoring any pin on the calling thread.

        Snapshot freshness checks must use this: comparing a candidate
        snapshot against a *pinned* version would always report "fresh"
        from inside a reading context.
        """
        return self._version

    def restore_version(self, version: int) -> None:
        """Fast-forward the version counter (recovery from a durable store).

        Keeps version numbers monotone across a restart so anything a
        caller persisted alongside a version (manifests, audit trails)
        stays comparable; never rewinds.
        """
        with self._commit_lock:
            self._version = max(self._version, int(version))

    # -- registration ----------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create and register an empty table."""
        with self._commit_lock:
            if name in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            table = Table.empty(name, schema)
            self._tables[name] = table
            self._stats_dirty.add(name)
            self._version += 1
            return table

    def register_table(self, table: Table, replace: bool = False) -> Table:
        """Register an existing table object under its own name."""
        with self._commit_lock:
            if table.name in self._tables and not replace:
                raise CatalogError(f"table {table.name!r} already exists")
            if replace:
                # A replaced table invalidates its partition map: the old
                # per-shard min/max stats no longer describe the rows, and
                # serving them would let pruning drop live rows.  (Appends
                # keep the map valid — the tail past ``built_rows`` is never
                # pruned — so ``replace_table`` does not clear it.)
                entry = self._table_meta.get(table.name)
                if entry is not None:
                    entry.pop("partitions", None)
            self._tables[table.name] = table
            self._stats_dirty.add(table.name)
            self._version += 1
            return table

    def drop_table(self, name: str) -> None:
        with self._commit_lock:
            if name not in self._tables:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._tables[name]
            self._stats.pop(name, None)
            self._stats_dirty.discard(name)
            self._table_meta.pop(name, None)
            self._version += 1

    def replace_table(self, table: Table) -> None:
        """Replace the stored table (e.g. after appends return a new object)."""
        with self._commit_lock:
            if table.name not in self._tables:
                raise CatalogError(f"cannot replace unknown table {table.name!r}")
            self._tables[table.name] = table
            self._stats_dirty.add(table.name)
            self._version += 1

    # -- lookup -------------------------------------------------------------------

    def table(self, name: str) -> Table:
        pin = self._pin()
        if pin is not None:
            return pin.table(name)
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}; known tables: {sorted(self._tables)}") from None

    def live_table(self, name: str) -> Table:
        """The live (mutable) table, bypassing any pinned snapshot.

        DML must use this: resolving an INSERT's target through a pin would
        append to a frozen copy and silently lose the write.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}; known tables: {sorted(self._tables)}") from None

    def has_table(self, name: str) -> bool:
        pin = self._pin()
        if pin is not None:
            return pin.has_table(name)
        return name in self._tables

    def table_names(self) -> list[str]:
        pin = self._pin()
        if pin is not None:
            return pin.table_names()
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __iter__(self) -> Iterator[Table]:
        pin = self._pin()
        if pin is not None:
            return iter(pin)
        return iter(list(self._tables.values()))

    def __len__(self) -> int:
        pin = self._pin()
        if pin is not None:
            return len(pin)
        return len(self._tables)

    def append_rows(self, name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Append row tuples to table ``name`` (one atomic commit).

        The append and its version bump happen under the commit lock, so a
        concurrent :meth:`snapshot` sees either none of the batch or all of it
        with the bumped version — batch-granular commits, never a torn
        half-batch.  Always the *live* table: resolving the target through a
        thread-pinned snapshot would append to a frozen copy and lose the
        write.  Returns the row index the batch starts at.
        """
        with self._commit_lock:
            table = self.live_table(name)
            start = table.num_rows
            table.append_rows(rows)
            self.mark_dirty(name)
            return start

    # -- statistics -----------------------------------------------------------------

    def mark_dirty(self, name: str) -> None:
        """Mark a table's statistics as stale (call after in-place appends)."""
        with self._commit_lock:
            if name not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            self._stats_dirty.add(name)
            self._version += 1

    def stats(self, name: str) -> TableStats:
        """Return (and lazily recompute) statistics for ``name``.

        Inside a :meth:`reading` context the statistics come from the pinned
        tables, so estimates and data always describe the same rows.  Either
        way a recompute runs on a pinned copy of the table outside the commit
        lock (stats can be expensive) and is then offered to the live cache,
        where later appends merge into it and later snapshots start from it.
        """
        pin = self._pin()
        if pin is not None:
            return pin.stats(name, on_computed=self._publish_stats)
        with self._commit_lock:
            if name not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            overlay = self._table_meta.get(name, {}).get("stats_overlay")
            if name not in self._stats_dirty and name in self._stats:
                base = self._stats[name]
                return overlay(base) if overlay is not None else base
            frozen = self._tables[name].pinned()
            version = self._version
        stats = compute_table_stats(frozen)
        self._publish_stats(name, stats, version)
        return overlay(stats) if overlay is not None else stats

    def _publish_stats(self, name: str, stats: TableStats, version: int) -> None:
        """Cache ``stats``, computed from ``name`` as committed at ``version``.

        Only if no commit landed since; a stale publish would pair new data
        with old stats.
        """
        with self._commit_lock:
            if name in self._tables and self._version == version:
                self._stats[name] = stats
                self._stats_dirty.discard(name)

    def stats_clean(self, name: str) -> bool:
        """True when the cached live statistics for ``name`` are fresh.

        Writers sample this *before* an append (under the commit lock) to
        learn whether the cached stats describe exactly the pre-append rows
        — the precondition for :meth:`merge_stats_delta`.
        """
        return self.fresh_stats(name) is not None

    def fresh_stats(self, name: str) -> TableStats | None:
        """The cached live statistics of ``name`` if they are fresh, else None.

        Never computes, and applies no overlay: what a checkpoint records
        next to the rows it describes, for :meth:`restore_stats` to publish
        when those rows are loaded again.
        """
        with self._commit_lock:
            return None if name in self._stats_dirty else self._stats.get(name)

    def restore_stats(self, name: str, stats: TableStats) -> bool:
        """Publish statistics computed before a restart as fresh.

        Guarded like :meth:`merge_stats_delta`: they must count exactly the
        live table's rows and cover exactly its columns, otherwise nothing is
        published, False is returned and the next :meth:`stats` call computes.
        """
        with self._commit_lock:
            table = self._tables.get(name)
            if (
                table is None
                or stats.row_count != table.num_rows
                or list(stats.columns) != table.schema.names
            ):
                return False
            self._stats[name] = stats
            self._stats_dirty.discard(name)
            return True

    def merge_stats_delta(self, name: str, delta: TableStats) -> bool:
        """Fold per-batch statistics into the cached stats of ``name``.

        ``delta`` must describe exactly the rows appended since the cached
        statistics were computed; the row-count equation
        ``cached.row_count + delta.row_count == live.num_rows`` guards that
        invariant.  On success the merged statistics are published as fresh
        (no whole-table rescan) and True is returned; any mismatch returns
        False and leaves lazy recomputation to the next :meth:`stats` call.
        Callers must sample :meth:`stats_clean` before their append — a base
        that was already stale may satisfy the row-count equation by
        coincidence.
        """
        with self._commit_lock:
            table = self._tables.get(name)
            base = self._stats.get(name)
            if table is None or base is None:
                return False
            if base.row_count + delta.row_count != table.num_rows:
                return False
            try:
                merged = merge_table_stats(base, delta)
            except ValueError:
                return False
            merged.byte_size = table.byte_size()
            self._stats[name] = merged
            self._stats_dirty.discard(name)
            return True

    # -- per-table commit metadata ------------------------------------------------

    def set_table_meta(self, name: str, key: str, value: Any) -> None:
        """Attach metadata to a table, committed with the catalog state.

        Taken under the commit lock so the metadata lands (or clears) in
        the same commit as the table change it accompanies — a snapshot can
        never pair a pre-archive table with post-archive metadata or vice
        versa.  Values should be immutable; snapshots alias them.

        Metadata can also change *without* a table change (publishing a
        partition map over an untouched table), so this is a versioned
        commit of its own — otherwise memoized snapshots and cached plans
        would keep serving the old metadata.
        """
        with self._commit_lock:
            self._table_meta.setdefault(name, {})[key] = value
            self._version += 1

    def clear_table_meta(self, name: str, key: str) -> None:
        with self._commit_lock:
            entry = self._table_meta.get(name)
            if entry is not None:
                entry.pop(key, None)
                if not entry:
                    del self._table_meta[name]
                self._version += 1

    def table_meta(self, name: str, key: str, default: Any = None) -> Any:
        """Pin-aware metadata lookup (the pinned commit's value, if pinned)."""
        pin = self._pin()
        if pin is not None:
            return pin.table_meta(name, key, default)
        entry = self._table_meta.get(name)
        if entry is None:
            return default
        return entry.get(key, default)

    def set_stats_overlay(self, name: str, overlay: Callable[[TableStats], TableStats]) -> None:
        """Serve ``stats(name)`` through ``overlay`` (archive-tier merging)."""
        self.set_table_meta(name, "stats_overlay", overlay)

    def clear_stats_overlay(self, name: str) -> None:
        self.clear_table_meta(name, "stats_overlay")

    def total_bytes(self) -> int:
        """Total nominal storage footprint of all registered tables."""
        pin = self._pin()
        if pin is not None:
            return pin.total_bytes()
        return sum(table.byte_size() for table in list(self._tables.values()))

    def describe(self) -> str:
        """A human-readable summary of the catalog contents."""
        lines = []
        for name in self.table_names():
            table = self.table(name)
            columns = ", ".join(f"{c.name}:{c.dtype.value}" for c in table.schema)
            lines.append(f"{name} ({table.num_rows} rows, {table.byte_size()} bytes): {columns}")
        return "\n".join(lines) if lines else "(empty catalog)"
