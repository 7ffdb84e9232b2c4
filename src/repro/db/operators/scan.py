"""Leaf operators: base-table scans and pre-materialised inputs."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.db.column import BLOCK_ROWS
from repro.db.constraints import ColumnConstraint
from repro.db.io_model import IOModel
from repro.db.operators.base import Operator
from repro.db.operators.sort import render_sort_keys
from repro.db.table import Table
from repro.db.types import DataType, null_value
from repro.errors import CatalogError

__all__ = ["TableScan", "MaterializedInput", "KeptRows", "TopBound", "kept_rows"]

#: ``(column, ascending, count)``: only rows that can be among the first
#: ``count`` of a stable sort led by ``column`` are wanted.
TopBound = tuple[str, bool, int]


class KeptRows:
    """The part of a table a scan still has to read.

    ``ranges`` are the half-open row ranges that survive, ascending and
    disjoint; ``blocks_kept`` / ``blocks_total`` count the table's blocks
    (the partial tail block included).
    """

    __slots__ = ("ranges", "blocks_kept", "blocks_total")

    def __init__(self, ranges: list[tuple[int, int]], blocks_kept: int, blocks_total: int) -> None:
        self.ranges = ranges
        self.blocks_kept = blocks_kept
        self.blocks_total = blocks_total

    @property
    def blocks_pruned(self) -> int:
        return self.blocks_total - self.blocks_kept

    def take_from(self, table: Table) -> Table:
        """The kept rows of ``table``, in order (a zero-copy slice when contiguous)."""
        if len(self.ranges) == 1:
            return table.slice(*self.ranges[0])
        if not self.ranges:
            return table.slice(0, 0)
        return table.take(np.concatenate([np.arange(start, stop) for start, stop in self.ranges]))


def kept_rows(
    table: Table,
    constraints: Mapping[str, ColumnConstraint],
    top: TopBound | None = None,
) -> KeptRows:
    """The rows of ``table`` minus the blocks proven useless.

    ``constraints`` are *necessary* conditions on ``table``'s own columns
    (:func:`repro.db.constraints.extract_constraints` over the WHERE clause),
    so a block whose min/max synopsis cannot satisfy one of them contributes
    no row whatever the rest of the predicate says.  ``top`` says that only
    the best ``count`` rows of the whole table by a column are wanted, which
    lets :func:`_cannot_win` rule out blocks too — sound only when every row
    of the table competes, so callers pass it without constraints.  The
    partial tail block has no synopsis and is always kept.  This is the one
    pruning rule: a serial scan takes the kept rows whole, the partitioned
    engine cuts the same kept rows at shard boundaries (:meth:`TableScan.bind`
    is the one caller on an execution path).
    """
    rows = table.num_rows
    complete = rows // BLOCK_ROWS
    total = -(-rows // BLOCK_ROWS)
    whole = KeptRows([(0, rows)] if rows else [], total, total)
    if not constraints and top is None:
        return whole
    keep = np.ones(total, dtype=bool)
    if complete:
        for name, constraint in constraints.items():
            mins, maxs, all_null = table.column(name).block_synopsis()
            keep[:complete] &= constraint.admits_ranges(mins, maxs, all_null)
        if top is not None:
            keep[:complete] &= ~_cannot_win(table, top)
    if keep.all():
        return whole
    # Runs of kept blocks -> row ranges, the last clipped to the table.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], keep, [False]))))
    ranges = [
        (int(a) * BLOCK_ROWS, min(int(b) * BLOCK_ROWS, rows))
        for a, b in zip(edges[0::2], edges[1::2])
    ]
    return KeptRows(ranges, int(keep.sum()), total)


def _cannot_win(table: Table, top: TopBound) -> np.ndarray:
    """Which complete blocks of ``table`` cannot hold one of its best ``count`` rows.

    A complete block that is not all NULL holds at least one row as good as
    its own extreme (its max for a descending key, its min for an ascending
    one).  With ``tau`` the ``count``-th best of those extremes, at least
    ``count`` rows are as good as ``tau``, so a block whose extreme is
    strictly worse holds no winner whatever the secondary keys say — a tie
    with ``tau`` stays, and nothing goes when fewer than ``count`` blocks
    qualify.
    """
    name, ascending, count = top
    column = table.column(name)
    mins, maxs, all_null = column.block_synopsis()
    extremes = mins if ascending else maxs
    qualifies = ~all_null
    if column.dtype is DataType.INT64:
        # A stored INT64 sentinel is a value to the synopsis but a NULL to
        # the sort: a block whose extreme it is proves nothing.
        qualifies &= extremes != null_value(DataType.INT64)
    if qualifies.sum() < count:
        return np.zeros(len(extremes), dtype=bool)
    ranked = np.sort(extremes[qualifies])
    if ascending:
        return qualifies & (extremes > ranked[count - 1])
    return qualifies & (extremes < ranked[-count])


class TableScan(Operator):
    """Scan a base table, charging the simulated IO model for the bytes read.

    ``projected_columns`` narrows the scan to the columns a query actually
    touches (columnar storage means unread columns cost no IO), and
    ``constraints`` — the WHERE clause's necessary per-column conditions on
    this table — let it skip every block whose min/max synopsis proves it
    empty (:func:`kept_rows`).  ``top`` — set when a ``TopN`` sits above with
    nothing in between that drops, adds or changes a row — lets it skip the
    blocks that cannot hold one of the best rows the same way.  That is what
    makes the zero-IO comparison honest: the raw-scan side is charged only
    for the projected columns over the rows it hands on, and the ``Filter`` or
    ``TopN`` above still does its whole job on exactly those rows.  With
    neither (or when no block can be ruled out) the bound table passes
    through untouched.

    Plans are cached and shared across executions (and threads), so the scan
    binds its table *per execution*: when a ``catalog`` was provided it
    re-resolves the table name through it — which, inside a
    ``catalog.reading(snapshot)`` context, transparently yields the pinned
    snapshot table — and always executes against a frozen ``pinned()`` copy,
    so a concurrent append can never swap the column mapping mid-scan.
    """

    def __init__(
        self,
        table: Table,
        io_model: IOModel | None = None,
        projected_columns: list[str] | None = None,
        catalog=None,
        constraints: Mapping[str, ColumnConstraint] | None = None,
        top: TopBound | None = None,
    ) -> None:
        self.table = table
        self.io_model = io_model
        self.projected_columns = projected_columns
        self.catalog = catalog
        self.constraints = constraints or {}
        self.top = top

    def _bind_table(self) -> Table:
        """This execution's frozen view of the scanned table.

        Fast path: with no snapshot pinned on this thread, freeze the table
        captured at plan time directly — plan-cache validation already
        guarantees it is the current object, and ``pinned()`` is a reference
        copy.  Only a pinned thread pays the name re-resolution.
        """
        catalog = self.catalog
        if catalog is not None and getattr(catalog, "active_snapshot", None) is not None:
            try:
                return catalog.table(self.table.name).pinned()
            except CatalogError:
                # Dropped (or a shadow table the live catalog never owned):
                # fall back to the binding captured at plan time.
                pass
        return self.table.pinned()

    def bind(self) -> tuple[Table, KeptRows]:
        """This execution's frozen, projected table and the part of it still to read."""
        table = self._bind_table()
        if self.projected_columns is not None:
            table = table.select(self.projected_columns)
        return table, kept_rows(table, self.constraints, self.top)

    def read(self, table: Table, kept: KeptRows) -> Table:
        """The kept rows of the bound table, charged once; skipped blocks are counted.

        Split from :meth:`bind` so that the partitioned engine, which cuts the
        kept rows at shard boundaries, reads — and charges — through the very
        code a serial execution does.
        """
        if kept.blocks_pruned:
            table = kept.take_from(table)
            if self.io_model is not None:
                self.io_model.skip_blocks(kept.blocks_pruned)
        if self.io_model is not None:
            self.io_model.charge_scan(table)
        return table

    def apply(self) -> Table:
        return self.read(*self.bind())

    def describe(self) -> str:
        cols = "*" if self.projected_columns is None else ", ".join(self.projected_columns)
        if not self.constraints and self.top is None:
            return f"TableScan({self.table.name}, columns=[{cols}])"
        kept = kept_rows(self._bind_table(), self.constraints, top=self.top)
        top = ""
        if self.top is not None:
            name, ascending, count = self.top
            top = f"top={render_sort_keys([(name, ascending)])} {count}, "
        return (
            f"TableScan({self.table.name}, columns=[{cols}], {top}"
            f"blocks={kept.blocks_kept}/{kept.blocks_total})"
        )


class MaterializedInput(Operator):
    """Wrap an already-materialised table (no IO charged).

    Used for intermediate results, model-generated tables (the zero-IO path)
    and test fixtures.
    """

    def __init__(self, table: Table) -> None:
        self.table = table

    def apply(self) -> Table:
        return self.table

    def describe(self) -> str:
        return f"MaterializedInput({self.table.name}, rows={self.table.num_rows})"
