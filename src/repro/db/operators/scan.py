"""Leaf operators: base-table scans and pre-materialised inputs."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.db.column import BLOCK_ROWS
from repro.db.constraints import ColumnConstraint, extract_constraints
from repro.db.expressions import Expression, predicate_mask
from repro.db.io_model import IOModel
from repro.db.operators.base import Operator
from repro.db.operators.morsel import Piece, as_run, gather, keep, morsels
from repro.db.operators.sort import render_sort_keys
from repro.db.table import Table
from repro.db.types import DataType, null_value
from repro.errors import CatalogError

__all__ = [
    "TableScan",
    "MaterializedInput",
    "KeptRows",
    "ScannedRows",
    "SynopsisAnswer",
    "TopBound",
    "kept_rows",
]

#: ``(column, ascending, count)``: only rows that can be among the first
#: ``count`` of a stable sort led by ``column`` are wanted.
TopBound = tuple[str, bool, int]


class SynopsisAnswer:
    """What the answered blocks of a scan contribute to a global aggregate.

    ``rows`` rows of complete blocks, every one of which satisfies the WHERE
    clause and none of which is NULL or NaN in an answered column, so each is
    counted by ``COUNT(*)`` and by ``COUNT(col)`` alike; ``mins`` / ``maxs``
    hold every numeric answered column's extremes over them as floats — what
    ``MIN`` / ``MAX`` would compute from the rows themselves.  The
    ``Aggregate`` above merges them as one more state of its own.
    """

    __slots__ = ("rows", "mins", "maxs")

    def __init__(self, rows: int, mins: dict[str, float], maxs: dict[str, float]) -> None:
        self.rows = rows
        self.mins = mins
        self.maxs = maxs


class KeptRows:
    """A scan's three block classes: pruned, answered and read.

    ``ranges`` are the half-open row ranges still to read, ascending and
    disjoint; ``blocks_kept`` / ``blocks_answered`` / ``blocks_total`` count
    the table's blocks read, answered from synopses and in all (the partial
    tail block included); the rest were pruned.  ``answer`` is what the
    answered blocks contribute (None when none was answered).
    """

    __slots__ = ("ranges", "blocks_kept", "blocks_answered", "blocks_total", "answer")

    def __init__(
        self,
        ranges: list[tuple[int, int]],
        blocks_kept: int,
        blocks_total: int,
        answer: SynopsisAnswer | None = None,
    ) -> None:
        self.ranges = ranges
        self.blocks_kept = blocks_kept
        self.blocks_answered = 0 if answer is None else answer.rows // BLOCK_ROWS
        self.blocks_total = blocks_total
        self.answer = answer

    @property
    def blocks_pruned(self) -> int:
        return self.blocks_total - self.blocks_kept - self.blocks_answered

    @property
    def num_rows(self) -> int:
        """How many rows are still to read."""
        return sum(stop - start for start, stop in self.ranges)


class ScannedRows(Table):
    """The rows a scan handed on, carrying what it answered instead (``answer``).

    Only a scan planned to answer a global ``COUNT`` / ``MIN`` / ``MAX`` hands
    one on, straight to the ``Aggregate`` that merges the answer with the
    state it reduced from these rows: the scan evaluated the whole WHERE
    clause itself, and every answered row satisfies it.
    """

    def __init__(self, rows: Table, answer: SynopsisAnswer) -> None:
        self.name = rows.name
        self.schema = rows.schema
        self._columns = rows._columns
        self.answer = answer


def kept_rows(
    table: Table,
    constraints: Mapping[str, ColumnConstraint],
    top: TopBound | None = None,
    answers: tuple[str, ...] | None = None,
) -> KeptRows:
    """Classify the blocks of ``table``: pruned, answered from synopses, or read.

    ``constraints`` are *necessary* conditions on ``table``'s own columns
    (:func:`repro.db.constraints.extract_constraints` over the WHERE clause),
    so a block whose min/max synopsis cannot satisfy one of them contributes
    no row whatever the rest of the predicate says — it is pruned.  ``top``
    says that only the best ``count`` rows of the whole table by a column are
    wanted, which lets :func:`_cannot_win` prune blocks too — sound only when
    every row of the table competes, so callers pass it without constraints.

    ``answers`` — set only when the constraints are the *whole* WHERE clause
    and a global ``COUNT`` / ``MIN`` / ``MAX`` is all that is asked of the
    rows — names the aggregated columns.  A complete block whose synopses
    prove that every row satisfies every constraint
    (:meth:`ColumnConstraint.covers_ranges`) and that holds no NULL or NaN in
    an answered column is then *answered*: its count and extremes come from
    the synopses (:class:`SynopsisAnswer`) and it is not read.

    The partial tail block has no synopsis and is always read.  This is the
    one classifier: a serial scan reads the kept rows, the partitioned engine
    cuts the same scan's survivors at shard boundaries (:meth:`TableScan.bind`
    is the one caller on an execution path).
    """
    rows = table.num_rows
    complete = rows // BLOCK_ROWS
    total = -(-rows // BLOCK_ROWS)
    whole = KeptRows([(0, rows)] if rows else [], total, total)
    if not constraints and top is None and answers is None:
        return whole
    keep = np.ones(total, dtype=bool)
    answer = None
    if complete:
        synopses = {
            name: table.column(name).block_synopsis() for name in [*constraints, *(answers or ())]
        }
        for name, constraint in constraints.items():
            mins, maxs, nulls = synopses[name]
            keep[:complete] &= constraint.admits_ranges(mins, maxs, nulls == BLOCK_ROWS)
        if top is not None:
            keep[:complete] &= ~_cannot_win(table, top)
        if answers is not None:
            covered = keep[:complete].copy()
            for name, constraint in constraints.items():
                mins, maxs, nulls = synopses[name]
                covered &= constraint.covers_ranges(mins, maxs, nulls > 0)
            for name in answers:
                covered &= synopses[name][2] == 0
            if covered.any():
                answer = _answer(table, synopses, answers, covered)
                keep[:complete] &= ~covered
    if keep.all():
        return whole
    # Runs of kept blocks -> row ranges, the last clipped to the table.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], keep, [False]))))
    ranges = [
        (int(a) * BLOCK_ROWS, min(int(b) * BLOCK_ROWS, rows))
        for a, b in zip(edges[0::2], edges[1::2])
    ]
    return KeptRows(ranges, int(keep.sum()), total, answer)


def _answer(
    table: Table,
    synopses: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    answers: tuple[str, ...],
    covered: np.ndarray,
) -> SynopsisAnswer:
    """The count and the numeric extremes of the ``covered`` complete blocks.

    Rounding to float is monotone, so the float of an INT64 extreme is the
    extreme of the floats ``MIN`` / ``MAX`` reduce.
    """
    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}
    for name in answers:
        if table.column(name).dtype.is_numeric:
            low, high, _ = synopses[name]
            mins[name] = float(low[covered].min())
            maxs[name] = float(high[covered].max())
    return SynopsisAnswer(int(covered.sum()) * BLOCK_ROWS, mins, maxs)


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
    mins, maxs, nulls = column.block_synopsis()
    extremes = mins if ascending else maxs
    qualifies = nulls < BLOCK_ROWS
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
    """Scan a base table, evaluate its share of the WHERE clause, and charge
    the simulated IO model for the bytes read.

    ``predicate`` is every conjunct of the WHERE clause that reads only this
    table's columns; the scan hands on only the rows that satisfy it, and of
    them only ``projected_columns`` — the columns the operators above read
    (every column when None).  The predicate's necessary per-column
    conditions (``constraints``) let it skip every block whose min/max
    synopsis proves it empty (:func:`kept_rows`).  ``top`` — set when a
    ``TopN`` sits above with nothing in between that drops, adds or changes a
    row, so never together with a predicate — lets it skip the blocks that
    cannot hold one of the best rows the same way.  ``answers`` — set when
    the ``Aggregate`` above asks only a global ``COUNT`` / ``MIN`` / ``MAX``
    of these columns, and kept only when the constraints are the whole
    predicate — lets it answer every block whose synopses prove that all its
    rows match instead of reading it, handing the answer on with the rows it
    did read (:class:`ScannedRows`).

    The read is late and a morsel at a time: the predicate's columns are
    read over the kept blocks, and every other column only in the blocks
    that hold a surviving row, each filled straight into its output array
    (:meth:`read`).  That is what makes the zero-IO comparison honest: the
    raw-scan side is charged for what a column store would fetch, and the
    ``Aggregate``, ``HashJoin`` or ``TopN`` above still does its whole job on
    exactly the rows handed on.

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
        predicate: Expression | None = None,
        top: TopBound | None = None,
        answers: tuple[str, ...] | None = None,
    ) -> None:
        assert predicate is None or top is None, "a top bound holds only over every row"
        self.table = table
        self.io_model = io_model
        self.projected_columns = projected_columns
        self.catalog = catalog
        self.predicate = predicate
        #: The predicate with its literals prepared (:meth:`Expression.bound`),
        #: once for every execution of the (cached) plan.
        self.bound_predicate = None if predicate is None else predicate.bound()
        analysed = extract_constraints(predicate)
        self.constraints = analysed.by_column
        self.top = top
        # A block the constraints cover matches the predicate row for row
        # only when they are the whole predicate.
        self.answers = answers if analysed.fully_analysed else None
        handed_on = table.schema.names if projected_columns is None else projected_columns
        referenced = set() if predicate is None else predicate.referenced_columns()
        #: The columns the predicate is evaluated over, read in every kept
        #: block; a predicate that names no column (``WHERE 1 = 1``) still
        #: needs the row count, which the narrowest handed-on column carries.
        self.predicate_columns = [name for name in table.schema.names if name in referenced]
        if predicate is not None and not self.predicate_columns:
            self.predicate_columns = [min(handed_on, key=lambda name: table.column(name).stored_width)]
        #: Every column the scan touches, in table order.
        self.read_columns = [
            name for name in table.schema.names if name in handed_on or name in self.predicate_columns
        ]

    @property
    def _classifies(self) -> bool:
        """Whether :func:`kept_rows` may leave out any block of this scan."""
        return bool(self.constraints) or self.top is not None or self.answers is not None

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
        """This execution's frozen table, narrowed to the columns read, and its classified blocks."""
        table = self._bind_table()
        if len(self.read_columns) < table.num_columns:
            table = table.select(self.read_columns)
        return table, kept_rows(table, self.constraints, self.top, self.answers)

    def read(
        self, table: Table, kept: KeptRows, bounds: np.ndarray | None = None
    ) -> tuple[Table, np.ndarray | None]:
        """The surviving rows of the bound table, charged once.

        The predicate is evaluated over its own columns of the kept rows a
        morsel at a time (:mod:`repro.db.operators.morsel`), and what each
        morsel keeps is a :class:`Piece`; every handed-on column is then
        gathered from the pieces, so a late column is read only in the
        blocks that hold a survivor.  The one sequential charge is the
        predicate columns' bytes over the kept rows plus each late column's
        over the rows of the blocks it touches (the partial tail block
        clipped), every column at its stored width
        (:attr:`Column.stored_width`); a block never straddles two morsels,
        so the charge does not depend on the morsel size.  Pruned and
        answered blocks are counted, not charged, and the answer rides on the
        rows handed on (:class:`ScannedRows`).

        Returns the handed-on rows and, for ascending row numbers ``bounds``,
        how many of them lie below each (None without ``bounds``).  Split
        from :meth:`bind` so that the partitioned engine, which cuts the
        survivors at shard boundaries, reads — and charges — through the very
        code a serial execution does.
        """
        width = lambda name: table.column(name).stored_width  # noqa: E731
        if self.predicate is None:
            pieces = [Piece(start, stop, None, stop - start) for start, stop in kept.ranges]
        else:
            pieces = []
            head = table.select(self.predicate_columns)
            for start, stop in morsels(kept.ranges):
                if stop > start:
                    keep(pieces, start, stop, predicate_mask(self.bound_predicate, head.slice(start, stop)))
        wanted = table if self.projected_columns is None else table.select(self.projected_columns)
        run = as_run(pieces)
        rows = Table(
            wanted.name, wanted.schema, {name: gather(wanted.column(name), run) for name in wanted.schema.names}
        )
        late = [name for name in wanted.schema.names if name not in self.predicate_columns]
        if self.io_model is not None:
            self.io_model.charge_read(
                sum(map(width, self.predicate_columns)) * kept.num_rows
                + (sum(map(width, late)) * sum(map(_block_rows, pieces)) if late else 0),
                rows_read=kept.num_rows,
                pruned=kept.blocks_pruned,
                answered=kept.blocks_answered,
            )
        below = None if bounds is None else np.array([_count_below(pieces, int(b)) for b in bounds])
        return (rows if kept.answer is None else ScannedRows(rows, kept.answer)), below

    def apply(self) -> Table:
        return self.read(*self.bind())[0]

    def apply_described(self) -> tuple[Table, str]:
        table, kept = self.bind()
        return self.read(table, kept)[0], self._describe(kept)

    def describe(self) -> str:
        if not self._classifies:
            return self._describe(None)
        return self._describe(
            kept_rows(self._bind_table(), self.constraints, self.top, self.answers)
        )

    def _describe(self, kept: KeptRows | None) -> str:
        """The one-line description; ``kept`` is read only when the scan classifies."""
        cols = "*" if self.projected_columns is None else ", ".join(self.projected_columns)
        where = "" if self.predicate is None else f", where={self.predicate}"
        if not self._classifies:
            return f"TableScan({self.table.name}, columns=[{cols}]{where})"
        assert kept is not None
        top = ""
        if self.top is not None:
            name, ascending, count = self.top
            top = f"top={render_sort_keys([(name, ascending)])} {count}, "
        answered = "" if self.answers is None else f", answered={kept.blocks_answered}"
        return (
            f"TableScan({self.table.name}, columns=[{cols}]{where}, {top}"
            f"blocks={kept.blocks_kept}/{kept.blocks_total}{answered})"
        )


def _block_rows(piece: Piece) -> int:
    """Rows of the blocks of ``piece``'s morsel that hold a row it keeps
    (the morsel starts on a block boundary; its last block may be partial)."""
    if piece.picks is None:
        return piece.stop - piece.start
    blocks = piece.picks // BLOCK_ROWS
    rows = (1 + int(np.count_nonzero(blocks[1:] != blocks[:-1]))) * BLOCK_ROWS
    if blocks[-1] == (piece.stop - piece.start - 1) // BLOCK_ROWS:
        rows -= -(piece.stop - piece.start) % BLOCK_ROWS  # the last block may be partial
    return rows


def _count_below(pieces: list[Piece], bound: int) -> int:
    """How many of the rows ``pieces`` keep lie below row ``bound``."""
    count = 0
    for start, stop, picks, kept in pieces:
        if stop <= bound:
            count += kept
        elif start < bound:
            count += bound - start if picks is None else int(np.searchsorted(picks, bound - start))
    return count


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
