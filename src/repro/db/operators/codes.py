"""Key dictionaries: the one factorisation of key columns into dense codes.

Grouped aggregation, hash join, DISTINCT, grouped fitting and model routing
all reduce key columns to dense integer codes ranked in ascending value order
(the order ``np.unique`` produces).  A column's codes come from its
:class:`KeyDictionary`, built once per execution over the column's non-NULL
values a morsel at a time (:mod:`repro.db.operators.morsel`) and applied a
morsel at a time, at the width the values are stored at:

* integer-like values whose span is not much larger than the row count are
  coded through the span: when every value of the span occurs (a dense key,
  the common case) a value's code is simply ``value - min`` and there is no
  table at all; otherwise a rank table at its narrowest width maps
  ``value - min`` to the value's rank;
* anything else is coded by binary search in its sorted distinct values.

Several key columns pack their codes pairwise, each pack step coded by a
dictionary of its own (:func:`build_packs` / :func:`pack`), so a composite
code stays dense and below the row count however many or wide the columns.
:class:`GroupCodes` adds a NULL bucket, ranked first, for a key column that
holds a NULL (NULL keys group together, matching python-value hashing);
a join's probe looks values up *strictly* instead, a value the build side
does not hold coding as ``-1``.  :class:`FirstRows` finds where each group
first occurs, which is what first-occurrence output order needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.db.column import BLOCK_ROWS, int_width
from repro.db.operators.morsel import morsels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.column import Column

__all__ = [
    "KeyDictionary",
    "GroupCodes",
    "FirstRows",
    "argsort_codes",
    "build_packs",
    "dense_key_codes",
    "factorize_keys",
    "pack",
]


class KeyDictionary:
    """The distinct values of one key, ranked: a value's code is its rank.

    ``size`` values; coded through their span from ``low`` (``uniques`` None;
    ``ranks`` None when the span is dense, else the rank of ``value - low``
    with ``-1`` for a value that does not occur and one more ``-1`` slot
    past the span) or by their sorted ``uniques``.
    """

    __slots__ = ("size", "low", "span", "ranks", "uniques")

    def __init__(
        self,
        size: int,
        low: int = 0,
        span: int = 0,
        ranks: np.ndarray | None = None,
        uniques: np.ndarray | None = None,
    ) -> None:
        self.size = size
        self.low = low
        self.span = span
        self.ranks = ranks
        self.uniques = uniques

    @classmethod
    def build(cls, parts: Callable[[], Iterable[np.ndarray]], rows: int) -> "KeyDictionary":
        """The dictionary of every value ``parts()`` yields (NULL-free arrays,
        a morsel at a time; iterated at most twice) over ``rows`` rows."""
        low = high = None
        integer = True
        for part in parts():
            if part.dtype.kind not in "iub":
                integer = False
                break
            if len(part):
                part_low, part_high = int(part.min()), int(part.max())
                low = part_low if low is None else min(low, part_low)
                high = part_high if high is None else max(high, part_high)
        if integer and low is None:
            return cls(0, uniques=np.empty(0, dtype=np.int64))
        if integer and high - low + 1 <= 4 * rows + 64:
            span = high - low + 1
            present = np.zeros(span, dtype=bool)
            for part in parts():
                present[np.subtract(part, low, dtype=np.int64)] = True
            size = int(np.count_nonzero(present))
            if size == span:
                return cls(size, low, span)
            ranks = np.empty(span + 1, dtype=int_width(-1, size))
            np.cumsum(present, out=ranks[:span])
            ranks -= 1
            ranks[:span][~present] = -1
            ranks[span] = -1
            return cls(size, low, span, ranks)
        uniques = None
        for part in parts():
            found = np.unique(part)
            uniques = found if uniques is None else np.union1d(uniques, found)
        return cls(len(uniques), uniques=uniques)

    def codes(self, values: np.ndarray, strict: bool = False) -> np.ndarray:
        """int64 codes of ``values``; under ``strict`` a value the dictionary
        does not hold codes as ``-1`` (else every value must be held)."""
        if self.size == 0:
            return np.full(len(values), -1, dtype=np.int64)
        if self.uniques is not None:
            codes = np.searchsorted(self.uniques, values).astype(np.int64, copy=False)
            if strict:
                held = self.uniques[np.minimum(codes, self.size - 1)] == values
                codes[~held] = -1
            return codes
        offsets = self.offsets(values, strict)
        if self.ranks is None:
            return offsets
        return self.ranks[offsets].astype(np.int64)  # -1 reads the -1 slot past the span

    def offsets(self, values: np.ndarray, strict: bool = False) -> np.ndarray:
        """``value - low`` of span-coded ``values``, as int64; under ``strict``
        a value outside the span is ``-1``."""
        offsets = np.subtract(values, self.low, dtype=np.int64)
        if strict:
            # A negative offset reads as a huge unsigned one: one comparison.
            outside = offsets.view(np.uint64) >= self.span
            if outside.any():
                offsets[outside] = -1
        return offsets


def pack(
    codes: list[np.ndarray], widths: list[int], packs: list[KeyDictionary], strict: bool = False
) -> np.ndarray:
    """One code per row from several keys' codes: each step packs the running
    code with the next key's (``widths`` codes each) and codes the pair by
    that step's dictionary; under ``strict`` a ``-1`` component stays ``-1``."""
    out = codes[0]
    for column, width, step in zip(codes[1:], widths[1:], packs):
        raw = out * width + column
        if strict:
            raw[(out < 0) | (column < 0)] = -1
        out = step.codes(raw, strict)
    return out


def build_packs(
    codes: Callable[[], Iterator[list[np.ndarray]]], widths: list[int], rows: int
) -> list[KeyDictionary]:
    """The pack-step dictionaries of :func:`pack` for the keys ``codes()``
    yields (every key's codes, a morsel at a time), one pass per step."""
    packs: list[KeyDictionary] = []
    for step in range(1, len(widths)):

        def parts(step: int = step) -> Iterator[np.ndarray]:
            for columns in codes():
                yield pack(columns[:step], widths[:step], packs) * widths[step] + columns[step]

        packs.append(KeyDictionary.build(parts, rows))
    return packs


class _KeyColumn:
    """One group key read a morsel at a time: its dictionary and whether it
    holds a NULL (then code 0 is the NULL bucket and values code from 1)."""

    def __init__(self, source: Callable[[int, int], "Column"], ranges: list[tuple[int, int]], rows: int) -> None:
        self.source = source
        self.nullable = False

        def parts() -> Iterator[np.ndarray]:
            for start, stop in ranges:
                column = source(start, stop)
                nulls = column.null_mask()
                if nulls.any():
                    self.nullable = True
                    yield column.stored[~nulls]
                else:
                    yield column.stored

        self.dictionary = KeyDictionary.build(parts, rows)
        self.width = self.dictionary.size + self.nullable

    def codes(self, start: int, stop: int) -> np.ndarray:
        column = self.source(start, stop)
        if not self.nullable:
            return self.dictionary.codes(column.stored)
        nulls = column.null_mask()
        codes = np.zeros(stop - start, dtype=np.int64)
        codes[~nulls] = self.dictionary.codes(column.stored[~nulls]) + 1
        return codes


class GroupCodes:
    """Dense group codes of key columns, handed out a morsel at a time.

    ``sources`` read each key column's rows ``start:stop``.  The dictionaries
    are built once, over every row; then :meth:`codes` gives any row range
    its codes in ``[0, size)``, numbered by key rank — a NULL component
    first — and every code occurs.
    """

    def __init__(self, sources: list[Callable[[int, int], "Column"]], num_rows: int) -> None:
        ranges = list(morsels([(0, num_rows)]))
        self.keys = [_KeyColumn(source, ranges, num_rows) for source in sources]
        self.widths = [key.width for key in self.keys]
        self.packs = build_packs(
            lambda: ([key.codes(start, stop) for key in self.keys] for start, stop in ranges),
            self.widths,
            num_rows,
        )
        self.size = self.packs[-1].size if self.packs else self.widths[0]

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The codes of rows ``start:stop``."""
        return pack([key.codes(start, stop) for key in self.keys], self.widths, self.packs)


class FirstRows:
    """Where each of ``size`` codes, every one known to occur, first occurs.

    Fed the codes of consecutive row ranges in row order, it reads each in
    growing prefixes — a block, then twice as much — and stops reading once
    every code has been seen, so a scatter over every row is never needed.
    Within a prefix only the rows that start a run of equal codes can be a
    first occurrence, which on a clustered key is one row per group.
    ``rows[c]`` is code ``c``'s first row.
    """

    def __init__(self, size: int) -> None:
        self.rows = np.full(size, -1, dtype=np.int64)
        self.missing = size
        self._earliest = np.empty(size, dtype=np.int64)

    def see(self, codes: np.ndarray, start: int) -> None:
        """Record the codes of rows ``start, start + 1, …`` not seen before."""
        at, step = 0, BLOCK_ROWS
        while self.missing and at < len(codes):
            stop = min(len(codes), at + step)
            chunk = codes[at:stop]
            heads = np.flatnonzero(chunk[1:] != chunk[:-1])
            heads += 1
            heads = np.concatenate(([0], heads))
            new = heads[self.rows[chunk[heads]] < 0]
            if len(new):
                fresh, positions = chunk[new], new + (start + at)
                # The reversed scatter makes the earliest row win each slot.
                self._earliest[fresh[::-1]] = positions[::-1]
                first = self._earliest[fresh]
                self.rows[fresh] = first
                self.missing -= int(np.count_nonzero(first == positions))
            at, step = stop, 2 * step


def dense_key_codes(key_columns: "list[Column]", num_rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense composite key codes, numbered by key value rank.

    Returns ``(codes, first_rows, num_groups)``: ``codes`` maps each row to a
    group in ``[0, num_groups)``, every code occurs, and ``first_rows[c]`` is
    the row where code ``c`` first appears.  NULL key components (validity or
    in-array sentinel) are their own code.  A consumer of per-group results
    computes them by code and emits ``result[np.argsort(first_rows)]``:
    first-occurrence order costs a permutation of the groups, never a
    renumbering of the rows (:func:`factorize_keys` does that, for callers
    that read per-row ids).
    """
    codes = np.empty(num_rows, dtype=np.int64)
    groups = GroupCodes([column.slice for column in key_columns], num_rows)
    first = FirstRows(groups.size)
    for start, stop in morsels([(0, num_rows)]):
        codes[start:stop] = groups.codes(start, stop)
        first.see(codes[start:stop], start)
    return codes, first.rows, groups.size


def factorize_keys(key_columns: "list[Column]", num_rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorise composite group keys into dense integer codes.

    Returns ``(group_ids, first_rows, num_groups)`` where ``group_ids`` maps
    each row to a group in ``[0, num_groups)`` numbered by first occurrence,
    and ``first_rows[g]`` is the row index where group ``g`` first appears
    (ascending) — the insertion order of the old dict-based implementation.
    NULL handling is :func:`dense_key_codes`'.  Used by DISTINCT (every output
    column is a key), the partial-aggregate merge and grouped fitting.
    """
    codes, first_rows, num_groups = dense_key_codes(key_columns, num_rows)
    order = np.argsort(first_rows, kind="stable")  # num_groups elements, not num_rows
    rank = np.empty(num_groups, dtype=np.int64)
    rank[order] = np.arange(num_groups)
    return rank[codes], first_rows[order], num_groups


def argsort_codes(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """Stable argsort of dense codes, via radix sort when codes fit uint16.

    NumPy's stable sort for small unsigned integer dtypes is a radix sort;
    for the typical group count (well under 2**16) this is several times
    faster than a comparison sort of int64 codes.
    """
    if 0 < cardinality <= np.iinfo(np.uint16).max:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    return np.argsort(codes, kind="stable")
