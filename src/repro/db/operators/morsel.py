"""Morsels: the unit every exact operator works in.

An operator on the scan → filter → join-probe → aggregate path never holds a
per-row temporary larger than one morsel of :data:`MORSEL_ROWS` rows (the
vector-at-a-time execution of MonetDB/X100, cut into the block-aligned
morsels of morsel-driven execution).  A temporary that size is recycled by
the allocator from one morsel to the next, while a table-sized one is fresh
memory every time and pays a page fault for every 4 KiB it touches — on a
500 000-row column that fault-in costs several times the arithmetic.  The
only table-sized arrays an operator allocates are its output.

:func:`morsels` cuts row ranges at multiples of :data:`MORSEL_ROWS` from each
range's start; a range a scan reads starts on a block boundary and
:data:`MORSEL_ROWS` is a multiple of :data:`BLOCK_ROWS`, so a block never
straddles two morsels.  A table smaller than one morsel is one morsel, and an
empty range is one empty morsel, so an operator's per-morsel code also runs
— and types its output — over no rows at all.

What an operator keeps of a morsel is a :class:`Piece`: the rows of the
morsel it hands on.  :func:`gather` fills an output column from its pieces
in one preallocated array.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.db.column import BLOCK_ROWS, Column

__all__ = ["MORSEL_ROWS", "Piece", "morsels", "keep", "as_run", "gather"]

#: Rows per morsel: 64 blocks, 512 KiB of an 8-byte column.
MORSEL_ROWS = 64 * BLOCK_ROWS


def morsels(ranges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The half-open ``ranges`` cut into morsels, in order; one empty morsel
    when they hold no row."""
    size = MORSEL_ROWS
    empty = True
    for start, stop in ranges:
        for cut in range(start, stop, size):
            empty = False
            yield cut, min(cut + size, stop)
    if empty:
        yield 0, 0


class Piece(NamedTuple):
    """The rows a morsel ``start:stop`` of a source hands on, ``count`` of them.

    ``picks`` is None (every row, in order) or positions relative to
    ``start``, ascending (repeated for a join's duplicate matches).
    """

    start: int
    stop: int
    picks: np.ndarray | None
    count: int


def keep(pieces: list[Piece], start: int, stop: int, mask: np.ndarray) -> None:
    """Append what ``mask`` keeps of the morsel ``start:stop`` to ``pieces``:
    nothing when it keeps no row, and a morsel it keeps whole joins a whole
    predecessor it continues, so rows that all survive stay one slice."""
    count = int(np.count_nonzero(mask))
    if count == 0:
        return
    if count < stop - start:
        pieces.append(Piece(start, stop, np.flatnonzero(mask), count))
    elif pieces and pieces[-1].picks is None and pieces[-1].stop == start:
        last = pieces.pop()
        pieces.append(Piece(last.start, stop, None, last.count + count))
    else:
        pieces.append(Piece(start, stop, None, count))


def as_run(pieces: list[Piece]) -> list[Piece]:
    """``pieces`` as one whole piece when the rows they keep are one run of
    consecutive rows — a slice then hands them on uncopied."""
    if not pieces or (len(pieces) == 1 and pieces[0].picks is None):
        return pieces
    head, tail = pieces[0], pieces[-1]
    first = head.start if head.picks is None else head.start + int(head.picks[0])
    last = tail.stop if tail.picks is None else tail.start + int(tail.picks[-1]) + 1
    count = sum(piece.count for piece in pieces)
    return [Piece(first, last, None, count)] if last - first == count else pieces


def gather(column: Column, pieces: list[Piece]) -> Column:
    """The rows ``pieces`` pick of ``column``, end to end, at its stored width.

    One whole morsel range is a zero-copy slice; anything else is written
    piece by piece into one output array (and a validity array only when
    the column holds a NULL), so no index vector over the output exists.
    """
    if len(pieces) == 1 and pieces[0].picks is None:
        return column.slice(pieces[0].start, pieces[0].stop)
    total = sum(piece.count for piece in pieces)
    sources = [column.stored]
    if not column.null_free():
        sources.append(column.validity)
    outputs = [np.empty(total, dtype=source.dtype) for source in sources]
    at = 0
    for start, stop, picks, count in pieces:
        for source, out in zip(sources, outputs):
            window, target = source[start:stop], out[at : at + count]
            if picks is None:
                target[...] = window
            else:
                # Positions are in range by construction; "clip" writes
                # straight into ``out``, where "raise" would buffer it.
                np.take(window, picks, out=target, mode="clip")
        at += count
    return Column._stored_as(column.dtype, outputs[0], outputs[1] if len(outputs) > 1 else None)
