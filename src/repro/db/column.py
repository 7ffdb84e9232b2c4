"""Columnar storage: a single column of values plus a validity bitmap.

The engine stores every table column as a :class:`Column` — a packed NumPy
array together with a boolean validity mask (True = value present, False =
SQL NULL).  All physical operators exchange data as columns, which keeps the
hot paths vectorised and makes the byte accounting used by the compression
experiments straightforward.

An INT64 column of a catalog table is *stored* at the narrowest signed width
— 1, 2, 4 or 8 bytes (:data:`INT_WIDTHS`, :func:`int_width`) — that holds
its valid values, as the durable store writes it; a NULL slot of a narrow
buffer holds 0.  The catalog narrows once, where rows enter it
(:meth:`Column.narrowed`); ``take`` / ``filter`` / ``slice`` keep the stored
width, and an append that does not fit widens into a fresh buffer first.
:attr:`Column.stored` is the physical array, what a scan reads and is
charged for (:attr:`Column.stored_width`); :attr:`Column.values`,
:meth:`Column.to_numpy` and :meth:`Column.float_numpy` hand out int64 /
float64 (the sentinel or NaN at NULLs), so no consumer does narrow
arithmetic.  Readers on a hot path read ``stored`` (or
:meth:`Column.nonnull_numpy`, the non-NULL values as stored) and widen only
what they gathered.  The nominal width stays the accounting unit of
:meth:`Column.byte_size`.

Columns are immutable snapshots over a growable backing buffer.  Appends
(:meth:`Column.concat`, :meth:`Column.append_value`) return a *new* column;
when the receiver is the newest snapshot of its buffer the addition is
written into spare capacity (amortised-doubling growth), otherwise the data
is copied.  Committed prefixes are never overwritten, so older snapshots
keep observing exactly the rows they had — while a streaming append chain
(``StreamIngestor`` flushing batch after batch) costs O(rows) amortised
instead of re-concatenating every column on every batch.

The same immutability makes per-block min/max/NULL-count *synopses* (zone
maps) safe to cache on the shared buffer: a complete :data:`BLOCK_ROWS`-row block below any
snapshot's length never changes, so every snapshot of the chain reads the
same summary of it (:meth:`Column.block_synopsis`).

A column whose validity mask is all True does no mask work.  Whether it is
(:meth:`Column.null_free`) is decided once per buffer prefix and cached on
the buffer for the same reason synopses are: a row below the tip never
changes, so the leading run of valid rows only grows.  :meth:`Column.take` /
:meth:`Column.filter` of such a column gather the values only, and
:meth:`Column.nonnull_numpy` returns a *read-only view* of the packed values.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.db.types import DataType, null_value, python_value
from repro.errors import TypeMismatchError

__all__ = ["BLOCK_ROWS", "Column", "INT_WIDTHS", "int_width"]

#: Rows per synopsis block: one 8 KiB page of an 8-byte column.
BLOCK_ROWS = 1024

#: Signed widths an INT64 column may be stored at, narrowest first.
INT_WIDTHS = tuple(np.dtype(code) for code in ("<i1", "<i2", "<i4", "<i8"))

_INT64 = INT_WIDTHS[-1]

#: Exact python types the vectorised ``from_values`` fast path accepts per
#: declared dtype.  Anything else (numpy scalars, bools in numeric columns,
#: str subclasses, ...) falls back to the per-value coercion path, which
#: enforces the full :meth:`DataType.coerce` contract.
_FAST_VALUE_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.INT64: (int,),
    DataType.FLOAT64: (float, int),
    DataType.STRING: (str,),
    DataType.BOOL: (bool,),
}

_MIN_CAPACITY = 8


def int_width(low: Any, high: Any) -> np.dtype:
    """The narrowest signed dtype holding ``low..high`` (no value at all —
    ``low`` None — is held by the narrowest)."""
    if low is None:
        return INT_WIDTHS[0]
    return next(
        width for width in INT_WIDTHS if np.iinfo(width).min <= low and high <= np.iinfo(width).max
    )


def _int_null(width: np.dtype) -> Any:
    """What a NULL slot of an INT64 buffer of ``width`` holds: the sentinel at
    8 bytes, where every consumer expects it, 0 below."""
    return null_value(DataType.INT64) if width == _INT64 else 0


def _int_range(data: np.ndarray, valid: np.ndarray | None) -> tuple[Any, Any]:
    """Min and max of ``data``'s valid values (None, None when there is none);
    ``valid`` None means every value is."""
    present = data if valid is None else data[valid]
    if not len(present):
        return None, None
    return present.min(), present.max()


class _Buffer:
    """Growable backing store shared by a chain of column snapshots.

    ``tip`` is the committed length: only the column whose length equals the
    tip may extend the buffer in place, so positions below any snapshot's
    length are never rewritten.  ``data`` is at the buffer's stored width
    for its whole life; a value that does not fit goes to a fresh buffer.

    ``synopsis`` caches ``(mins, maxs, nulls)`` for the leading complete
    blocks some snapshot has summarised so far; ``clean`` is ``(rows,
    ended)``: the first ``rows`` rows are valid, and when ``ended`` the row
    after them is a NULL.  Each is replaced whole, by one attribute
    assignment, and every value it can hold is correct for every snapshot,
    so readers need no lock.
    """

    __slots__ = ("data", "valid", "tip", "synopsis", "clean")

    def __init__(
        self,
        data: np.ndarray,
        valid: np.ndarray | None,
        tip: int,
        synopsis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """``valid`` None: every row is valid, and known to be."""
        self.data = data
        self.valid = np.ones(len(data), dtype=bool) if valid is None else valid
        self.tip = tip
        self.synopsis = synopsis
        self.clean = (0, False) if valid is not None else (len(data), False)


def _summarise_blocks(
    dtype: DataType, data: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mins, maxs, nulls)`` of consecutive complete blocks.

    ``data`` / ``valid`` hold a whole number of blocks.  Min and max are over
    the non-NULL values of a block (a NaN counts as NULL: no comparison
    accepts it); NULL positions are filled with the opposite extreme so one
    vectorised reduction per side does it, and ``nulls`` counts the NULL-or-NaN
    rows of each block — where it is :data:`BLOCK_ROWS`, only fill was seen.
    INT64 extremes are int64 whatever the stored width, an all-NULL block's
    the int64 fill, so a summary does not depend on how its rows are stored.
    """
    present = valid
    if dtype is DataType.FLOAT64:
        present = valid & ~np.isnan(data)
    elif dtype is DataType.STRING:
        present = valid & (data != None)  # noqa: E711 - elementwise on object arrays
    blocks = len(data) // BLOCK_ROWS
    nulls = BLOCK_ROWS - np.count_nonzero(present.reshape(blocks, BLOCK_ROWS), axis=1)
    low_fill: Any
    high_fill: Any
    if present.all():
        low, high = data, data
    else:
        if dtype is DataType.FLOAT64:
            low_fill, high_fill = np.inf, -np.inf
        elif dtype is DataType.INT64:
            info = np.iinfo(data.dtype)
            low_fill, high_fill = data.dtype.type(info.max), data.dtype.type(info.min)
        elif dtype is DataType.BOOL:
            low_fill, high_fill = True, False
        elif present.any():
            seen = data[present]
            low_fill, high_fill = max(seen), min(seen)
        else:
            low_fill = high_fill = ""
        low = np.where(present, data, low_fill)
        high = np.where(present, data, high_fill)
    mins = low.reshape(blocks, BLOCK_ROWS).min(axis=1)
    maxs = high.reshape(blocks, BLOCK_ROWS).max(axis=1)
    if dtype is DataType.INT64 and data.dtype != _INT64:
        mins, maxs = mins.astype(_INT64), maxs.astype(_INT64)
        empty = nulls == BLOCK_ROWS
        info = np.iinfo(_INT64)
        mins[empty], maxs[empty] = info.max, info.min
    return mins, maxs, nulls


class Column:
    """A typed column of values with NULL tracking.

    Parameters
    ----------
    dtype:
        Declared type of the column.
    values:
        Packed NumPy array of values (``dtype.numpy_dtype``).
    validity:
        Boolean array of the same length; False marks NULL positions.
    """

    __slots__ = ("dtype", "_buffer", "_length")

    def __init__(self, dtype: DataType, values: np.ndarray, validity: np.ndarray | None = None) -> None:
        self.dtype = dtype
        values = np.asarray(values, dtype=dtype.numpy_dtype)
        if validity is not None:
            validity = np.asarray(validity, dtype=bool)
            if len(validity) != len(values):
                raise TypeMismatchError(
                    f"validity mask length {len(validity)} != values length {len(values)}"
                )
        self._buffer = _Buffer(values, validity, len(values))
        self._length = len(values)

    @classmethod
    def _share(cls, dtype: DataType, buffer: _Buffer, length: int) -> "Column":
        """Construct a snapshot over an existing buffer without copying."""
        column = object.__new__(cls)
        column.dtype = dtype
        column._buffer = buffer
        column._length = length
        return column

    @classmethod
    def _stored_as(cls, dtype: DataType, data: np.ndarray, valid: np.ndarray | None) -> "Column":
        """A column over ``data`` as it is stored — no dtype conversion, no
        copy; ``valid`` None means no NULL."""
        return cls._share(dtype, _Buffer(data, valid, len(data)), len(data))

    # -- packed storage ------------------------------------------------------

    @property
    def stored(self) -> np.ndarray:
        """The physical value array (a view of the backing buffer): an INT64
        column's at its stored width, with 0 in a narrow buffer's NULL slots."""
        buffer = self._buffer
        if self._length == len(buffer.data):
            return buffer.data
        return buffer.data[: self._length]

    @property
    def stored_width(self) -> int:
        """Bytes one value occupies where it is stored — what a scan reads
        per row.  The declared width except for a narrowed INT64 column."""
        if self.dtype is DataType.INT64:
            return self._buffer.data.itemsize
        return self.dtype.byte_width

    @property
    def values(self) -> np.ndarray:
        """The packed value array at the declared dtype: a view of the
        backing buffer, or for a narrowed INT64 column an int64 copy with the
        sentinel at every NULL."""
        stored = self.stored
        if self.dtype is not DataType.INT64 or stored.dtype == _INT64:
            return stored
        wide = stored.astype(_INT64)
        if not self.null_free():
            wide[~self.validity] = null_value(DataType.INT64)
        return wide

    @property
    def validity(self) -> np.ndarray:
        """Boolean mask, False at NULL positions (a view of the buffer)."""
        buffer = self._buffer
        if self._length == len(buffer.valid):
            return buffer.valid
        return buffer.valid[: self._length]

    def narrowed(self) -> "Column":
        """This column stored at the narrowest width its valid values need —
        itself when it is not INT64 or is stored that narrow already."""
        stored = self.stored
        if self.dtype is not DataType.INT64 or stored.dtype == INT_WIDTHS[0]:
            return self
        valid = self.validity
        if valid.all():
            valid = None
        width = int_width(*_int_range(stored, valid))
        if width == stored.dtype:
            return self
        if valid is not None:
            stored = np.where(valid, stored, stored.dtype.type(0))
        return Column._stored_as(self.dtype, stored.astype(width), valid)

    def block_synopsis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zone map: ``(mins, maxs, nulls)`` of this column's complete blocks.

        One entry per :data:`BLOCK_ROWS`-row block that lies wholly below this
        snapshot's length — min and max of its non-NULL values and its count of
        NULL-or-NaN rows; the partial tail block has no entry (callers read
        it).  Built on first use and cached on the shared buffer, so later
        snapshots of an append chain only summarise the blocks added since,
        and a snapshot older than the cache reads a prefix of it.
        """
        blocks = self._length // BLOCK_ROWS
        buffer = self._buffer
        cached = buffer.synopsis
        have = 0 if cached is None else len(cached[2])
        if cached is None or have < blocks:
            start, stop = have * BLOCK_ROWS, blocks * BLOCK_ROWS
            added = _summarise_blocks(
                self.dtype, buffer.data[start:stop], buffer.valid[start:stop]
            )
            if cached is not None:
                added = tuple(np.concatenate(pair) for pair in zip(cached, added))
            cached = added
            longest = buffer.synopsis
            if longest is None or len(longest[2]) < blocks:
                buffer.synopsis = cached
        return tuple(part[:blocks] for part in cached)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_values(cls, dtype: DataType, values: Sequence[Any]) -> "Column":
        """Build a column from plain python values (``None`` becomes NULL)."""
        if not isinstance(values, (list, tuple)):
            values = list(values)
        n = len(values)
        if n == 0:
            return cls.empty(dtype)

        # Fast path: one cheap type scan, then a single vectorised conversion
        # (plus a sentinel fill when NULLs are present).  The scan admits only
        # exact types for which ``dtype.coerce`` is the identity, so the fast
        # and slow paths produce identical columns.
        allowed = _FAST_VALUE_TYPES[dtype]
        has_none = False
        fast = True
        for value in values:
            if value is None:
                has_none = True
            elif type(value) not in allowed:
                fast = False
                break
        if fast:
            try:
                return cls._from_values_fast(dtype, values, n, has_none)
            except (TypeError, ValueError, OverflowError):
                pass  # e.g. int overflowing int64 — re-diagnose per value.

        packed = []
        validity = np.ones(n, dtype=bool)
        sentinel = null_value(dtype)
        for i, value in enumerate(values):
            if value is None:
                packed.append(sentinel)
                validity[i] = False
            else:
                packed.append(dtype.coerce(value))
        array = np.array(packed, dtype=dtype.numpy_dtype)
        return cls(dtype, array, validity)

    @classmethod
    def _from_values_fast(
        cls, dtype: DataType, values: Sequence[Any], n: int, has_none: bool
    ) -> "Column":
        npdtype = dtype.numpy_dtype
        if not has_none:
            if dtype is DataType.STRING:
                array = np.empty(n, dtype=object)
                array[:] = values
            else:
                array = np.asarray(values, dtype=npdtype)
            return cls(dtype, array, np.ones(n, dtype=bool))
        validity = np.fromiter((v is not None for v in values), dtype=bool, count=n)
        boxed = np.empty(n, dtype=object)
        boxed[:] = values
        if dtype is DataType.STRING:
            return cls(dtype, boxed, validity)  # sentinel for STRING is None
        array = np.full(n, null_value(dtype), dtype=npdtype)
        array[validity] = boxed[validity].astype(npdtype)
        return cls(dtype, array, validity)

    @classmethod
    def from_numpy(cls, dtype: DataType, array: np.ndarray) -> "Column":
        """Build a column directly from a NumPy array (NaN -> NULL for floats)."""
        array = np.asarray(array, dtype=dtype.numpy_dtype)
        if dtype is DataType.FLOAT64:
            validity = ~np.isnan(array)
        else:
            validity = np.ones(len(array), dtype=bool)
        return cls(dtype, array, validity)

    @classmethod
    def empty(cls, dtype: DataType) -> "Column":
        return cls(dtype, np.empty(0, dtype=dtype.numpy_dtype), np.empty(0, dtype=bool))

    @classmethod
    def infer(cls, values: Sequence[Any]) -> "Column":
        """Infer the dtype from ``values`` and build a column."""
        dtype = DataType.infer_common(list(values))
        return cls.from_values(dtype, values)

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_pylist())

    def __getitem__(self, index: int) -> Any:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"column index {index} out of range for length {self._length}")
        return python_value(self.dtype, self._buffer.data[index], bool(self._buffer.valid[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.dtype is other.dtype and self.to_pylist() == other.to_pylist()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        preview = ", ".join(repr(v) for v in self.to_pylist()[:5])
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column({self.dtype.value}, [{preview}{suffix}], n={len(self)})"

    # -- conversion ----------------------------------------------------------

    def to_pylist(self) -> list[Any]:
        """Return the column as a list of python values (None for NULL)."""
        values = self.stored
        nulls = self.null_mask()
        if self.dtype is DataType.STRING:
            result = list(values)
        else:
            result = values.tolist()
        if nulls.any():
            for i in np.flatnonzero(nulls):
                result[i] = None
        return result

    def to_numpy(self) -> np.ndarray:
        """Return the packed value array at the declared dtype.

        Float columns encode NULL as NaN; integer columns use the INT64 min
        sentinel.  Use :attr:`validity` to distinguish genuine values.
        """
        return self.values

    def nonnull_numpy(self) -> np.ndarray:
        """Return only the non-NULL values as they are stored — an INT64
        column's at its stored width, for a reader that reduces, sorts or
        casts them (widen before any other arithmetic).

        A column without NULLs hands back a *read-only view* of its packed
        values, not a gathered copy (later appends to the shared buffer land
        beyond it); a caller that writes must copy first.
        """
        stored = self.stored
        if self.null_free():
            view = stored.view()
            view.flags.writeable = False
            return view
        return stored[self.validity]

    def float_numpy(self) -> np.ndarray:
        """Return the values as a fresh float64 array with NaN at every NULL.

        The numeric read for fitting and scoring: casting :meth:`to_numpy`
        would turn the INT64 NULL sentinel into -9.2e18 instead of a value
        every NaN-skipping consumer leaves out.
        """
        stored = self.stored
        array = stored.astype(np.float64)
        if not self.null_free():
            array[~self.validity] = np.nan
        if stored.dtype == _INT64:
            # As in :meth:`null_mask`: the sentinel is NULL even where marked valid.
            array[stored == null_value(DataType.INT64)] = np.nan
        return array

    # -- null accounting -----------------------------------------------------

    def null_free(self) -> bool:
        """Whether the validity mask marks no row NULL — read from the
        buffer's cached valid prefix, scanning only rows no snapshot of the
        buffer has checked yet (in-array sentinels are :meth:`null_mask`'s)."""
        buffer = self._buffer
        rows, ended = buffer.clean
        if self._length <= rows:
            return True
        if ended:
            return False
        valid = buffer.valid[rows : self._length]
        if valid.all():
            buffer.clean = (self._length, False)
            return True
        buffer.clean = (rows + int(np.argmin(valid)), True)
        return False

    @property
    def null_count(self) -> int:
        return self._length - int(np.count_nonzero(self.validity))

    @property
    def has_nulls(self) -> bool:
        return bool((~self.validity).any())

    def null_mask(self) -> np.ndarray:
        """Boolean mask of NULL positions, including in-array sentinels.

        The validity bitmap is the authoritative NULL record, but a NaN (or
        the INT64 sentinel, which only an 8-byte buffer can hold) written
        through :meth:`from_numpy`-style paths also reads back as NULL; this
        mask unifies both, vectorised.
        """
        invalid = ~self.validity
        values = self.stored
        if self.dtype is DataType.FLOAT64:
            return invalid | np.isnan(values)
        if self.dtype is DataType.INT64:
            if values.dtype != _INT64:
                return invalid
            return invalid | (values == null_value(DataType.INT64))
        if self.dtype is DataType.STRING:
            if len(values):
                invalid = invalid | np.fromiter(
                    (v is None for v in values), dtype=bool, count=len(values)
                )
            return invalid
        return invalid

    # -- derivation ----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer index (used by joins, sorts and filters),
        at the stored width.

        The validity mask is gathered only when it holds a NULL
        (:meth:`null_free`): the rows of an all-valid column are all valid,
        whichever are taken.
        """
        indices = np.asarray(indices, dtype=np.int64)
        valid = None if self.null_free() else self.validity[indices]
        return Column._stored_as(self.dtype, self.stored[indices], valid)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep only rows where ``mask`` is True: :meth:`take` of its set
        positions (several times faster than a boolean gather)."""
        return self.take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    def slice(self, start: int, stop: int) -> "Column":
        """Rows ``start:stop`` (views, at the stored width); a leading slice
        is a shorter snapshot of the same buffer, sharing its caches."""
        start, stop, _ = slice(start, stop).indices(self._length)
        stop = max(start, stop)
        if start == 0:
            return Column._share(self.dtype, self._buffer, stop)
        return Column._stored_as(self.dtype, self.stored[start:stop], self.validity[start:stop])

    @classmethod
    def stack(cls, parts: Sequence["Column"]) -> "Column":
        """``parts`` end to end as a new column, in their dtype — or FLOAT64
        where numbers of several dtypes meet (compared by value, as python
        compares them).  Raises :class:`TypeMismatchError` where strings meet
        numbers.  Unlike :meth:`concat`, never writes into a part's buffer."""
        if len({part.dtype for part in parts}) > 1:
            if any(part.dtype is DataType.STRING for part in parts):
                raise TypeMismatchError("cannot stack string and numeric columns")
            parts = [cls.from_numpy(DataType.FLOAT64, part.float_numpy()) for part in parts]
        values = np.concatenate([part.stored for part in parts])
        valid = np.concatenate([part.validity for part in parts])
        if parts[0].dtype is DataType.INT64 and not valid.all():
            values[~valid] = _int_null(values.dtype)
        return cls._stored_as(parts[0].dtype, values, valid)

    def concat(self, other: "Column") -> "Column":
        """This column with ``other``'s rows after it (see the module
        docstring); an INT64 value this buffer's width cannot hold moves the
        rows to a fresh buffer wide enough for both first."""
        if other.dtype is not self.dtype:
            raise TypeMismatchError(
                f"cannot concatenate {self.dtype.value} column with {other.dtype.value} column"
            )
        n = len(other)
        if n == 0:
            return Column._share(self.dtype, self._buffer, self._length)
        buffer = self._buffer
        total = self._length + n
        width = buffer.data.dtype
        if self.dtype is DataType.INT64 and other.stored.dtype.itemsize > width.itemsize:
            needed = int_width(*_int_range(other.stored, other.validity))
            width = max(width, needed, key=lambda dtype: dtype.itemsize)
        if self._length == buffer.tip and total <= len(buffer.data) and width == buffer.data.dtype:
            # This column is the newest snapshot and the buffer has spare
            # capacity: commit the addition in place.
            _write_rows(buffer.data[self._length : total], buffer.valid[self._length : total], other)
            buffer.tip = total
            return Column._share(self.dtype, buffer, total)
        # Reallocate with doubling headroom so a chain of appends stays
        # O(n) amortised even though each append returns a fresh snapshot.
        capacity = max(_MIN_CAPACITY, total, 2 * self._length)
        data = np.empty(capacity, dtype=width)
        valid = np.zeros(capacity, dtype=bool)
        _write_rows(data[: self._length], valid[: self._length], self)
        _write_rows(data[self._length : total], valid[self._length : total], other)
        # The copied prefix is identical, so its block summaries carry over
        # (only those below *this* snapshot's length: a longer sibling's
        # blocks describe rows the new buffer does not share).
        synopsis = buffer.synopsis
        if synopsis is not None:
            synopsis = tuple(part[: self._length // BLOCK_ROWS] for part in synopsis)
        new_buffer = _Buffer(data, valid, total, synopsis)
        return Column._share(self.dtype, new_buffer, total)

    def append_value(self, value: Any) -> "Column":
        """Return a new column with ``value`` appended (None for NULL)."""
        if value is None:
            addition = Column(
                self.dtype,
                np.array([null_value(self.dtype)], dtype=self.dtype.numpy_dtype),
                np.zeros(1, dtype=bool),
            )
        else:
            addition = Column(
                self.dtype,
                np.array([self.dtype.coerce(value)], dtype=self.dtype.numpy_dtype),
                np.ones(1, dtype=bool),
            )
        return self.concat(addition)

    # -- storage accounting --------------------------------------------------

    def byte_size(self) -> int:
        """Nominal storage footprint in bytes (values only, fixed-width accounting).

        The declared width, however the column is stored: the compression
        baselines and the cost model measure against it, so narrowing a
        column moves neither a ratio nor a route choice.  What a scan reads
        is :attr:`stored_width` per row.
        """
        return len(self) * self.dtype.byte_width

    # -- statistics helpers --------------------------------------------------

    def distinct_values(self) -> list[Any]:
        """Distinct non-NULL values, sorted when the type is orderable."""
        values = {v for v in self.to_pylist() if v is not None}
        try:
            return sorted(values)
        except TypeError:  # pragma: no cover - mixed types cannot occur for typed columns
            return list(values)

    def min(self) -> Any:
        data = self.nonnull_numpy()
        if len(data) == 0:
            return None
        if self.dtype is DataType.STRING:
            return min(data)
        return python_value(self.dtype, data.min())

    def max(self) -> Any:
        data = self.nonnull_numpy()
        if len(data) == 0:
            return None
        if self.dtype is DataType.STRING:
            return max(data)
        return python_value(self.dtype, data.max())


def _write_rows(data: np.ndarray, valid: np.ndarray, source: Column) -> None:
    """Write ``source``'s rows into the views ``data`` / ``valid``.

    ``data`` holds every valid value of ``source`` (the caller sized it): a
    narrower source widens exactly, a wider one's valid values fit, and each
    NULL slot is then set to what a buffer of ``data``'s width holds there —
    never left to a wrapped-around cast.
    """
    stored = source.stored
    data[:] = stored
    valid[:] = source.validity
    if valid.all():
        return
    if source.dtype is DataType.INT64 and stored.dtype != data.dtype:
        data[~valid] = _int_null(data.dtype)
