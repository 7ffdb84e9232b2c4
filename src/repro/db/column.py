"""Columnar storage: a single column of values plus a validity bitmap.

The engine stores every table column as a :class:`Column` — a packed NumPy
array together with a boolean validity mask (True = value present, False =
SQL NULL).  All physical operators exchange data as columns, which keeps the
hot paths vectorised and makes the byte accounting used by the compression
experiments straightforward.

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

A column whose validity mask is all True does no mask work.  The property is
tested where it is used (``validity.all()``, microseconds per million rows),
never assumed or cached: :meth:`Column.take` / :meth:`Column.filter` gather
the values only, and :meth:`Column.nonnull_numpy` returns a *read-only view*
of the packed values — safe for the reason synopses are.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.db.types import DataType, null_value, python_value
from repro.errors import TypeMismatchError

__all__ = ["BLOCK_ROWS", "Column"]

#: Rows per synopsis block: one 8 KiB page of an 8-byte column.
BLOCK_ROWS = 1024

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


class _Buffer:
    """Growable backing store shared by a chain of column snapshots.

    ``tip`` is the committed length: only the column whose length equals the
    tip may extend the buffer in place, so positions below any snapshot's
    length are never rewritten.

    ``synopsis`` caches ``(mins, maxs, nulls)`` for the leading complete
    blocks some snapshot has summarised so far.  It is replaced whole, by one
    attribute assignment, and every value it can hold is correct for every
    snapshot, so readers need no lock.
    """

    __slots__ = ("data", "valid", "tip", "synopsis")

    def __init__(
        self,
        data: np.ndarray,
        valid: np.ndarray,
        tip: int,
        synopsis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.data = data
        self.valid = valid
        self.tip = tip
        self.synopsis = synopsis


def _summarise_blocks(
    dtype: DataType, data: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mins, maxs, nulls)`` of consecutive complete blocks.

    ``data`` / ``valid`` hold a whole number of blocks.  Min and max are over
    the non-NULL values of a block (a NaN counts as NULL: no comparison
    accepts it); NULL positions are filled with the opposite extreme so one
    vectorised reduction per side does it, and ``nulls`` counts the NULL-or-NaN
    rows of each block — where it is :data:`BLOCK_ROWS`, only fill was seen.
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
            info = np.iinfo(np.int64)
            low_fill, high_fill = info.max, info.min
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
        if validity is None:
            validity = np.ones(len(values), dtype=bool)
        else:
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

    # -- packed storage ------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The packed value array (a view of the backing buffer)."""
        buffer = self._buffer
        if self._length == len(buffer.data):
            return buffer.data
        return buffer.data[: self._length]

    @property
    def validity(self) -> np.ndarray:
        """Boolean mask, False at NULL positions (a view of the buffer)."""
        buffer = self._buffer
        if self._length == len(buffer.valid):
            return buffer.valid
        return buffer.valid[: self._length]

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
        values = self.values
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
        """Return the packed value array.

        Float columns encode NULL as NaN; integer columns use the INT64 min
        sentinel.  Use :attr:`validity` to distinguish genuine values.
        """
        return self.values

    def nonnull_numpy(self) -> np.ndarray:
        """Return only the non-NULL values as a NumPy array.

        A column without NULLs hands back a *read-only view* of its packed
        values, not a gathered copy (later appends to the shared buffer land
        beyond it); a caller that writes must copy first.
        """
        validity = self.validity
        if validity.all():
            view = self.values.view()
            view.flags.writeable = False
            return view
        return self.values[validity]

    def float_numpy(self) -> np.ndarray:
        """Return the values as a fresh float64 array with NaN at every NULL.

        The numeric read for fitting and scoring: casting :meth:`to_numpy`
        would turn the INT64 NULL sentinel into -9.2e18 instead of a value
        every NaN-skipping consumer leaves out.
        """
        array = self.values.astype(np.float64)
        validity = self.validity
        if not validity.all():
            array[~validity] = np.nan
        if self.dtype is DataType.INT64:
            # As in :meth:`null_mask`: the sentinel is NULL even where marked valid.
            array[self.values == null_value(DataType.INT64)] = np.nan
        return array

    # -- null accounting -----------------------------------------------------

    @property
    def null_count(self) -> int:
        return self._length - int(np.count_nonzero(self.validity))

    @property
    def has_nulls(self) -> bool:
        return bool((~self.validity).any())

    def null_mask(self) -> np.ndarray:
        """Boolean mask of NULL positions, including in-array sentinels.

        The validity bitmap is the authoritative NULL record, but a NaN (or
        the INT64 sentinel) written through :meth:`from_numpy`-style paths
        also reads back as NULL; this mask unifies both, vectorised.
        """
        invalid = ~self.validity
        values = self.values
        if self.dtype is DataType.FLOAT64:
            return invalid | np.isnan(values)
        if self.dtype is DataType.INT64:
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
        """Gather rows by integer index (used by joins, sorts and filters).

        The validity mask is gathered only when it holds a NULL: the rows of
        an all-valid column are all valid, whichever are taken.
        """
        indices = np.asarray(indices, dtype=np.int64)
        validity = self.validity
        return Column(self.dtype, self.values[indices], None if validity.all() else validity[indices])

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep only rows where ``mask`` is True: :meth:`take` of its set
        positions (several times faster than a boolean gather)."""
        return self.take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    def slice(self, start: int, stop: int) -> "Column":
        return Column(self.dtype, self.values[start:stop], self.validity[start:stop])

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
        values = np.concatenate([part.values for part in parts])
        return cls(parts[0].dtype, values, np.concatenate([part.validity for part in parts]))

    def concat(self, other: "Column") -> "Column":
        if other.dtype is not self.dtype:
            raise TypeMismatchError(
                f"cannot concatenate {self.dtype.value} column with {other.dtype.value} column"
            )
        n = len(other)
        if n == 0:
            return Column._share(self.dtype, self._buffer, self._length)
        buffer = self._buffer
        total = self._length + n
        if self._length == buffer.tip and total <= len(buffer.data):
            # This column is the newest snapshot and the buffer has spare
            # capacity: commit the addition in place.
            buffer.data[self._length : total] = other.values
            buffer.valid[self._length : total] = other.validity
            buffer.tip = total
            return Column._share(self.dtype, buffer, total)
        # Reallocate with doubling headroom so a chain of appends stays
        # O(n) amortised even though each append returns a fresh snapshot.
        capacity = max(_MIN_CAPACITY, total, 2 * self._length)
        data = np.empty(capacity, dtype=self.dtype.numpy_dtype)
        valid = np.zeros(capacity, dtype=bool)
        data[: self._length] = self.values
        valid[: self._length] = self.validity
        data[self._length : total] = other.values
        valid[self._length : total] = other.validity
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
        """Nominal storage footprint in bytes (values only, fixed-width accounting)."""
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
