"""In-memory columnar tables.

A :class:`Table` bundles a :class:`~repro.db.schema.Schema` with one
:class:`~repro.db.column.Column` per schema entry.  Tables are the unit of
storage (base tables registered in the catalog) and the unit of data exchange
between physical operators (every operator consumes and produces tables).

Tables are *logically* immutable: mutating operations (``append_rows``)
return nothing but replace the internal columns atomically, and derivation
operations (``filter``, ``take``, ``select`` ...) always return new tables.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.schema import ColumnDef, Schema
from repro.db.types import DataType
from repro.errors import ExecutionError, SchemaError, TypeMismatchError

__all__ = ["Table"]

#: Serializes concurrent in-place appends.  Appends are copy-and-swap (the
#: column mapping is rebuilt, then replaced with one reference assignment),
#: so readers are always safe without this lock — but two *writers* racing
#: would both build from the same old columns and one batch would vanish.
#: One module-level lock (rather than per-table) keeps Table construction
#: allocation-free; appends are rare relative to reads and derivations.
_append_lock = threading.Lock()


class Table:
    """A named, schema-typed collection of columns of equal length."""

    def __init__(self, name: str, schema: Schema, columns: Mapping[str, Column] | None = None) -> None:
        self.name = name
        self.schema = schema
        if columns is None:
            columns = {c.name: Column.empty(c.dtype) for c in schema}
        self._columns: dict[str, Column] = {}
        lengths = set()
        for col_def in schema:
            if col_def.name not in columns:
                raise SchemaError(f"table {name!r}: missing data for column {col_def.name!r}")
            column = columns[col_def.name]
            if column.dtype is not col_def.dtype:
                raise TypeMismatchError(
                    f"table {name!r}: column {col_def.name!r} declared {col_def.dtype.value} "
                    f"but data is {column.dtype.value}"
                )
            self._columns[col_def.name] = column
            lengths.add(len(column))
        if len(lengths) > 1:
            raise SchemaError(f"table {name!r}: columns have differing lengths {sorted(lengths)}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, name: str, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from an iterable of row tuples (positional)."""
        rows = list(rows)
        width = len(schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"table {name!r}: row has {len(row)} values but schema has {width} columns"
                )
        columns = {}
        for i, col_def in enumerate(schema):
            values = [row[i] for row in rows]
            columns[col_def.name] = Column.from_values(col_def.dtype, values)
        return cls(name, schema, columns)

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Sequence[Any]], schema: Schema | None = None) -> "Table":
        """Build a table from a column-name -> values mapping.

        When ``schema`` is omitted the column types are inferred from the
        values.
        """
        if schema is None:
            defs = []
            columns = {}
            for col_name, values in data.items():
                column = Column.infer(list(values))
                defs.append(ColumnDef(col_name, column.dtype))
                columns[col_name] = column
            return cls(name, Schema(defs), columns)
        columns = {
            col_def.name: Column.from_values(col_def.dtype, list(data[col_def.name])) for col_def in schema
        }
        return cls(name, schema, columns)

    @classmethod
    def from_numpy(cls, name: str, schema: Schema, arrays: Mapping[str, np.ndarray]) -> "Table":
        """Build a table from NumPy arrays without per-value coercion (fast path)."""
        columns = {
            col_def.name: Column.from_numpy(col_def.dtype, arrays[col_def.name]) for col_def in schema
        }
        return cls(name, schema, columns)

    @classmethod
    def empty(cls, name: str, schema: Schema) -> "Table":
        return cls(name, schema)

    # -- basic protocol -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self.schema.names:
            return 0
        return len(self._columns[self.schema.names[0]])

    @property
    def num_columns(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, rows={self.num_rows}, columns={self.schema.names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema == other.schema and self.to_pydict() == other.to_pydict()

    # -- access ----------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}; available: {self.schema.names}") from None

    def columns(self) -> dict[str, Column]:
        """A shallow copy of the column mapping."""
        return dict(self._columns)

    def row(self, index: int) -> tuple[Any, ...]:
        if index < 0 or index >= self.num_rows:
            raise ExecutionError(f"row index {index} out of range for table with {self.num_rows} rows")
        return tuple(self._columns[name][index] for name in self.schema.names)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.num_rows):
            yield self.row(i)

    def iter_dicts(self) -> Iterator[dict[str, Any]]:
        names = self.schema.names
        for row in self.iter_rows():
            yield dict(zip(names, row))

    def to_pydict(self) -> dict[str, list[Any]]:
        return {name: self._columns[name].to_pylist() for name in self.schema.names}

    def to_rows(self) -> list[tuple[Any, ...]]:
        return list(self.iter_rows())

    # -- mutation (base tables) --------------------------------------------------

    def append_rows(self, rows: Iterable[Sequence[Any]] | "Table") -> None:
        """Append rows to this table in place (atomically): row tuples, or a
        table of this schema (a replayed redo record's), whose columns are
        concatenated as they are.

        Copy-and-swap: the new column mapping is built off to the side and
        published with one reference assignment, so a concurrent reader (or
        a :meth:`pinned` snapshot) either sees the table entirely before or
        entirely after the batch — never a torn mix.  Writers serialize on a
        lock so two racing appends cannot both build from the same base and
        drop a batch.
        """
        if not isinstance(rows, Table):
            rows = Table.from_rows(self.name, self.schema, rows)
        elif rows.schema != self.schema:
            raise SchemaError(f"table {self.name!r}: appended rows have a different schema")
        if not rows.num_rows:
            return
        with _append_lock:
            base = self._columns
            self._columns = {name: base[name].concat(rows.column(name)) for name in self.schema.names}

    def append_dicts(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append rows given as dicts; missing keys become NULL."""
        names = self.schema.names
        self.append_rows([tuple(row.get(name) for name in names) for row in rows])

    def narrow_integers(self) -> "Table":
        """Store every INT64 column at the narrowest width its values need
        (:meth:`Column.narrowed`) — in place and atomically, as an append
        swaps its columns in: the rows do not change.  Returns ``self``."""
        with _append_lock:
            base = self._columns
            narrowed = {name: column.narrowed() for name, column in base.items()}
            if any(narrowed[name] is not base[name] for name in base):
                self._columns = narrowed
        return self

    def rollback_to(self, image: "Table") -> None:
        """Atomically restore this table's contents to a prior :meth:`pinned`
        image — the undo half of copy-and-swap, used when a commit's
        secondary effect (e.g. its WAL record) fails after the append."""
        if image.schema != self.schema:
            raise SchemaError(
                f"table {self.name!r}: rollback image has a different schema"
            )
        with _append_lock:
            self._columns = image._columns

    # -- derivation ---------------------------------------------------------------

    def pinned(self) -> "Table":
        """A frozen snapshot of this table's current contents, O(1).

        Shares the immutable column objects behind a single atomic read of
        the column mapping, so the copy costs two attribute assignments and
        no data movement.  A later :meth:`append_rows` on the live table
        swaps in a *new* mapping; the pinned table keeps this one forever.
        Schema re-validation is skipped — the live table already validated.
        """
        snapshot = object.__new__(Table)
        snapshot.name = self.name
        snapshot.schema = self.schema
        snapshot._columns = self._columns
        return snapshot

    def rename(self, new_name: str) -> "Table":
        return Table(new_name, self.schema, self._columns)

    def select(self, names: Sequence[str]) -> "Table":
        """Project to a subset of columns (in the given order)."""
        schema = self.schema.select(names)
        return Table(self.name, schema, {name: self._columns[name] for name in names})

    def with_column(self, name: str, column: Column) -> "Table":
        """Return a new table with ``column`` added (or replaced in place).

        Replacing an existing column keeps its position in the schema, so
        downstream projections and ``to_rows`` keep their column order; only
        a genuinely new column is appended at the end.
        """
        if len(column) != self.num_rows and self.num_rows > 0:
            raise SchemaError(
                f"new column {name!r} has {len(column)} rows but table has {self.num_rows}"
            )
        new_def = ColumnDef(name, column.dtype)
        if name in self._columns:
            defs = [new_def if c.name == name else c for c in self.schema]
        else:
            defs = list(self.schema) + [new_def]
        columns = dict(self._columns)
        columns[name] = column
        return Table(self.name, Schema(defs), columns)

    def filter(self, mask: np.ndarray) -> "Table":
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows:
            raise ExecutionError(f"filter mask length {len(mask)} != row count {self.num_rows}")
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.name, self.schema, {n: c.take(indices) for n, c in self._columns.items()})

    def slice(self, start: int, stop: int) -> "Table":
        return Table(self.name, self.schema, {n: c.slice(start, stop) for n, c in self._columns.items()})

    def head(self, n: int = 10) -> "Table":
        return self.slice(0, min(n, self.num_rows))

    def tail(self, n: int = 10) -> "Table":
        """The last ``n`` rows (the freshest data, in arrival order)."""
        return self.slice(max(self.num_rows - n, 0), self.num_rows)

    def concat(self, other: "Table") -> "Table":
        if other.schema != self.schema:
            raise SchemaError(
                f"cannot concatenate tables with different schemas: {self.schema!r} vs {other.schema!r}"
            )
        return Table(
            self.name,
            self.schema,
            {n: self._columns[n].concat(other.column(n)) for n in self.schema.names},
        )

    def sort_by(self, keys: Sequence[tuple[str, bool]]) -> "Table":
        """Sort by a list of ``(column, ascending)`` keys (stable).

        Vectorized via :func:`np.lexsort`: a numeric or boolean key column is
        its own sort code (negated for descending), a string column is ranked
        with :func:`np.unique`, and NULLs always sort after every value, in
        both directions.
        """
        if self.num_rows == 0 or not keys:
            return self
        # np.lexsort sorts by the *last* key array first, so pass the primary
        # key last; lexsort is stable, matching the previous per-key
        # stable-sort semantics (ties keep their original row order).
        sort_keys: list[np.ndarray] = []
        for name, ascending in reversed(list(keys)):
            sort_keys.extend(self._sort_arrays(name, ascending))
        order = np.lexsort(sort_keys)
        return self.take(order)

    def top_n(self, keys: Sequence[tuple[str, bool]], count: int) -> "Table":
        """The first ``count`` rows of ``sort_by(keys)``, without sorting the rest.

        :func:`np.partition` finds the ``count``-th best non-NULL value of the
        primary key; only the rows at least that good (ties included, in row
        order) go through the stable sort, so the result is
        ``sort_by(keys).head(count)`` row for row.  With fewer than ``count``
        non-NULL rows the NULLs are needed too and the whole table is sorted.
        """
        if count <= 0:
            return self.slice(0, 0)
        name, ascending = keys[0]
        column = self.column(name)
        present = ~column.null_mask()
        rows = None if present.all() else np.flatnonzero(present)
        values = column.stored if rows is None else column.stored[rows]
        if len(values) <= count:
            return self.sort_by(keys).head(count)
        if ascending:
            bound = np.partition(values, count - 1)[count - 1]
            hits = np.flatnonzero(values <= bound)
        else:
            kth = len(values) - count
            bound = np.partition(values, kth)[kth]
            hits = np.flatnonzero(values >= bound)
        candidates = hits if rows is None else rows[hits]
        return self.take(candidates).sort_by(keys).head(count)

    def _sort_arrays(self, name: str, ascending: bool) -> list[np.ndarray]:
        """``np.lexsort`` key arrays for one sort key, least significant first.

        NULLs (NaN and the INT64 sentinel included) sort last in both
        directions: their mask is the more significant array, and their
        values are levelled so they tie among themselves.
        """
        column = self.column(name)
        nulls = column.null_mask()
        values = column.stored
        if column.dtype is DataType.STRING:
            codes = np.zeros(len(values), dtype=np.int64)
            present = ~nulls
            if present.any():
                uniques, inverse = np.unique(values[present], return_inverse=True)
                codes[present] = inverse if ascending else (len(uniques) - 1) - inverse
                codes[nulls] = len(uniques)
            return [codes]
        if not ascending:
            # ``-v`` would overflow at the smallest INT64; ``~v`` = -v - 1 cannot.
            values = -values if column.dtype is DataType.FLOAT64 else ~values
        if not nulls.any():
            return [values]
        return [np.where(nulls, values.dtype.type(0), values), nulls]

    # -- storage accounting -----------------------------------------------------------

    def byte_size(self) -> int:
        """Nominal storage footprint of all columns, in bytes."""
        return sum(column.byte_size() for column in self._columns.values())

    # -- display ------------------------------------------------------------------------

    def to_text(self, limit: int = 20) -> str:
        """Render the first ``limit`` rows as an aligned text table."""
        names = self.schema.names
        rows = [tuple(_format_cell(v) for v in row) for row in self.head(limit).iter_rows()]
        widths = [len(n) for n in names]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        rule = "-+-".join("-" * w for w in widths)
        body = "\n".join(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows)
        footer = "" if self.num_rows <= limit else f"\n... ({self.num_rows - limit} more rows)"
        return f"{header}\n{rule}\n{body}{footer}"


def _format_cell(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
