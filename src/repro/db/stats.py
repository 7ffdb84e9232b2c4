"""Per-column statistics.

The engine keeps lightweight statistics for every base-table column:
min/max, null count, distinct-value estimate and, for low-cardinality
columns, the full domain.  These statistics feed three consumers:

* the query planner (selectivity guesses for filter ordering),
* the model harvester (deciding whether a column is *enumerable* for the
  parameter-space enumeration of §4.2 of the paper), and
* the synopsis baselines (histogram bucket boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.column import Column
from repro.db.table import Table
from repro.db.types import DataType, python_value

__all__ = [
    "ColumnStats",
    "TableStats",
    "compute_column_stats",
    "compute_table_stats",
    "merge_table_stats",
]

#: Columns with at most this many distinct values are considered enumerable
#: and have their full domain materialised in the statistics.
ENUMERABLE_DISTINCT_LIMIT = 4096


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    name: str
    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None
    mean: float | None = None
    std: float | None = None
    #: Full sorted domain for low-cardinality columns, else None.
    domain: list[Any] | None = None
    #: Row count per domain value (aligned with ``domain``), else None.
    #: Lets consumers weight by the actual value frequencies instead of
    #: assuming a uniform spread over the domain.
    domain_counts: list[int] | None = None

    @property
    def is_enumerable(self) -> bool:
        """True when the column's full domain is known (few distinct values).

        This is the machine notion of the paper's "enumerable column": a
        column (such as the LOFAR observation frequency, which only takes
        values in {0.12, 0.15, 0.16, 0.18}) whose values can be regenerated
        without touching the stored data.
        """
        return self.domain is not None

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def selectivity_equals(self, value: Any) -> float:
        """Estimated selectivity of ``column = value`` under uniformity."""
        if self.row_count == 0 or self.distinct_count == 0:
            return 0.0
        if self.domain is not None and value not in self.domain:
            return 0.0
        return 1.0 / self.distinct_count

    def selectivity_range(self, low: Any | None, high: Any | None) -> float:
        """Estimated selectivity of a range predicate, assuming uniformity."""
        if self.row_count == 0:
            return 0.0
        if not self.dtype.is_numeric or self.min_value is None or self.max_value is None:
            return 0.3  # classic textbook default for unsupported predicates
        lo = float(self.min_value) if low is None else float(low)
        hi = float(self.max_value) if high is None else float(high)
        span = float(self.max_value) - float(self.min_value)
        if span <= 0:
            return 1.0 if lo <= float(self.min_value) <= hi else 0.0
        overlap = max(0.0, min(hi, float(self.max_value)) - max(lo, float(self.min_value)))
        return min(1.0, overlap / span)

    def to_payload(self) -> dict[str, Any]:
        """JSON-friendly form (archive and checkpoint manifests): statistics
        of rows that are not in memory when it is read back."""
        return {
            "name": self.name,
            "dtype": self.dtype.value,
            "row_count": self.row_count,
            "null_count": self.null_count,
            "distinct_count": self.distinct_count,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "mean": self.mean,
            "std": self.std,
            "domain": self.domain,
            "domain_counts": self.domain_counts,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ColumnStats":
        return cls(
            name=payload["name"],
            dtype=DataType(payload["dtype"]),
            row_count=int(payload["row_count"]),
            null_count=int(payload["null_count"]),
            distinct_count=int(payload["distinct_count"]),
            min_value=payload.get("min_value"),
            max_value=payload.get("max_value"),
            mean=payload.get("mean"),
            std=payload.get("std"),
            domain=payload.get("domain"),
            domain_counts=payload.get("domain_counts"),
        )

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        """Merge statistics of two *disjoint* row sets of the same column.

        The merge is associative and commutative, so per-partition (or
        per-batch) statistics can be combined in any grouping and reproduce
        what :func:`compute_column_stats` would report over the union —
        exactly for row/null counts, min/max, mean, domains and domain
        counts; ``std`` via the pooled second moment (population std, as
        computed); ``distinct_count`` exactly whenever both sides carry
        their full domain (or are empty), otherwise as a max lower bound.
        """
        if self.name != other.name or self.dtype is not other.dtype:
            raise ValueError(
                f"cannot merge stats of {self.name!r}:{self.dtype.value} "
                f"with {other.name!r}:{other.dtype.value}"
            )
        n1 = self.row_count - self.null_count
        n2 = other.row_count - other.null_count

        def _combine(a: Any, b: Any, pick: Any) -> Any:
            if a is None:
                return b
            if b is None:
                return a
            return pick(a, b)

        mean: float | None = None
        std: float | None = None
        if n1 == 0:
            mean, std = other.mean, other.std
        elif n2 == 0:
            mean, std = self.mean, self.std
        elif self.mean is not None and other.mean is not None:
            total = n1 + n2
            mean = (n1 * self.mean + n2 * other.mean) / total
            if self.std is not None and other.std is not None:
                second_moment = (
                    n1 * (self.std * self.std + self.mean * self.mean)
                    + n2 * (other.std * other.std + other.mean * other.mean)
                ) / total
                std = math.sqrt(max(0.0, second_moment - mean * mean))

        # A side's value multiset is fully known when it carries its domain
        # (or holds no non-null data at all); only then is the merged domain
        # — and hence the merged distinct count — exact.
        domain: list[Any] | None = None
        domain_counts: list[int] | None = None
        distinct_count = max(self.distinct_count, other.distinct_count)
        if (self.domain is not None or n1 == 0) and (other.domain is not None or n2 == 0):
            counts: dict[Any, int] = {}
            for side in (self, other):
                if side.domain is None:
                    continue
                side_counts = (
                    side.domain_counts
                    if side.domain_counts is not None
                    else [0] * len(side.domain)
                )
                for value, count in zip(side.domain, side_counts):
                    counts[value] = counts.get(value, 0) + int(count)
            distinct_count = len(counts)
            if 0 < distinct_count <= ENUMERABLE_DISTINCT_LIMIT:
                domain = sorted(counts)
                domain_counts = [counts[value] for value in domain]

        return ColumnStats(
            name=self.name,
            dtype=self.dtype,
            row_count=self.row_count + other.row_count,
            null_count=self.null_count + other.null_count,
            distinct_count=distinct_count,
            min_value=_combine(self.min_value, other.min_value, min),
            max_value=_combine(self.max_value, other.max_value, max),
            mean=mean,
            std=std,
            domain=domain,
            domain_counts=domain_counts,
        )


@dataclass
class TableStats:
    """Statistics for a whole table."""

    table_name: str
    row_count: int
    byte_size: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns[name]

    def to_payload(self) -> dict[str, Any]:
        return {
            "row_count": self.row_count,
            "byte_size": self.byte_size,
            "columns": {name: stats.to_payload() for name, stats in self.columns.items()},
        }

    @classmethod
    def from_payload(cls, table_name: str, payload: dict[str, Any]) -> "TableStats":
        return cls(
            table_name=table_name,
            row_count=int(payload["row_count"]),
            byte_size=int(payload["byte_size"]),
            columns={
                name: ColumnStats.from_payload(entry)
                for name, entry in payload["columns"].items()
            },
        )


def _value_counts(data: np.ndarray) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """``(distinct, values, counts)`` of a non-empty array: ``values`` /
    ``counts`` are ``np.unique(data, return_counts=True)``'s, materialised only
    when ``distinct <= ENUMERABLE_DISTINCT_LIMIT`` (else both ``None``).

    The kernel is chosen from the data: a strictly increasing array has no
    repeats (one comparison pass); integers and booleans over a narrow span
    are counted by a histogram; other numbers by one sort and a count of the
    run boundaries; strings by ``np.unique`` itself.
    """
    n = len(data)
    kind = data.dtype.kind
    if kind == "O":
        values, counts = np.unique(data, return_counts=True)
    elif (data[1:] > data[:-1]).all():
        values, counts = data, np.ones(n, dtype=np.int64)
    else:
        span = None
        if kind in "ib":
            ints = data.view(np.uint8) if kind == "b" else data
            low = int(ints.min())
            span = int(ints.max()) - low + 1
        if span is not None and span <= 4 * n + 64:
            histogram = np.bincount(ints - low, minlength=span)
            occupied = np.flatnonzero(histogram)
            values = (occupied + low).astype(data.dtype)
            counts = histogram[occupied]
        else:
            ordered = np.sort(data)
            if kind == "f" and np.isnan(ordered[-1]):
                # NaNs sort last and are one value, as ``np.unique`` has it.
                ordered = ordered[: np.searchsorted(ordered, np.nan) + 1]
            new_run = ordered[1:] != ordered[:-1]
            distinct = 1 + int(np.count_nonzero(new_run))
            if distinct > ENUMERABLE_DISTINCT_LIMIT:
                return distinct, None, None
            starts = np.concatenate(([0], np.flatnonzero(new_run) + 1))
            values = ordered[starts]
            counts = np.diff(np.append(starts, n))
    if len(values) > ENUMERABLE_DISTINCT_LIMIT:
        return len(values), None, None
    return len(values), values, counts


def compute_column_stats(name: str, column: Column) -> ColumnStats:
    """Compute :class:`ColumnStats` for a column by scanning it once."""
    stats = ColumnStats(
        name=name,
        dtype=column.dtype,
        row_count=len(column),
        null_count=column.null_count,
        distinct_count=0,
    )
    data = column.nonnull_numpy()
    if len(data) == 0:
        return stats

    stats.distinct_count, values, value_counts = _value_counts(data)
    if values is not None:
        # Plain ints / floats / bools / strs, per the column's packed dtype.
        stats.domain = [str(v) for v in values] if column.dtype is DataType.STRING else values.tolist()
        stats.domain_counts = value_counts.tolist()

    if column.dtype.is_numeric:
        stats.mean = float(np.mean(data))
        stats.std = float(np.std(data))
        stats.min_value = python_value(column.dtype, data.min())
        stats.max_value = python_value(column.dtype, data.max())
    elif stats.domain is not None:  # BOOL always; STRING when enumerable
        stats.min_value, stats.max_value = stats.domain[0], stats.domain[-1]
    else:
        strings = data.tolist()
        stats.min_value, stats.max_value = min(strings), max(strings)
    return stats


def compute_table_stats(table: Table) -> TableStats:
    """Compute statistics for every column of ``table``."""
    stats = TableStats(table_name=table.name, row_count=table.num_rows, byte_size=table.byte_size())
    for col_name in table.schema.names:
        stats.columns[col_name] = compute_column_stats(col_name, table.column(col_name))
    return stats


def merge_table_stats(base: TableStats, delta: TableStats) -> TableStats:
    """Merge whole-table statistics of two disjoint row sets.

    Column-wise :meth:`ColumnStats.merge`; both sides must describe the
    same column set.  Used to fold per-partition (or per-ingest-batch)
    statistics into table statistics without rescanning the whole table.
    """
    if set(base.columns) != set(delta.columns):
        raise ValueError(
            f"cannot merge table stats with different columns: "
            f"{sorted(base.columns)} vs {sorted(delta.columns)}"
        )
    merged = TableStats(
        table_name=base.table_name,
        row_count=base.row_count + delta.row_count,
        byte_size=base.byte_size + delta.byte_size,
    )
    for name, column_stats in base.columns.items():
        merged.columns[name] = column_stats.merge(delta.columns[name])
    return merged
