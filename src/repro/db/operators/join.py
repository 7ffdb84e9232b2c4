"""Hash join operator (inner equi-join), vectorised.

Both sides' keys are mapped into one small integer code space, so the probe
phase is direct array indexing — no binary search, no per-row hashing, no
per-row python loops.  Each step does only the work its keys need, decided on
the arrays in hand: integer-like keys over a narrow joint span are their own
codes (``value - min``), anything else is ranked over the union of both
sides' values; one key pair is its own code space, several are packed into a
composite code per row; unique build keys pair each probe row with its
partner by one gather, duplicate ones expand the matches with ``np.repeat``
arithmetic over the build rows sorted by code.

Semantics are identical to the old dict-of-python-values implementation,
whichever kernels run: NULL keys never match, key equality follows numeric
equality across INT64/FLOAT64/BOOL (``1 == 1.0 == True``), and output rows
are left-row-major with right matches in ascending right-row order.
"""

from __future__ import annotations

import numpy as np

from repro.db.column import Column
from repro.db.operators.base import Operator
from repro.db.operators.codes import CodeSpacePacker, argsort_codes, rank_codes
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError

__all__ = ["HashJoin", "right_output_names"]


def _comparable(left_dtype: DataType, right_dtype: DataType) -> bool:
    """Whether two key dtypes can ever compare equal under python equality."""
    if left_dtype is right_dtype:
        return True
    # INT64, FLOAT64 and BOOL all live on the python numeric tower; STRING
    # values never equal numbers, so such pairs produce an empty join.
    return left_dtype is not DataType.STRING and right_dtype is not DataType.STRING


def _matchable(column: Column, other: Column) -> tuple[np.ndarray, np.ndarray | None]:
    """One side's keys that can match at all: ``(values, rows)``.

    ``rows`` masks the rows that are not NULL (validity or in-array sentinel)
    and ``values`` are their keys; ``rows`` is ``None`` when that is every
    row, and then nothing was gathered.  Against a key column of another
    numeric dtype python equality is exact (``1 == 1.0 == True``, but
    ``2**53 + 1 != float(2**53)``), so both sides compare as exact int64: a
    float that is non-integral, non-finite or outside int64 range equals no
    integer and is dropped like a NULL.
    """
    values = column.stored
    rows = ~column.null_mask()
    if column.dtype is not other.dtype:
        if column.dtype is DataType.FLOAT64:
            rows &= (values == np.floor(values)) & (values >= -(2.0**63)) & (values < 2.0**63)
            values = np.where(rows, values, 0.0)
        values = values.astype(np.int64, copy=False)
    if rows.all():
        return values, None
    return values[rows], rows


def _spread(codes: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Per-row codes from the matchable rows' codes: ``-1`` everywhere else."""
    if rows is None:
        return codes
    spread = np.full(len(rows), -1, dtype=np.int64)
    spread[rows] = codes
    return spread


def _pair_codes(left: Column, right: Column) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorise one key column pair into a shared integer code space.

    Returns ``(left_codes, right_codes, space)``: ``-1`` marks a key that can
    never match (see :func:`_matchable`), every other code is in
    ``[0, space)``, and ``space`` is 0 when a side has no matchable key.
    Integer-like keys whose joint span is within the scratch bound
    :func:`rank_codes` allows itself are their own codes.
    """
    left_vals, left_rows = _matchable(left, right)
    right_vals, right_rows = _matchable(right, left)
    num_left, num_right = len(left_vals), len(right_vals)
    if num_left == 0 or num_right == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    left_codes = right_codes = None
    if left_vals.dtype.kind in "iub" and right_vals.dtype.kind in "iub":
        low = min(int(left_vals.min()), int(right_vals.min()))
        space = max(int(left_vals.max()), int(right_vals.max())) - low + 1
        if space <= 4 * (num_left + num_right) + 64:
            left_codes = left_vals.astype(np.int64, copy=False) - low
            right_codes = right_vals.astype(np.int64, copy=False) - low
    if left_codes is None:
        inverse, space = rank_codes(np.concatenate([left_vals, right_vals]))
        left_codes, right_codes = inverse[:num_left], inverse[num_left:]
    return _spread(left_codes, left_rows), _spread(right_codes, right_rows), space


def right_output_names(left_names, right_name: str, right_names) -> list[tuple[str, str]]:
    """``(column, output name)`` of every right column beside ``left_names``:
    a name the left side already has becomes ``<right_name>.<name>``."""
    pairs = []
    existing = set(left_names)
    for name in right_names:
        out_name = f"{right_name}.{name}" if name in existing else name
        if out_name in existing:
            raise ExecutionError(f"cannot disambiguate join output column {name!r}")
        pairs.append((name, out_name))
        existing.add(out_name)
    return pairs


class HashJoin(Operator):
    """Inner equi-join on one or more key column pairs.

    The right (build) side is hashed; the left (probe) side streams through.
    Output columns are ``left_columns`` of the left input followed by
    ``right_columns`` — ``(column, output name)`` pairs — of the right one,
    and only they are gathered.  By default every column of both sides is
    handed on, named by :func:`right_output_names`.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        left_columns: list[str] | None = None,
        right_columns: list[tuple[str, str]] | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ExecutionError("join requires the same number of left and right keys")
        if not left_keys:
            raise ExecutionError("join requires at least one key column")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.left_columns = left_columns
        self.right_columns = right_columns

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def describe(self) -> str:
        conditions = ", ".join(f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin({conditions})"

    def apply(self, left_table: Table, right_table: Table) -> Table:
        left_indices, right_indices = self._match_indices(left_table, right_table)
        left_names = left_table.schema.names if self.left_columns is None else self.left_columns
        right_columns = self.right_columns
        if right_columns is None:
            right_columns = right_output_names(left_names, right_table.name, right_table.schema.names)

        defs: list[ColumnDef] = []
        columns: dict[str, Column] = {}
        for side, indices, pairs in (
            (left_table, left_indices, [(name, name) for name in left_names]),
            (right_table, right_indices, right_columns),
        ):
            for name, out_name in pairs:
                col_def = side.schema.column(name)
                defs.append(ColumnDef(out_name, col_def.dtype, col_def.nullable))
                columns[out_name] = side.column(name).take(indices)

        name = f"{left_table.name}_join_{right_table.name}"
        return Table(name, Schema(defs), columns)

    # -- matching ---------------------------------------------------------------

    def _match_indices(self, left_table: Table, right_table: Table) -> tuple[np.ndarray, np.ndarray]:
        """Row-index pairs of every inner-join match, left-row-major."""
        empty = np.empty(0, dtype=np.int64)
        num_left = left_table.num_rows
        num_right = right_table.num_rows
        if num_left == 0 or num_right == 0:
            return empty, empty

        left_columns = [left_table.column(k) for k in self.left_keys]
        right_columns = [right_table.column(k) for k in self.right_keys]
        if any(
            not _comparable(l.dtype, r.dtype) for l, r in zip(left_columns, right_columns)
        ):
            return empty, empty

        # One key pair is its own code space; several are packed into one
        # composite code per row (the packer re-densifies whenever the packed
        # range outgrows the row count), so the probe phase is direct array
        # indexing either way.  A row with an unmatchable component keeps -1.
        pairs = [_pair_codes(l, r) for l, r in zip(left_columns, right_columns)]
        if any(space == 0 for _, _, space in pairs):
            return empty, empty
        if len(pairs) == 1:
            ((left_codes, right_codes, space),) = pairs
        else:
            packer = CodeSpacePacker(
                [np.zeros(num_left, dtype=np.int64), np.zeros(num_right, dtype=np.int64)]
            )
            for left_part, right_part, width in pairs:
                packer.add([np.maximum(left_part, 0), np.maximum(right_part, 0)], width)
            (left_packed, right_packed), space = packer.finish()
            left_parts, right_parts, _ = zip(*pairs)
            left_codes = np.where(np.minimum.reduce(left_parts) >= 0, left_packed, -1)
            right_codes = np.where(np.minimum.reduce(right_parts) >= 0, right_packed, -1)

        build_rows = np.flatnonzero(right_codes >= 0)
        build_codes = right_codes[build_rows]
        # One slot past the code space stays empty: it is where a probe code
        # of -1 lands, so unmatchable probe rows need no filtering of their own.
        counts_by_code = np.bincount(build_codes, minlength=space + 1)

        if counts_by_code.max() == 1:
            # Unique build keys: a probe row has at most one partner, found by
            # one gather.
            row_by_code = np.full(space + 1, -1, dtype=np.int64)
            row_by_code[build_codes] = build_rows
            partners = row_by_code[left_codes]
            left_indices = np.flatnonzero(partners >= 0)
            return left_indices, partners[left_indices]

        # Duplicate build keys.  Per-code slice offsets into the build rows
        # sorted by code; stable sort keeps matches in ascending right-row
        # order within each code.
        match_counts_all = counts_by_code[left_codes]
        matched_probe_rows = np.flatnonzero(match_counts_all)
        build_order = argsort_codes(build_codes, space)
        sorted_build_rows = build_rows[build_order]
        starts_by_code = np.cumsum(counts_by_code) - counts_by_code
        matched_codes = left_codes[matched_probe_rows]
        match_counts = match_counts_all[matched_probe_rows]

        # Expand: each matched probe row repeats once per build match, and a
        # per-match ramp indexes into that code's slice of the sorted build
        # rows.
        total = int(match_counts.sum())
        left_indices = np.repeat(matched_probe_rows, match_counts)
        offsets = np.zeros(len(match_counts), dtype=np.int64)
        offsets[1:] = np.cumsum(match_counts)[:-1]
        ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets, match_counts)
        right_indices = sorted_build_rows[np.repeat(starts_by_code[matched_codes], match_counts) + ramp]
        return left_indices, right_indices
