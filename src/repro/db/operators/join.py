"""Hash join operator (inner equi-join), vectorised.

Keys are factorised into dense integer codes over the *union* of both
sides' key values, so the probe phase is a single ``np.searchsorted`` over
the build side's sorted codes and the match expansion is ``np.repeat``
arithmetic — no per-row python loops.  Semantics are identical to the old
dict-of-python-values implementation: NULL keys never match, key equality
follows numeric equality across INT64/FLOAT64/BOOL (``1 == 1.0 == True``),
and output rows are left-row-major with right matches in ascending
right-row order.
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

__all__ = ["HashJoin"]


def _comparable(left_dtype: DataType, right_dtype: DataType) -> bool:
    """Whether two key dtypes can ever compare equal under python equality."""
    if left_dtype is right_dtype:
        return True
    # INT64, FLOAT64 and BOOL all live on the python numeric tower; STRING
    # values never equal numbers, so such pairs produce an empty join.
    return left_dtype is not DataType.STRING and right_dtype is not DataType.STRING


def _int64_exact(values: np.ndarray, dtype: DataType) -> tuple[np.ndarray, np.ndarray]:
    """Map numeric key values to exact int64, flagging the convertible ones.

    Used when an integer-like key column joins a FLOAT64 one: comparing in
    float64 would collapse integers differing beyond 2**53.  A float that is
    non-integral, non-finite or outside int64 range can never equal an INT64
    key, so it is simply flagged unmatchable (equivalent to no match for an
    inner join).
    """
    if dtype is DataType.FLOAT64:
        convertible = (
            np.isfinite(values)
            & (values == np.floor(values))
            & (values >= -(2.0**63))
            & (values < 2.0**63)
        )
        ints = np.zeros(len(values), dtype=np.int64)
        ints[convertible] = values[convertible].astype(np.int64)
        return ints, convertible
    return values.astype(np.int64, copy=False), np.ones(len(values), dtype=bool)


def _pair_codes(left: Column, right: Column) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorise one key column pair into a shared integer code space.

    Returns ``(left_codes, right_codes, cardinality)`` with ``-1`` marking
    keys that can never match: NULLs (validity or in-array sentinel) on
    either side, and — for mixed int/float key pairs — float values with no
    exact integer counterpart.
    """
    left_valid = ~left.null_mask()
    right_valid = ~right.null_mask()
    left_vals = left.values[left_valid]
    right_vals = right.values[right_valid]
    if left.dtype is not right.dtype:
        # Mixed numeric dtypes: python equality is exact (1 == 1.0 == True,
        # but 2**53 + 1 != float(2**53)), so compare in exact int64 space
        # when an integer-like side is involved.
        left_vals, left_matchable = _int64_exact(left_vals, left.dtype)
        right_vals, right_matchable = _int64_exact(right_vals, right.dtype)
        left_vals = left_vals[left_matchable]
        right_vals = right_vals[right_matchable]
        left_valid[left_valid] = left_matchable
        right_valid[right_valid] = right_matchable
    combined = np.concatenate([left_vals, right_vals])
    left_codes = np.full(len(left), -1, dtype=np.int64)
    right_codes = np.full(len(right), -1, dtype=np.int64)
    inverse, cardinality = rank_codes(combined)
    if cardinality:
        left_codes[left_valid] = inverse[: len(left_vals)]
        right_codes[right_valid] = inverse[len(left_vals) :]
    return left_codes, right_codes, cardinality


class HashJoin(Operator):
    """Inner equi-join on one or more key column pairs.

    The right (build) side is hashed; the left (probe) side streams through.
    Output columns are the left columns followed by the right columns; when a
    name collides, the right column is prefixed with ``<right_table>.``.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ExecutionError("join requires the same number of left and right keys")
        if not left_keys:
            raise ExecutionError("join requires at least one key column")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def describe(self) -> str:
        conditions = ", ".join(f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin({conditions})"

    def apply(self, left_table: Table, right_table: Table) -> Table:
        left_indices, right_indices = self._match_indices(left_table, right_table)

        left_result = left_table.take(left_indices)
        right_result = right_table.take(right_indices)

        # Stitch the two sides together, disambiguating clashing names.
        defs: list[ColumnDef] = list(left_result.schema.columns)
        columns = left_result.columns()
        existing = set(left_result.schema.names)
        for col_def in right_result.schema:
            out_name = col_def.name
            if out_name in existing:
                out_name = f"{right_table.name}.{col_def.name}"
            if out_name in existing:
                raise ExecutionError(f"cannot disambiguate join output column {col_def.name!r}")
            defs.append(ColumnDef(out_name, col_def.dtype, col_def.nullable))
            columns[out_name] = right_result.column(col_def.name)
            existing.add(out_name)

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

        # Factorise each key pair, then pack the per-column codes into one
        # composite code per row.  Rows with any NULL component drop out.
        # The code space stays dense (the packer re-densifies whenever the
        # packed range outgrows the row count), so the probe phase is direct
        # array indexing — no binary search, no per-row hashing.
        packer = CodeSpacePacker(
            [np.zeros(num_left, dtype=np.int64), np.zeros(num_right, dtype=np.int64)]
        )
        left_ok = np.ones(num_left, dtype=bool)
        right_ok = np.ones(num_right, dtype=bool)
        for left_column, right_column in zip(left_columns, right_columns):
            left_codes, right_codes, cardinality = _pair_codes(left_column, right_column)
            if cardinality == 0:  # every key on both sides is NULL/unmatchable
                return empty, empty
            left_ok &= left_codes >= 0
            right_ok &= right_codes >= 0
            packer.add(
                [
                    np.where(left_codes >= 0, left_codes, 0),
                    np.where(right_codes >= 0, right_codes, 0),
                ],
                cardinality,
            )
        (left_packed, right_packed), space = packer.finish()

        probe_rows = np.flatnonzero(left_ok)
        build_rows = np.flatnonzero(right_ok)
        if len(probe_rows) == 0 or len(build_rows) == 0:
            return empty, empty
        probe_codes = left_packed[probe_rows]
        build_codes = right_packed[build_rows]

        # Build: per-code match counts and slice offsets into the build rows
        # sorted by code; stable sort keeps matches in ascending right-row
        # order within each code.
        counts_by_code = np.bincount(build_codes, minlength=space)
        match_counts_all = counts_by_code[probe_codes]
        matched = match_counts_all > 0
        if not matched.any():
            return empty, empty
        build_order = argsort_codes(build_codes, space)
        sorted_build_rows = build_rows[build_order]
        starts_by_code = np.cumsum(counts_by_code) - counts_by_code

        matched_probe_rows = probe_rows[matched]
        matched_codes = probe_codes[matched]
        match_counts = match_counts_all[matched]

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
