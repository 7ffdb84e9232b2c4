"""Hash join operator (inner equi-join), vectorised, probed a morsel at a time.

The build (right) side is coded once: each key column gets a
:class:`~repro.db.operators.codes.KeyDictionary` over its values (integer
keys over a narrow span are coded through the span, anything else by binary
search in the sorted distinct values), several key columns pack their codes
pairwise, and every build row gets one dense code.  Unique build keys give a
partner table — code to build row — and duplicate ones the build rows sorted
by code with per-code slice offsets.

The probe (left) side is then read a morsel at a time
(:mod:`repro.db.operators.morsel`) at the width its keys are stored at: a
morsel's keys are looked up strictly in the build's dictionaries (a key the
build side does not hold codes ``-1`` and lands in the empty slot past the
code space), unique build keys pair each probe row with its partner by one
gather, duplicate ones expand the matches with ``np.repeat`` arithmetic.
What a morsel matches is kept as a :class:`~repro.db.operators.morsel.Piece`
— a mask, or repeated positions — and only the handed-on columns are
gathered from the pieces into the output; no right-row array exists when no
right column is handed on.

Semantics are identical to the old dict-of-python-values implementation,
whichever kernels run: NULL keys never match, key equality follows numeric
equality across INT64/FLOAT64/BOOL (``1 == 1.0 == True``), and output rows
are left-row-major with right matches in ascending right-row order.
"""

from __future__ import annotations

import numpy as np

from repro.db.column import Column
from repro.db.operators.base import Operator
from repro.db.operators.codes import KeyDictionary, argsort_codes, build_packs, pack
from repro.db.operators.morsel import Piece, gather, keep, morsels
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


class _Build:
    """The build side, coded once: a dictionary per key column, one per pack
    step, and the build rows by code.

    One integer key coded through its span needs no ranks: its offset from
    the span's low end is its code (``direct``).  ``partners`` (unique build
    keys) maps a code to its build row; otherwise ``counts`` / ``starts``
    give each code's slice of ``rows_by_code``.  Both tables hold one slot
    past the code space that a probe code of ``-1`` lands in: no partner,
    no match.
    """

    def __init__(self, right_keys: list[Column], left_keys: list[Column]) -> None:
        sides = [_matchable(right, left) for right, left in zip(right_keys, left_keys)]
        self.dictionaries = [KeyDictionary.build(lambda values=values: [values], len(values)) for values, _ in sides]
        self.direct = len(sides) == 1 and self.dictionaries[0].uniques is None
        codes = [_spread(self._code(d, values), rows) for d, (values, rows) in zip(self.dictionaries, sides)]
        # Only a row whose every key can match is built.
        rows = np.flatnonzero(np.minimum.reduce(codes) >= 0)
        if len(rows) < len(codes[0]):
            codes = [column[rows] for column in codes]
        self.empty = len(rows) == 0
        if self.empty:
            return
        self.widths = [dictionary.size for dictionary in self.dictionaries]
        self.packs = [] if self.direct else build_packs(lambda: iter([codes]), self.widths, len(rows))
        if self.direct:
            space = self.dictionaries[0].span
        else:
            space = self.packs[-1].size if self.packs else self.widths[0]
        build_codes = pack(codes, self.widths, self.packs)
        self.counts = np.bincount(build_codes, minlength=space + 1)
        self.partners = None
        if self.counts.max() == 1:
            self.partners = np.full(space + 1, -1, dtype=np.int64)
            self.partners[build_codes] = rows
        else:
            # Stable: matches stay in ascending build-row order within a code.
            self.rows_by_code = rows[argsort_codes(build_codes, space)]
            self.starts = np.cumsum(self.counts) - self.counts

    def _code(self, dictionary: KeyDictionary, values: np.ndarray, strict: bool = False) -> np.ndarray:
        return dictionary.offsets(values, strict) if self.direct else dictionary.codes(values, strict)

    def probe(self, left_keys: list[Column], right_keys: list[Column]) -> np.ndarray:
        """The codes of one probe morsel's keys, ``-1`` where no build key equals them."""
        codes = []
        for left, right, dictionary in zip(left_keys, right_keys, self.dictionaries):
            values, rows = _matchable(left, right)
            codes.append(_spread(self._code(dictionary, values, strict=True), rows))
        return pack(codes, self.widths, self.packs, strict=True)


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
        left_names = left_table.schema.names if self.left_columns is None else self.left_columns
        right_columns = self.right_columns
        if right_columns is None:
            right_columns = right_output_names(left_names, right_table.name, right_table.schema.names)
        left_pieces, right_pieces = self._match(left_table, right_table, bool(right_columns))

        defs: list[ColumnDef] = []
        columns: dict[str, Column] = {}
        for side, pieces, pairs in (
            (left_table, left_pieces, [(name, name) for name in left_names]),
            (right_table, right_pieces, right_columns),
        ):
            for name, out_name in pairs:
                col_def = side.schema.column(name)
                defs.append(ColumnDef(out_name, col_def.dtype, col_def.nullable))
                columns[out_name] = gather(side.column(name), pieces)

        name = f"{left_table.name}_join_{right_table.name}"
        return Table(name, Schema(defs), columns)

    # -- matching ---------------------------------------------------------------

    def _match(
        self, left_table: Table, right_table: Table, pair_right: bool
    ) -> tuple[list[Piece], list[Piece]]:
        """Every inner-join match, left-row-major, as the probe morsels'
        pieces of left rows and, when ``pair_right``, of right rows."""
        left_pieces: list[Piece] = []
        right_pieces: list[Piece] = []
        num_left, num_right = left_table.num_rows, right_table.num_rows
        left_keys = [left_table.column(k) for k in self.left_keys]
        right_keys = [right_table.column(k) for k in self.right_keys]
        if num_left == 0 or num_right == 0 or not all(
            _comparable(l.dtype, r.dtype) for l, r in zip(left_keys, right_keys)
        ):
            return left_pieces, right_pieces
        build = _Build(right_keys, left_keys)
        if build.empty:
            return left_pieces, right_pieces
        for start, stop in morsels([(0, num_left)]):
            codes = build.probe([key.slice(start, stop) for key in left_keys], right_keys)
            if build.partners is not None:
                # Unique build keys: a probe row has at most one partner.
                partners = build.partners[codes]
                matched = partners >= 0
                keep(left_pieces, start, stop, matched)
                if pair_right:
                    picked = partners[matched]
                    if len(picked):
                        right_pieces.append(Piece(0, num_right, picked, len(picked)))
                continue
            # Duplicate build keys: each matched probe row repeats once per
            # build match, and a per-match ramp indexes into its code's slice
            # of the build rows sorted by code.
            match_counts = build.counts[codes]
            matched = np.flatnonzero(match_counts)
            if not len(matched):
                continue
            per_row = match_counts[matched]
            total = int(per_row.sum())
            left_pieces.append(Piece(start, stop, np.repeat(matched, per_row), total))
            if pair_right:
                ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(per_row) - per_row, per_row)
                picked = build.rows_by_code[np.repeat(build.starts[codes[matched]], per_row) + ramp]
                right_pieces.append(Piece(0, num_right, picked, total))
        return left_pieces, right_pieces
