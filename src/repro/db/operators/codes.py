"""Shared key-factorisation helpers for the vectorised operators.

Grouped aggregation, hash join and DISTINCT all reduce key columns to dense
integer codes ranked in ascending value order (the order ``np.unique``
produces).  For integer-like keys whose value range is not much larger than
the row count, the ranking is computed with a histogram in O(n) instead of
a sort.

A key column without NULLs has no NULL bucket (its ranks are its codes), and
a single column — or a single join key pair — is its own code space: only
several are packed into one composite code per row (:class:`CodeSpacePacker`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.column import Column

__all__ = ["rank_codes", "argsort_codes", "dense_key_codes", "factorize_keys", "CodeSpacePacker"]


class CodeSpacePacker:
    """Packs per-column dense codes into one composite int64 code per row.

    Maintains aligned packed-code arrays (one per input relation — grouped
    aggregation packs one, the hash join packs the probe and build sides in
    lockstep) and the running size of the composite code space.  The space
    is re-densified via ``np.unique`` *before* any multiply that could
    overflow int64 or outgrow the scratch tables downstream consumers
    allocate, so arbitrarily many / arbitrarily wide key columns stay exact.
    """

    def __init__(self, parts: list[np.ndarray], space: int = 1) -> None:
        self.parts = [np.asarray(p, dtype=np.int64) for p in parts]
        self.space = int(space)
        self._limit = 4 * sum(len(p) for p in self.parts) + 64

    def add(self, codes: list[np.ndarray], width: int) -> None:
        """Append one key column's dense codes (``[0, width)`` per part)."""
        if self.space > self._limit:
            self._densify()
        self.parts = [part * width + c for part, c in zip(self.parts, codes)]
        self.space *= width

    def _densify(self) -> None:
        combined = np.concatenate(self.parts) if len(self.parts) > 1 else self.parts[0]
        uniques, inverse = np.unique(combined, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        densified = []
        offset = 0
        for part in self.parts:
            densified.append(inverse[offset : offset + len(part)])
            offset += len(part)
        self.parts = densified
        self.space = len(uniques)

    def finish(self) -> tuple[list[np.ndarray], int]:
        """Final packed codes and code-space size, densified if oversized."""
        if self.space > self._limit:
            self._densify()
        return self.parts, self.space


def dense_key_codes(key_columns: "list[Column]", num_rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense composite key codes, numbered by key value rank.

    Returns ``(codes, first_rows, num_groups)``: ``codes`` maps each row to a
    group in ``[0, num_groups)``, every code occurs, and ``first_rows[c]`` is
    the row where code ``c`` first appears.  NULL key components (validity or
    in-array sentinel) are their own code, so NULL keys group together —
    matching python-value hashing.  A consumer of per-group results computes
    them by code and emits ``result[np.argsort(first_rows)]``: first-occurrence
    order costs a permutation of the groups, never a renumbering of the rows
    (:func:`factorize_keys` does that, for callers that read per-row ids).
    """
    codes: np.ndarray | None = None
    space = 0
    packer: CodeSpacePacker | None = None
    for column in key_columns:
        nulls = column.null_mask()
        if nulls.any():
            valid = ~nulls
            column_codes = np.zeros(num_rows, dtype=np.int64)  # 0 = NULL bucket
            value_codes, width = rank_codes(column.stored[valid])
            column_codes[valid] = value_codes + 1
            width += 1
        else:
            column_codes, width = rank_codes(column.stored)
        if codes is None:
            # A single factorised column is already dense: every rank occurs
            # by construction, and so does the NULL bucket when there is one.
            codes, space = column_codes, width
        else:
            if packer is None:
                # The packer re-densifies before the composite code space
                # could overflow int64 under many / wide key columns.
                packer = CodeSpacePacker([codes], space)
            packer.add([column_codes], width)

    assert codes is not None
    if packer is not None:
        unique_packed, codes = np.unique(packer.parts[0], return_inverse=True)
        space = len(unique_packed)

    # The reversed scatter makes the *earliest* row win each code's slot
    # without a sort.
    first_rows = np.empty(space, dtype=np.int64)
    first_rows[codes[::-1]] = np.arange(num_rows - 1, -1, -1, dtype=np.int64)
    return codes, first_rows, space


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


def rank_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense 0-based codes (ascending value rank) for a NULL-free array.

    Returns ``(codes, cardinality)`` where equal values share a code and
    codes are numbered by ascending value, exactly like
    ``np.unique(values, return_inverse=True)``.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    if values.dtype.kind in "iub":
        vmin = int(values.min())
        vmax = int(values.max())
        span = vmax - vmin + 1
        if span <= 4 * n + 64:
            # In int64 whatever the input's width: a narrow span can exceed it.
            shifted = np.subtract(values, vmin, dtype=np.int64)
            present = np.bincount(shifted, minlength=span) > 0
            ranks = np.cumsum(present) - 1
            return ranks[shifted].astype(np.int64, copy=False), int(present.sum())
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def argsort_codes(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """Stable argsort of dense codes, via radix sort when codes fit uint16.

    NumPy's stable sort for small unsigned integer dtypes is a radix sort;
    for the typical group count (well under 2**16) this is several times
    faster than a comparison sort of int64 codes.
    """
    if 0 < cardinality <= np.iinfo(np.uint16).max:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    return np.argsort(codes, kind="stable")
