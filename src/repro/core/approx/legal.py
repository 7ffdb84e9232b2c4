"""Legal parameter combinations via Bloom filters.

§4.2, "Legal parameter combinations": enumerating the model's input space
can generate tuples for input combinations that never occurred in the
original data, violating relational semantics.  The paper's second proposed
solution is "a compressed lookup structure (e.g. Bloom filters) to encode
all legal parameter combinations" — implemented here from scratch, together
with a small helper that builds the filter from a base table and prunes
model-generated tuples.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.db.table import Table

__all__ = ["BloomFilter", "LegalCombinationFilter"]


class BloomFilter:
    """A classic Bloom filter over hashable items.

    Sized from the expected item count and target false-positive rate using
    the standard formulas ``m = -n ln(p) / (ln 2)^2`` and ``k = m/n ln 2``.
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        if expected_items <= 0:
            expected_items = 1
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        # A floor of 256 bits keeps tiny filters (a handful of combinations)
        # well below their nominal false-positive rate despite double hashing.
        self.num_bits = max(256, int(math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))))
        self.num_hashes = max(1, int(round(self.num_bits / expected_items * math.log(2))))
        self._bits = np.zeros(self.num_bits, dtype=bool)

    # -- core operations ----------------------------------------------------------

    def add(self, item: Any) -> None:
        for position in self._positions(item):
            self._bits[position] = True

    def __contains__(self, item: Any) -> bool:
        return all(self._bits[position] for position in self._positions(item))

    def add_many(self, items: Iterable[Any]) -> None:
        for item in items:
            self.add(item)

    # -- accounting ------------------------------------------------------------------

    def byte_size(self) -> int:
        """Nominal storage footprint of the filter (one bit per slot)."""
        return (self.num_bits + 7) // 8

    # -- hashing ----------------------------------------------------------------------

    def _positions(self, item: Any) -> list[int]:
        digest = hashlib.blake2b(repr(item).encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1  # force odd so strides cover the table
        return [((h1 + i * h2) % self.num_bits) for i in range(self.num_hashes)]


class LegalCombinationFilter:
    """Tracks which (group key, input value) combinations exist in the raw data."""

    def __init__(
        self,
        key_columns: Sequence[str],
        false_positive_rate: float = 0.01,
        round_decimals: int | None = 6,
    ) -> None:
        if not key_columns:
            raise ValueError("LegalCombinationFilter needs at least one key column")
        self.key_columns = tuple(key_columns)
        self.false_positive_rate = false_positive_rate
        self.round_decimals = round_decimals
        self._bloom: BloomFilter | None = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Table,
        key_columns: Sequence[str],
        false_positive_rate: float = 0.01,
        round_decimals: int | None = 6,
    ) -> "LegalCombinationFilter":
        """Build the filter from the distinct key combinations of ``table``."""
        instance = cls(key_columns, false_positive_rate, round_decimals)
        combos = instance._distinct_combinations(table)
        instance._bloom = BloomFilter(len(combos), false_positive_rate)
        instance._bloom.add_many(combos)
        return instance

    def _distinct_combinations(self, table: Table) -> set[tuple[Any, ...]]:
        columns = [table.column(name).to_pylist() for name in self.key_columns]
        combos: set[tuple[Any, ...]] = set()
        for row_index in range(table.num_rows):
            combo = tuple(column[row_index] for column in columns)
            if any(value is None for value in combo):
                continue
            combos.add(self._normalise(combo))
        return combos

    def _normalise(self, combo: tuple[Any, ...]) -> tuple[Any, ...]:
        if self.round_decimals is None:
            return combo
        return tuple(
            round(value, self.round_decimals) if isinstance(value, float) else value for value in combo
        )

    # -- querying --------------------------------------------------------------------------

    def is_legal(self, combo: tuple[Any, ...]) -> bool:
        if self._bloom is None:
            return True
        return self._normalise(combo) in self._bloom

    def filter_table(self, table: Table) -> Table:
        """Keep only the rows of a model-generated table whose key combination
        (probably) occurred in the original data."""
        if self._bloom is None or table.num_rows == 0:
            return table
        columns = [table.column(name).to_pylist() for name in self.key_columns]
        mask = np.zeros(table.num_rows, dtype=bool)
        for row_index in range(table.num_rows):
            combo = tuple(column[row_index] for column in columns)
            mask[row_index] = self.is_legal(combo)
        return table.filter(mask)

    # -- accounting -------------------------------------------------------------------------

    def byte_size(self) -> int:
        return self._bloom.byte_size() if self._bloom is not None else 0
