"""Limit / offset operator."""

from __future__ import annotations

from repro.db.operators.base import Operator
from repro.db.table import Table

__all__ = ["Limit"]


class Limit(Operator):
    """Return at most ``count`` rows, skipping the first ``offset`` rows.

    Planned for ``LIMIT`` without ``ORDER BY``; with one, the planner emits
    :class:`~repro.db.operators.topn.TopN` instead.
    """

    def __init__(self, child: Operator, count: int, offset: int = 0) -> None:
        self.child = child
        self.count = count
        self.offset = offset

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit(count={self.count}, offset={self.offset})"

    def apply(self, table: Table) -> Table:
        start = min(self.offset, table.num_rows)
        stop = min(start + self.count, table.num_rows)
        return table.slice(start, stop)
