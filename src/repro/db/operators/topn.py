"""Top-N operator (ORDER BY ... LIMIT n [OFFSET o] as one bounded step)."""

from __future__ import annotations

from repro.db.operators.base import Operator
from repro.db.operators.sort import render_sort_keys
from repro.db.table import Table

__all__ = ["TopN"]


class TopN(Operator):
    """Rows ``offset .. offset + count`` of the child's stable sort by ``keys``.

    Equal to ``Limit(Sort(child, keys), count, offset)`` row for row, but
    selects the best ``offset + count`` rows (:meth:`Table.top_n`) instead of
    sorting every row; the planner emits it whenever a statement has both
    clauses.
    """

    def __init__(
        self, child: Operator, keys: list[tuple[str, bool]], count: int, offset: int = 0
    ) -> None:
        self.child = child
        self.keys = keys
        self.count = count
        self.offset = offset

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"TopN({render_sort_keys(self.keys)}, count={self.count}, offset={self.offset})"

    def apply(self, table: Table) -> Table:
        best = table.top_n(self.keys, self.offset + self.count)
        return best.slice(min(self.offset, best.num_rows), best.num_rows)
