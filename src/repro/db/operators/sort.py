"""Sort operator (ORDER BY)."""

from __future__ import annotations

from repro.db.operators.base import Operator
from repro.db.table import Table

__all__ = ["Sort", "render_sort_keys"]


def render_sort_keys(keys: list[tuple[str, bool]]) -> str:
    """``x DESC, ts ASC`` — how plans print ``(column, ascending)`` keys."""
    return ", ".join(f"{name} {'ASC' if asc else 'DESC'}" for name, asc in keys)


class Sort(Operator):
    """Stable multi-key sort; keys are ``(column_name, ascending)`` pairs.

    Planned for ``ORDER BY`` without ``LIMIT``; with one, the planner emits
    :class:`~repro.db.operators.topn.TopN` instead.
    """

    def __init__(self, child: Operator, keys: list[tuple[str, bool]]) -> None:
        self.child = child
        self.keys = keys

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Sort({render_sort_keys(self.keys)})"

    def apply(self, table: Table) -> Table:
        return table.sort_by(self.keys)
