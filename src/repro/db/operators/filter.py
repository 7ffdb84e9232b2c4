"""Filter operator: keep rows matching a boolean expression."""

from __future__ import annotations

from repro.db.expressions import Expression, truthy_mask
from repro.db.operators.base import Operator
from repro.db.table import Table

__all__ = ["Filter"]


class Filter(Operator):
    """Evaluate a predicate expression and keep only the matching rows."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> list[Operator]:
        return [self.child]

    def apply(self, table: Table) -> Table:
        if table.num_rows == 0:
            return table
        mask = truthy_mask(self.predicate.evaluate(table))
        if mask.all():
            # Nothing filtered out: pass the input through without copying
            # every column (tables are logically immutable, so sharing is safe).
            return table
        return table.filter(mask)

    def describe(self) -> str:
        return f"Filter({self.predicate})"
