"""Filter operator: keep rows matching a boolean expression."""

from __future__ import annotations

from repro.db.expressions import Expression, truthy_mask
from repro.db.operators.base import Operator
from repro.db.operators.morsel import Piece, gather, keep, morsels
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
        """The rows the predicate keeps, evaluated and gathered a morsel at a
        time (:mod:`repro.db.operators.morsel`)."""
        num_rows = table.num_rows
        if num_rows == 0:
            return table
        pieces: list[Piece] = []
        for start, stop in morsels([(0, num_rows)]):
            keep(pieces, start, stop, truthy_mask(self.predicate.evaluate(table.slice(start, stop))))
        if len(pieces) == 1 and pieces[0].count == num_rows:
            # Nothing filtered out: pass the input through without copying
            # every column (tables are logically immutable, so sharing is safe).
            return table
        return Table(table.name, table.schema, {name: gather(column, pieces) for name, column in table.columns().items()})

    def describe(self) -> str:
        return f"Filter({self.predicate})"
