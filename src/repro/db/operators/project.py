"""Projection operator: compute output columns from expressions."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.expressions import Expression
from repro.db.operators.base import Operator
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table

__all__ = ["Projection", "Project"]


@dataclass(frozen=True)
class Projection:
    """One output column: an expression and its output name."""

    expression: Expression
    alias: str | None = None

    @property
    def name(self) -> str:
        return self.alias if self.alias is not None else self.expression.output_name()


class Project(Operator):
    """Evaluate a list of projections against the child's output."""

    def __init__(self, child: Operator, projections: list[Projection]) -> None:
        self.child = child
        self.projections = projections

    def children(self) -> list[Operator]:
        return [self.child]

    def apply(self, table: Table) -> Table:
        columns = {}
        defs = []
        for projection in self.projections:
            column = projection.expression.evaluate(table)
            name = projection.name
            columns[name] = column
            defs.append(ColumnDef(name, column.dtype))
        return Table(table.name, Schema(defs), columns)

    def describe(self) -> str:
        return "Project(" + ", ".join(p.name for p in self.projections) + ")"
