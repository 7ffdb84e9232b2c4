"""Logical AST for parsed SQL statements.

Scalar expressions reuse :mod:`repro.db.expressions`; the nodes here model
statement-level structure (SELECT shape, FROM clause, DDL and DML).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.db.expressions import Expression
from repro.db.types import DataType

__all__ = [
    "SelectItem",
    "Star",
    "TableRef",
    "JoinClause",
    "OrderItem",
    "SelectStatement",
    "CreateTableStatement",
    "InsertStatement",
    "Statement",
]


@dataclass(frozen=True)
class Star:
    """``SELECT *`` (optionally qualified, e.g. ``t.*`` — qualifier ignored)."""

    qualifier: str | None = None


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list: an expression (or ``*``) plus an alias."""

    expression: Expression | Star
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table reference in the FROM clause, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def effective_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """``JOIN <table> ON <left_col> = <right_col> [AND ...]`` (inner only)."""

    table: TableRef
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    ascending: bool = True


@dataclass
class SelectStatement:
    """A parsed SELECT query."""

    items: list[SelectItem]
    table: TableRef | None
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False

    def table_names(self) -> list[str]:
        """Every table the statement reads: the FROM table, then each JOIN's."""
        base = [self.table.name] if self.table is not None else []
        return base + [join.table.name for join in self.joins]


@dataclass
class CreateTableStatement:
    """``CREATE TABLE name (col type, ...)``."""

    name: str
    columns: list[tuple[str, DataType]]


@dataclass
class InsertStatement:
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    name: str
    columns: list[str] | None
    rows: list[list[Any]]


Statement = SelectStatement | CreateTableStatement | InsertStatement
