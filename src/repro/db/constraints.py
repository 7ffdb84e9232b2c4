"""WHERE-clause analysis: per-column constraints from top-level conjuncts.

This module decomposes a predicate's top-level conjuncts into per-column
:class:`ColumnConstraint`\\ s — discrete value sets from ``=`` / ``IN`` and
intervals from ``<`` / ``<=`` / ``>`` / ``>=`` / ``BETWEEN`` — and keeps
anything it cannot analyse (disjunctions, ``IS NULL``, predicates over
expressions) as *residual* conjuncts.  Two consumers rely on it:

* the model-backed answer routes (``core/approx/routes``) can only serve a
  query from captured models if they understand exactly which part of the
  input domain the WHERE clause selects; a residual makes them decline;
* scans use the constraints as *necessary* conditions to skip the blocks
  whose min/max summary proves them empty
  (:meth:`ColumnConstraint.admits_ranges`); residuals are simply ignored
  there, because the full predicate is still evaluated on what is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.db.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
)

__all__ = ["ColumnConstraint", "WhereConstraints", "bare_name", "conjuncts", "extract_constraints"]


def bare_name(name: str) -> str:
    """Strip any table qualifier (``t.g`` -> ``g``)."""
    return name.split(".")[-1]


@dataclass
class ColumnConstraint:
    """Everything the WHERE clause's conjuncts say about one column."""

    column: str
    #: Discrete allowed values from ``=`` / ``IN`` (None means unrestricted).
    values: list[Any] | None = None
    low: float | None = None
    low_inclusive: bool = True
    high: float | None = None
    high_inclusive: bool = True

    @property
    def has_interval(self) -> bool:
        return self.low is not None or self.high is not None

    @property
    def is_pinned(self) -> bool:
        """True when the column is restricted to an explicit value list."""
        return self.values is not None

    def pin(self, values: Sequence[Any]) -> None:
        """Intersect the allowed value set with ``values``."""
        incoming = list(dict.fromkeys(values))
        if self.values is None:
            self.values = incoming
        else:
            self.values = [v for v in self.values if v in incoming]

    def bound_below(self, value: float, inclusive: bool) -> None:
        if self.low is None or value > self.low or (value == self.low and not inclusive):
            self.low = value
            self.low_inclusive = inclusive

    def bound_above(self, value: float, inclusive: bool) -> None:
        if self.high is None or value < self.high or (value == self.high and not inclusive):
            self.high = value
            self.high_inclusive = inclusive

    def admits(self, value: Any) -> bool:
        """Does ``value`` satisfy every constraint recorded for this column?"""
        if self.values is not None and value not in self.values:
            return False
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            return not self.has_interval and (self.values is None or value in self.values)
        if self.low is not None:
            if numeric < self.low or (numeric == self.low and not self.low_inclusive):
                return False
        if self.high is not None:
            if numeric > self.high or (numeric == self.high and not self.high_inclusive):
                return False
        return True

    def restrict_domain(self, domain: Sequence[Any]) -> list[Any]:
        """The subset of a known column domain this constraint admits,
        preserving the domain's order."""
        return [v for v in domain if self.admits(v)]

    def clip_interval(self, low: float, high: float) -> tuple[float, float] | None:
        """Intersect ``[low, high]`` with the interval bounds (None if empty)."""
        lo = low if self.low is None else max(low, self.low)
        hi = high if self.high is None else min(high, self.high)
        if lo > hi:
            return None
        return lo, hi

    def admits_ranges(
        self, mins: np.ndarray, maxs: np.ndarray, all_null: np.ndarray
    ) -> np.ndarray:
        """Which row groups could hold a row satisfying this constraint.

        A row group (a scan block) is summarised by the min and
        max of its non-NULL values; ``all_null`` marks groups with none, where
        ``mins`` / ``maxs`` hold arbitrary fill.  Returns a boolean array, False
        only where the summary *proves* no row of the group can satisfy the
        constraint: every form it records (comparison, BETWEEN, IN) rejects
        NULL, so all-NULL groups go; so do groups whose ``[min, max]`` misses
        every pinned value or lies outside the interval.

        The proof must agree with what the comparison kernels would compute
        row by row.  They never truncate a literal to fit the column — a
        value the column's type cannot hold matches nothing, which is also
        what intersecting pins by Python equality concludes (``b = true AND
        b = 1.5`` pins the empty set) — so an empty pin set prunes.  What
        stays inconclusive and keeps every group: literals of another type
        family than the column (the kernels promote or raise there), bounds
        beyond 2**53 on integer columns (the bound was recorded as a float)
        and pinned values no int64 can hold.
        """
        kind = mins.dtype.kind
        values = self.values or ()
        if kind in "OU":
            comparable = not self.has_interval and all(isinstance(v, str) for v in values)
        elif kind == "b":
            comparable = not self.has_interval and all(
                isinstance(v, (bool, np.bool_, int, np.integer)) and abs(v) < 2**63
                for v in values
            )
        else:
            comparable = all(_is_number(v) and abs(v) < 2.0**63 for v in values) and not (
                kind in "iu"
                and any(b is not None and abs(b) >= 2.0**53 for b in (self.low, self.high))
            )
        if not comparable:
            return np.ones(len(mins), dtype=bool)
        admits = ~all_null
        if self.values is not None:
            hit = np.zeros(len(mins), dtype=bool)
            for value in values:
                hit |= (mins <= value) & (value <= maxs)
            admits &= hit
        if self.low is not None:
            admits &= maxs >= self.low if self.low_inclusive else maxs > self.low
        if self.high is not None:
            admits &= mins <= self.high if self.high_inclusive else mins < self.high
        return admits

    def describe(self) -> str:
        parts = []
        if self.values is not None:
            parts.append(f"in {self.values!r}")
        if self.low is not None:
            parts.append(f"{'>=' if self.low_inclusive else '>'} {self.low!r}")
        if self.high is not None:
            parts.append(f"{'<=' if self.high_inclusive else '<'} {self.high!r}")
        return f"{self.column} " + " and ".join(parts) if parts else self.column


@dataclass
class WhereConstraints:
    """Per-column constraints plus the conjuncts that resisted analysis."""

    by_column: dict[str, ColumnConstraint] = field(default_factory=dict)
    residual: list[Expression] = field(default_factory=list)

    @property
    def fully_analysed(self) -> bool:
        return not self.residual

    @property
    def has_interval(self) -> bool:
        return any(c.has_interval for c in self.by_column.values())

    def constraint(self, column: str) -> ColumnConstraint | None:
        return self.by_column.get(column)

    def constrains(self, column: str) -> bool:
        return column in self.by_column

    def admits(self, column: str, value: Any) -> bool:
        constraint = self.by_column.get(column)
        return constraint is None or constraint.admits(value)

    def _get(self, column: str) -> ColumnConstraint:
        if column not in self.by_column:
            self.by_column[column] = ColumnConstraint(column)
        return self.by_column[column]


def extract_constraints(where: Expression | None) -> WhereConstraints:
    """Decompose a WHERE expression into per-column constraints.

    Only top-level conjuncts of the forms ``col <op> literal``,
    ``literal <op> col``, ``col BETWEEN lit AND lit`` and ``col IN (lits)``
    are analysed; everything else lands in ``residual``.
    """
    constraints = WhereConstraints()
    for conjunct in conjuncts(where):
        if not _apply_conjunct(constraints, conjunct):
            constraints.residual.append(conjunct)
    return constraints


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _apply_conjunct(constraints: WhereConstraints, conjunct: Expression) -> bool:
    if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">="):
        op = conjunct.op
        column, literal = _column_literal(conjunct.left, conjunct.right)
        if column is None:
            column, literal = _column_literal(conjunct.right, conjunct.left)
            if column is None:
                return False
            op = _FLIP.get(op, op)
        if op == "=":
            constraints._get(column).pin([literal])
            return True
        numeric = _bound(literal)
        if numeric is None:
            return False
        constraint = constraints._get(column)
        if op in ("<", "<="):
            constraint.bound_above(numeric, inclusive=op == "<=")
        else:
            constraint.bound_below(numeric, inclusive=op == ">=")
        return True

    if isinstance(conjunct, Between) and isinstance(conjunct.operand, ColumnRef):
        if not (isinstance(conjunct.low, Literal) and isinstance(conjunct.high, Literal)):
            return False
        low = _bound(conjunct.low.value)
        high = _bound(conjunct.high.value)
        if low is None or high is None:
            return False
        constraint = constraints._get(bare_name(conjunct.operand.name))
        constraint.bound_below(low, inclusive=True)
        constraint.bound_above(high, inclusive=True)
        return True

    if isinstance(conjunct, InList) and isinstance(conjunct.operand, ColumnRef):
        values = [v.value for v in conjunct.values if isinstance(v, Literal)]
        if len(values) != len(conjunct.values):
            return False
        constraints._get(bare_name(conjunct.operand.name)).pin(values)
        return True

    return False


def _bound(literal: Any) -> float | None:
    """An interval bound from a numeric literal; None for anything else.

    Strings and booleans are not bounds even when ``float()`` accepts them:
    the comparison kernels reject or truncate them, so treating ``x > '5'``
    as ``x > 5.0`` would describe a predicate the engine never evaluates.
    """
    return float(literal) if _is_number(literal) else None


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


def _column_literal(left: Expression, right: Expression) -> tuple[str | None, Any]:
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return bare_name(left.name), right.value
    return None, None


def conjuncts(expression: Expression | None) -> list[Expression]:
    """The top-level AND-ed parts of a predicate, left to right."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op.lower() == "and":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]
