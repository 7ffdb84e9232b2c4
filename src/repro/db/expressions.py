"""Scalar expression trees and their vectorised evaluation.

Expressions are shared between the SQL front-end (the parser produces them)
and the programmatic query API (operators accept them directly).  Evaluation
is vectorised: an expression evaluates against a :class:`~repro.db.table.Table`
and yields a :class:`~repro.db.column.Column` of results, with SQL NULL
semantics (any NULL operand makes comparison/arithmetic results NULL, and
three-valued logic for AND/OR/NOT).

Literal operands of comparisons, arithmetic, ``BETWEEN``, ``IN`` and scalar
functions are never materialised: they stay NumPy scalars (:class:`_Constant`)
that the kernels broadcast, and a column without NULLs skips the validity
passes.  Only a literal that *is* the result (``SELECT 1 FROM t``) becomes a
full column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.table import Table
from repro.db.types import DataType, null_value
from repro.errors import ExecutionError

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "Between",
    "InList",
    "IsNull",
    "col",
    "lit",
]

_ARITHMETIC_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}

_COMPARISON_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_SCALAR_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "log10": np.log10,
    "power": np.power,
    "pow": np.power,
    "floor": np.floor,
    "ceil": np.ceil,
    "round": np.round,
    "sin": np.sin,
    "cos": np.cos,
}


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, table: Table) -> Column:
        """Evaluate this expression for every row of ``table``."""
        raise NotImplementedError

    def evaluate_scalar(self, row: dict[str, Any]) -> Any:
        """Evaluate this expression against a single row dict (slow path)."""
        single = Table.from_dict("_row", {k: [v] for k, v in row.items()})
        return self.evaluate(single)[0]

    def children(self) -> Sequence["Expression"]:
        """The direct child expressions.

        With :meth:`with_children` the one place a node type states its
        shape: :meth:`map_children`, :meth:`referenced_columns` and every
        walk elsewhere (name resolution, aggregate extraction) derive from
        the pair.
        """
        raise NotImplementedError

    def with_children(self, *children: "Expression") -> "Expression":
        """This node rebuilt over ``children``, given in :meth:`children` order."""
        if children:
            raise NotImplementedError
        return self

    def map_children(self, fn: Callable[["Expression"], "Expression"]) -> "Expression":
        """This node rebuilt with ``fn`` applied to each child (a leaf is returned as it is)."""
        return self.with_children(*map(fn, self.children()))

    def bound(self) -> "Expression":
        """This expression with every non-NULL literal's kernel operand built:
        what a caller evaluating it over many morsels of one execution
        evaluates, so constants are prepared once, not once per morsel."""
        return self.map_children(lambda child: child.bound())

    def referenced_columns(self) -> set[str]:
        """Names of all columns referenced anywhere in this expression."""
        names: set[str] = set()
        for child in self.children():
            names |= child.referenced_columns()
        return names

    def output_name(self) -> str:
        """Default output column name when used in a SELECT list."""
        return str(self)

    # Operator sugar so tests and examples can build expressions fluently.

    def __add__(self, other: Any) -> "BinaryOp":
        return BinaryOp("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "BinaryOp":
        return BinaryOp("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "BinaryOp":
        return BinaryOp("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "BinaryOp":
        return BinaryOp("/", self, _wrap(other))

    def __mod__(self, other: Any) -> "BinaryOp":
        return BinaryOp("%", self, _wrap(other))

    def __gt__(self, other: Any) -> "BinaryOp":
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "BinaryOp":
        return BinaryOp(">=", self, _wrap(other))

    def __lt__(self, other: Any) -> "BinaryOp":
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other: Any) -> "BinaryOp":
        return BinaryOp("<=", self, _wrap(other))

    def eq(self, other: Any) -> "BinaryOp":
        return BinaryOp("=", self, _wrap(other))

    def ne(self, other: Any) -> "BinaryOp":
        return BinaryOp("!=", self, _wrap(other))

    def and_(self, other: Any) -> "BinaryOp":
        return BinaryOp("and", self, _wrap(other))

    def or_(self, other: Any) -> "BinaryOp":
        return BinaryOp("or", self, _wrap(other))

    def is_null(self) -> "IsNull":
        return IsNull(self, negated=False)

    def between(self, low: Any, high: Any) -> "Between":
        return Between(self, _wrap(low), _wrap(high))

    def isin(self, values: list[Any]) -> "InList":
        return InList(self, [_wrap(v) for v in values])


def _wrap(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def col(name: str) -> "ColumnRef":
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> "Literal":
    """Shorthand constructor for a literal."""
    return Literal(value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a named column of the input table."""

    name: str

    def evaluate(self, table: Table) -> Column:
        return table.column(self.name)

    def children(self) -> Sequence[Expression]:
        return ()

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def output_name(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, table: Table) -> Column:
        n = table.num_rows
        if self.value is None:
            return Column(DataType.FLOAT64, np.full(n, np.nan), np.zeros(n, dtype=bool))
        dtype = DataType.infer(self.value)
        return Column(dtype, np.full(n, self.value, dtype=dtype.numpy_dtype))

    def children(self) -> Sequence[Expression]:
        return ()

    def bound(self) -> Expression:
        return self if self.value is None else _BoundLiteral(self.value, _Constant(self.value))

    def output_name(self) -> str:
        return repr(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class _BoundLiteral(Literal):
    """A non-NULL literal with its kernel operand built (:meth:`Expression.bound`)."""

    constant: "_Constant" = field(compare=False, repr=False)

    def bound(self) -> Expression:
        return self


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary arithmetic, comparison or boolean operation."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def with_children(self, left: Expression, right: Expression) -> Expression:
        return BinaryOp(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"

    def evaluate(self, table: Table) -> Column:
        op = self.op.lower()
        if op in ("and", "or"):
            return _evaluate_boolean(op, self.left.evaluate(table), self.right.evaluate(table))
        left, right = _operands((self.left, self.right), table)
        if op in _ARITHMETIC_OPS:
            return _evaluate_arithmetic(op, left, right)
        if op in _COMPARISON_OPS:
            return _evaluate_comparison(op, left, right)
        raise ExecutionError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation (``-x``) or boolean NOT."""

    op: str
    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def with_children(self, operand: Expression) -> Expression:
        return UnaryOp(self.op, operand)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"

    def evaluate(self, table: Table) -> Column:
        operand = self.operand.evaluate(table)
        op = self.op.lower()
        if op == "-":
            if not operand.dtype.is_numeric:
                raise ExecutionError(f"cannot negate {operand.dtype.value} column")
            return Column(operand.dtype, -operand.values, operand.validity.copy())
        if op == "not":
            if operand.dtype is not DataType.BOOL:
                raise ExecutionError("NOT requires a boolean operand")
            return Column(DataType.BOOL, ~operand.values, operand.validity.copy())
        raise ExecutionError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call such as ``sqrt(x)`` or ``power(nu, alpha)``."""

    name: str
    args: tuple[Expression, ...]

    def children(self) -> Sequence[Expression]:
        return self.args

    def with_children(self, *args: Expression) -> Expression:
        return FunctionCall(self.name, args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def evaluate(self, table: Table) -> Column:
        fn = _SCALAR_FUNCTIONS.get(self.name.lower())
        if fn is None:
            raise ExecutionError(f"unknown scalar function {self.name!r}")
        args = _operands(self.args, table)
        valid = None
        for arg in args:
            if not arg.dtype.is_numeric:
                raise ExecutionError(f"function {self.name!r} requires numeric arguments")
            valid = _both_valid(valid, _null_free(arg))
        with np.errstate(all="ignore"):
            values = fn(*[np.asarray(arg.stored, dtype=np.float64) for arg in args])
        return _finite_float_column(np.asarray(values, dtype=np.float64), valid)


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive on both ends)."""

    operand: Expression
    low: Expression
    high: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def with_children(self, operand: Expression, low: Expression, high: Expression) -> Expression:
        return Between(operand, low, high)

    def __str__(self) -> str:
        return f"({self.operand} BETWEEN {self.low} AND {self.high})"

    def evaluate(self, table: Table) -> Column:
        operand, low, high = _operands((self.operand, self.low, self.high), table)
        if isinstance(operand, Column) and isinstance(low, _Constant) and isinstance(high, _Constant):
            # Constant bounds are never NULL, so the conjunction is NULL
            # exactly where the operand is: one fused pass.
            values = _compare(">=", operand, low)
            values &= _compare("<=", operand, high)
            return _masked_bool_column(values, _null_free(operand))
        return _evaluate_boolean(
            "and",
            _evaluate_comparison(">=", operand, low),
            _evaluate_comparison("<=", operand, high),
        )


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expression
    values: tuple[Expression, ...]

    def __init__(self, operand: Expression, values: list[Expression]) -> None:
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "values", tuple(values))

    def children(self) -> Sequence[Expression]:
        return (self.operand, *self.values)

    def with_children(self, operand: Expression, *values: Expression) -> Expression:
        return InList(operand, values)

    def __str__(self) -> str:
        return f"({self.operand} IN ({', '.join(str(v) for v in self.values)}))"

    def evaluate(self, table: Table) -> Column:
        if not self.values:
            return Column(DataType.BOOL, np.zeros(table.num_rows, dtype=bool))
        operand, *values = _operands((self.operand, *self.values), table)
        family = _type_family(operand.dtype)
        if isinstance(operand, Column) and all(
            isinstance(value, _Constant) and _type_family(value.dtype) is family
            for value in values
        ):
            # Same-family constants compare without coercion, so membership
            # is one ``np.isin``; NULL exactly where the operand is.
            candidates = np.array(
                [value.stored[()] for value in values],
                dtype=object if operand.dtype is DataType.STRING else None,
            )
            return _masked_bool_column(_isin(operand.stored, candidates), _null_free(operand))
        result: Column | None = None
        for value in values:
            term = _evaluate_comparison("=", operand, value)
            result = term if result is None else _evaluate_boolean("or", result, term)
        assert result is not None
        return result


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` or ``expr IS NOT NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def with_children(self, operand: Expression) -> Expression:
        return IsNull(operand, self.negated)

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"

    def evaluate(self, table: Table) -> Column:
        operand = self.operand.evaluate(table)
        nulls = ~operand.validity
        values = ~nulls if self.negated else nulls
        return Column(DataType.BOOL, values, np.ones(len(values), dtype=bool))


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


class _Constant:
    """A non-NULL literal operand, kept as a 0-d array the kernels broadcast.

    Duck-types the two attributes of :class:`Column` the kernels read
    (``dtype`` and ``stored``) and is always valid.
    """

    __slots__ = ("dtype", "stored", "_widths")

    def __init__(self, value: Any) -> None:
        self.dtype = DataType.infer(value)
        self.stored = np.array(value, dtype=self.dtype.numpy_dtype)
        self._widths: dict[np.dtype, np.ndarray] = {}

    def at_width(self, width: np.dtype) -> np.ndarray:
        """The constant for comparing with values stored as ``width``: an
        integer cast to a narrower integer width where it fits, so the
        comparison runs at the stored width instead of casting every row to
        int64.  Anything else — a constant that does not fit included — is
        the constant as it is and compares, exactly, in the promoted dtype.
        Kept per width: a bound literal prepares it once per execution."""
        fitted = self._widths.get(width)
        if fitted is None:
            fitted = self.stored
            if self.stored.dtype.kind == width.kind == "i" and self.stored.dtype.itemsize > width.itemsize:
                info = np.iinfo(width)
                if info.min <= self.stored <= info.max:
                    fitted = self.stored.astype(width)
            self._widths[width] = fitted
        return fitted


def _operands(expressions: tuple[Expression, ...], table: Table) -> list[Column | _Constant]:
    """Evaluate operand expressions, leaving non-NULL literals as constants.

    At least one operand comes back as a full column, so whatever the kernels
    compute from them has one value per row of ``table``.
    """
    operands: list[Column | _Constant] = [
        (expression.constant if isinstance(expression, _BoundLiteral) else _Constant(expression.value))
        if isinstance(expression, Literal) and expression.value is not None
        else expression.evaluate(table)
        for expression in expressions
    ]
    if operands and not any(isinstance(operand, Column) for operand in operands):
        operands[0] = expressions[0].evaluate(table)
    return operands


def _null_free(operand: Column | _Constant) -> np.ndarray | None:
    """The operand's validity mask, or None when it has no NULL at all."""
    if isinstance(operand, _Constant) or operand.null_free():
        return None
    return operand.validity


def _both_valid(left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _masked_bool_column(values: np.ndarray, valid: np.ndarray | None) -> Column:
    """A BOOL column from freshly computed ``values``; False wherever NULL."""
    if valid is not None:
        values &= valid
    return Column._stored_as(DataType.BOOL, values, valid)


def _finite_float_column(values: np.ndarray, valid: np.ndarray | None) -> Column:
    """A FLOAT64 column in which non-finite results have become NULL."""
    finite = np.isfinite(values)
    if not finite.all():
        valid = finite if valid is None else valid & finite
    if valid is None:
        return Column(DataType.FLOAT64, values)
    return Column(DataType.FLOAT64, np.where(valid, values, np.nan), valid)


def _type_family(dtype: DataType) -> Any:
    """INT64 and FLOAT64 compare with each other as numbers; nothing else mixes."""
    return "numeric" if dtype.is_numeric else dtype


def _evaluate_arithmetic(op: str, left: Column | _Constant, right: Column | _Constant) -> Column:
    for operand in (left, right):
        if not operand.dtype.is_numeric:
            raise ExecutionError(f"expected a numeric operand, got {operand.dtype.value}")
    with np.errstate(all="ignore"):
        values = _ARITHMETIC_OPS[op](left.stored, right.stored, dtype=np.float64)
    result = _finite_float_column(values, _both_valid(_null_free(left), _null_free(right)))
    if (
        left.dtype is DataType.INT64
        and right.dtype is DataType.INT64
        and op in ("+", "-", "*", "%")
    ):
        valid = _null_free(result)
        if valid is None:
            return Column(DataType.INT64, result.values.astype(np.int64))
        ints = np.where(valid, result.values, 0).astype(np.int64)
        ints[~valid] = null_value(DataType.INT64)
        return Column(DataType.INT64, ints, valid)
    return result


def _compare(op: str, left: Column | _Constant, right: Column | _Constant) -> np.ndarray:
    """Elementwise comparison under the cross-type rules, NULLs not yet masked.

    Numbers compare in NumPy's promoted dtype — INT64 against INT64 natively,
    anything against FLOAT64 in float64 — without intermediate copies.  BOOL
    compares as the numbers 0 and 1 and the other side is never truncated to
    fit, so a literal the column's type cannot hold (``b = 1.5``, ``b = 2``)
    matches nothing — the same verdict ``ColumnConstraint`` reaches by Python
    equality, which is what lets scans prune on it.
    """
    compare = _COMPARISON_OPS[op]
    if left.dtype is DataType.STRING or right.dtype is DataType.STRING:
        if left.dtype is not right.dtype:
            raise ExecutionError("cannot compare string column with non-string operand")
        valid = _both_valid(_null_free(left), _null_free(right))
        if valid is None or op in ("=", "!="):
            values = compare(left.stored, right.stored)
        else:
            # A NULL's None does not order against a str: compare the valid
            # rows only and leave the NULL rows unmatched.
            sides = [v if v.ndim == 0 else v[valid] for v in (left.stored, right.stored)]
            values = np.zeros(len(valid), dtype=bool)
            values[valid] = compare(*sides)
    elif left.dtype is DataType.BOOL or right.dtype is DataType.BOOL:
        values = compare(*[
            side.stored.astype(np.int64) if side.dtype is DataType.BOOL else side.stored
            for side in (left, right)
        ])
    else:
        values = compare(_side(left, right), _side(right, left))
    return np.asarray(values, dtype=bool)


def _isin(stored: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``np.isin`` of a column's stored values, computed in a dtype that
    holds ``stored - min(candidates)`` for every candidate a value can equal:
    integer candidates a narrow width cannot hold are dropped (no value
    equals them), the rest cast to that width — or, where their span does
    not fit it, the values are widened — so no NumPy version's lookup table
    can wrap around."""
    if stored.dtype.kind == candidates.dtype.kind == "i" and stored.itemsize < candidates.itemsize:
        info = np.iinfo(stored.dtype)
        candidates = candidates[(candidates >= info.min) & (candidates <= info.max)]
        if len(candidates) and int(candidates.max()) - int(candidates.min()) > info.max:
            stored = stored.astype(candidates.dtype)
        else:
            candidates = candidates.astype(stored.dtype)
    return np.isin(stored, candidates)


def _side(operand: Column | _Constant, other: Column | _Constant) -> np.ndarray:
    """An operand's values for a numeric comparison with ``other``: a
    constant against a column at the column's width (:meth:`_Constant.at_width`)."""
    if isinstance(operand, _Constant) and isinstance(other, Column):
        return operand.at_width(other.stored.dtype)
    return operand.stored


def _evaluate_comparison(op: str, left: Column | _Constant, right: Column | _Constant) -> Column:
    return _masked_bool_column(
        _compare(op, left, right), _both_valid(_null_free(left), _null_free(right))
    )


def _evaluate_boolean(op: str, left: Column, right: Column) -> Column:
    if left.dtype is not DataType.BOOL or right.dtype is not DataType.BOOL:
        raise ExecutionError(f"{op.upper()} requires boolean operands")
    if _null_free(left) is None and _null_free(right) is None:
        combine = np.logical_and if op == "and" else np.logical_or
        return Column._stored_as(DataType.BOOL, combine(left.stored, right.stored), None)
    left_values = left.values & left.validity
    right_values = right.values & right.validity
    if op == "and":
        values = left_values & right_values
        # NULL AND FALSE -> FALSE; NULL AND TRUE -> NULL
        valid = (left.validity & right.validity) | (~left_values & left.validity) | (~right_values & right.validity)
    else:
        values = left_values | right_values
        # NULL OR TRUE -> TRUE; NULL OR FALSE -> NULL
        valid = (left.validity & right.validity) | left_values | right_values
    return Column(DataType.BOOL, values, valid)


def predicate_mask(predicate: Expression, table: Table, within: str | None = None) -> np.ndarray:
    """The rows of ``table`` a WHERE on ``predicate`` keeps:
    ``truthy_mask(predicate.evaluate(table))``, with AND, OR and comparisons
    computed as plain masks, no result column built.  Under three-valued
    logic a conjunction is TRUE exactly where both sides are, a disjunction
    where either is, and a comparison where it holds and neither side is
    NULL.  ``within`` names the AND / OR a node is an operand of."""
    if isinstance(predicate, BinaryOp):
        op = predicate.op.lower()
        if op in ("and", "or"):
            combine = np.logical_and if op == "and" else np.logical_or
            return combine(predicate_mask(predicate.left, table, op), predicate_mask(predicate.right, table, op))
        if op in _COMPARISON_OPS:
            left, right = _operands((predicate.left, predicate.right), table)
            values = _compare(op, left, right)
            valid = _both_valid(_null_free(left), _null_free(right))
            if valid is not None:
                values &= valid
            return values
    column = predicate.evaluate(table)
    if within is not None and column.dtype is not DataType.BOOL:
        raise ExecutionError(f"{within.upper()} requires boolean operands")
    return truthy_mask(column)


def truthy_mask(column: Column) -> np.ndarray:
    """Convert a boolean result column to a row-selection mask (NULL = False)."""
    if column.dtype is not DataType.BOOL:
        raise ExecutionError("predicate did not evaluate to a boolean column")
    if column.null_free():
        return column.stored
    return np.asarray(column.values & column.validity, dtype=bool)
