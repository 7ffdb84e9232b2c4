"""Tests for expression evaluation (including SQL NULL semantics)."""

import pytest

from repro.db.expressions import (
    Between,
    BinaryOp,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    col,
    lit,
    truthy_mask,
)
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError


@pytest.fixture()
def table():
    return Table.from_dict(
        "t",
        {
            "a": [1, 2, 3, None],
            "b": [10.0, 20.0, 30.0, 40.0],
            "s": ["x", "y", "x", "z"],
            "flag": [True, False, True, True],
        },
    )


class TestArithmetic:
    def test_addition(self, table):
        result = (col("a") + col("b")).evaluate(table)
        assert result.to_pylist() == [11.0, 22.0, 33.0, None]

    def test_int_plus_int_stays_int(self, table):
        result = (col("a") + lit(1)).evaluate(table)
        assert result.dtype is DataType.INT64
        assert result.to_pylist() == [2, 3, 4, None]

    def test_division_produces_float(self, table):
        result = (col("b") / lit(4)).evaluate(table)
        assert result.dtype is DataType.FLOAT64
        assert result.to_pylist()[0] == 2.5

    def test_division_by_zero_is_null(self, table):
        result = (col("b") / lit(0)).evaluate(table)
        assert result.to_pylist() == [None, None, None, None]

    def test_modulo(self, table):
        result = (col("a") % lit(2)).evaluate(table)
        assert result.to_pylist() == [1, 0, 1, None]

    def test_unary_negation(self, table):
        result = UnaryOp("-", col("b")).evaluate(table)
        assert result.to_pylist()[0] == -10.0

    def test_arithmetic_on_strings_fails(self, table):
        with pytest.raises(ExecutionError):
            (col("s") + lit(1)).evaluate(table)


class TestComparisons:
    def test_greater_than(self, table):
        result = (col("b") > lit(15)).evaluate(table)
        assert result.to_pylist() == [False, True, True, True]

    def test_null_comparison_is_null(self, table):
        result = (col("a") > lit(1)).evaluate(table)
        # row with NULL a evaluates to NULL (validity False)
        assert result.validity.tolist() == [True, True, True, False]

    def test_string_equality(self, table):
        result = col("s").eq(lit("x")).evaluate(table)
        assert result.to_pylist() == [True, False, True, False]

    def test_string_vs_number_comparison_fails(self, table):
        with pytest.raises(ExecutionError):
            col("s").eq(lit(1)).evaluate(table)

    def test_ordering_a_string_column_with_nulls_leaves_them_unmatched(self):
        """Regression: ``None < 'b'`` raised TypeError inside the kernel."""
        table = Table.from_dict("t", {"s": ["a", None, "c", "b"], "u": ["b", "b", None, "a"]})
        for expression, expected in [
            (col("s") < lit("b"), [True, None, False, False]),
            (lit("b") >= col("s"), [True, None, False, True]),
            (col("s") > col("u"), [False, None, None, True]),
            (col("s").between("a", "b"), [True, None, False, True]),
            (Between(col("s"), col("u"), lit("z")), [False, None, None, True]),
            (col("s").ne(lit("a")), [False, None, True, True]),
        ]:
            result = expression.evaluate(table)
            assert result.to_pylist() == expected, str(expression)
            assert truthy_mask(result).tolist() == [value is True for value in expected]
        assert truthy_mask(UnaryOp("not", col("s") < lit("b")).evaluate(table)).tolist() == [
            False, False, True, True,
        ]  # fmt: skip

    def test_truthy_mask_treats_null_as_false(self, table):
        mask = truthy_mask((col("a") > lit(1)).evaluate(table))
        assert mask.tolist() == [False, True, True, False]

    def test_truthy_mask_requires_bool(self, table):
        with pytest.raises(ExecutionError):
            truthy_mask(col("b").evaluate(table))


class TestBooleanLogic:
    def test_and(self, table):
        expr = (col("b") > lit(15)).and_(col("s").eq(lit("x")))
        assert expr.evaluate(table).to_pylist() == [False, False, True, False]

    def test_or(self, table):
        expr = (col("b") > lit(35)).or_(col("s").eq(lit("y")))
        assert expr.evaluate(table).to_pylist() == [False, True, False, True]

    def test_not(self, table):
        expr = UnaryOp("not", col("flag"))
        assert expr.evaluate(table).to_pylist() == [False, True, False, False]

    def test_null_and_false_is_false(self, table):
        # a > 1 is NULL on the last row; AND with FALSE must yield FALSE (valid).
        expr = BinaryOp("and", col("a") > lit(1), col("b") < lit(0))
        result = expr.evaluate(table)
        assert bool(result.validity[3])
        assert result.to_pylist()[3] is False

    def test_null_or_true_is_true(self, table):
        expr = BinaryOp("or", col("a") > lit(1), col("b") > lit(0))
        result = expr.evaluate(table)
        assert result.to_pylist()[3] is True

    def test_and_requires_booleans(self, table):
        with pytest.raises(ExecutionError):
            BinaryOp("and", col("a"), col("b")).evaluate(table)


class TestOtherOperators:
    def test_between_inclusive(self, table):
        expr = Between(col("b"), lit(20.0), lit(30.0))
        assert expr.evaluate(table).to_pylist() == [False, True, True, False]

    def test_in_list(self, table):
        expr = InList(col("s"), [lit("x"), lit("z")])
        assert expr.evaluate(table).to_pylist() == [True, False, True, True]

    def test_empty_in_list(self, table):
        expr = InList(col("s"), [])
        assert expr.evaluate(table).to_pylist() == [False, False, False, False]

    def test_is_null(self, table):
        assert IsNull(col("a")).evaluate(table).to_pylist() == [False, False, False, True]

    def test_is_not_null(self, table):
        assert IsNull(col("a"), negated=True).evaluate(table).to_pylist() == [True, True, True, False]

    def test_function_call_sqrt(self, table):
        result = FunctionCall("sqrt", (col("b"),)).evaluate(table)
        assert result.to_pylist()[0] == pytest.approx(10.0**0.5)

    def test_function_call_power_two_args(self, table):
        result = FunctionCall("power", (col("b"), lit(2))).evaluate(table)
        assert result.to_pylist()[1] == pytest.approx(400.0)

    def test_log_of_negative_is_null(self):
        table = Table.from_dict("t", {"x": [-1.0, 1.0]})
        result = FunctionCall("ln", (col("x"),)).evaluate(table)
        assert result.to_pylist() == [None, 0.0]

    def test_unknown_function_raises(self, table):
        with pytest.raises(ExecutionError):
            FunctionCall("nope", (col("b"),)).evaluate(table)

    def test_literal_none(self, table):
        result = Literal(None).evaluate(table)
        assert result.null_count == table.num_rows

    def test_referenced_columns(self):
        expr = Between(col("a"), col("lo"), lit(2)).and_(col("b").eq(lit(1)))
        assert expr.referenced_columns() == {"a", "lo", "b"}

    def test_evaluate_scalar(self):
        expr = (col("x") * lit(2)) + lit(1)
        assert expr.evaluate_scalar({"x": 5}) == 11
