"""Tests for the SQL lexer and parser."""

import pytest

from repro.db.expressions import Between, BinaryOp, ColumnRef, FunctionCall, InList, IsNull, Literal, UnaryOp
from repro.db.sql.ast import CreateTableStatement, InsertStatement, SelectStatement, Star
from repro.db.sql.lexer import TokenType, tokenize
from repro.db.sql.parser import parse, parse_expression
from repro.db.types import DataType
from repro.errors import SQLSyntaxError, UnsupportedSQLError


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt * FrOm t")
        assert tokens[0].is_keyword("select")
        assert tokens[2].is_keyword("from")

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e-2 .75")
        values = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert values == ["1", "2.5", "3e-2", ".75"]

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'abc")

    def test_operators_longest_match(self):
        tokens = tokenize("a <= b <> c")
        ops = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert ops == ["<=", "!="]

    def test_comment_skipped(self):
        tokens = tokenize("select 1 -- comment here\n , 2")
        numbers = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert numbers == ["1", "2"]

    def test_quoted_identifier(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "weird name"

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select @foo")

    def test_eof_token_terminates(self):
        assert tokenize("select")[-1].type is TokenType.EOF

    def test_tokens_keep_their_positions(self):
        tokens = tokenize(" x<>'a''b' -- c\n\"q\" 1.5e3e")
        assert [(t.type.value, t.value, t.position) for t in tokens] == [
            ("identifier", "x", 1),
            ("operator", "!=", 2),
            ("string", "a'b", 4),
            ("identifier", "q", 16),
            ("number", "1.5e3", 20),
            ("identifier", "e", 25),
            ("eof", "", 26),
        ]

    @pytest.mark.parametrize(
        "text,position,message",
        [
            ("x = 'a''", 4, "unterminated string literal"),
            ("x -- it's\n = 'b", 13, "unterminated string literal"),
            ('x = "a', 4, "unterminated quoted identifier"),
            ("x =  @", 5, "unexpected character '@'"),
            ("x = 2²", 5, "unexpected character '²'"),
        ],
    )
    def test_a_syntax_error_names_where_no_token_starts(self, text, position, message):
        """A comment is never re-read as tokens, and a doubled quote never
        closes a string."""
        with pytest.raises(SQLSyntaxError, match=f"{message} \\(at position {position}\\)"):
            tokenize(text)


class TestExpressionParsing:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "and"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 2")
        assert isinstance(expr, Between)

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.values) == 3

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1)")
        assert isinstance(expr, UnaryOp) and isinstance(expr.operand, InList)

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, IsNull) and expr.negated

    def test_negative_literal_folded(self):
        expr = parse_expression("-3.5")
        assert isinstance(expr, Literal) and expr.value == -3.5

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert isinstance(expr, ColumnRef) and expr.name == "t.col"

    def test_function_call(self):
        expr = parse_expression("power(x, 2)")
        assert isinstance(expr, FunctionCall) and len(expr.args) == 2

    def test_boolean_and_null_literals(self):
        assert parse_expression("true").value is True
        assert parse_expression("false").value is False
        assert parse_expression("null").value is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("1 + 2 extra junk ,")


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, SelectStatement)
        assert len(stmt.items) == 2
        assert stmt.table.name == "t"

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expression, Star)

    def test_qualified_star(self):
        stmt = parse("SELECT t.* FROM measurements t")
        assert isinstance(stmt.items[0].expression, Star)
        assert stmt.items[0].expression.qualifier == "t"

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_where_group_having_order_limit(self):
        stmt = parse(
            "SELECT s, count(*) AS n FROM t WHERE a > 1 GROUP BY s HAVING count(*) > 2 "
            "ORDER BY n DESC LIMIT 10 OFFSET 5"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 10 and stmt.offset == 5

    def test_join_parsing(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.id = u.id AND t.k = u.k")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].left_keys == ("t.id", "t.k")

    def test_left_join_unsupported(self):
        with pytest.raises(UnsupportedSQLError):
            parse("SELECT a FROM t LEFT JOIN u ON t.id = u.id")

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_table_alias(self):
        stmt = parse("SELECT m.a FROM measurements m")
        assert stmt.table.alias == "m"
        assert stmt.table.effective_name == "m"

    def test_count_star(self):
        stmt = parse("SELECT count(*) FROM t")
        expr = stmt.items[0].expression
        assert isinstance(expr, FunctionCall) and expr.args == ()

    def test_missing_from_is_allowed_to_parse(self):
        stmt = parse("SELECT 1")
        assert stmt.table is None

    def test_negative_limit_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t LIMIT -1")

    def test_semicolon_tolerated(self):
        assert isinstance(parse("SELECT a FROM t;"), SelectStatement)


class TestDDLAndDML:
    def test_create_table(self):
        stmt = parse("CREATE TABLE m (source INT, frequency DOUBLE, intensity DOUBLE, label TEXT, ok BOOLEAN)")
        assert isinstance(stmt, CreateTableStatement)
        assert stmt.columns[0] == ("source", DataType.INT64)
        assert stmt.columns[1] == ("frequency", DataType.FLOAT64)
        assert stmt.columns[3] == ("label", DataType.STRING)
        assert stmt.columns[4] == ("ok", DataType.BOOL)

    def test_create_table_bad_type(self):
        with pytest.raises(UnsupportedSQLError):
            parse("CREATE TABLE t (a blob)")

    def test_insert_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 2.5, 'x'), (2, -3.0, NULL)")
        assert isinstance(stmt, InsertStatement)
        assert stmt.rows == [[1, 2.5, "x"], [2, -3.0, None]]

    def test_insert_with_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ["a", "b"]

    def test_insert_requires_literals(self):
        with pytest.raises(UnsupportedSQLError):
            parse("INSERT INTO t VALUES (a + 1)")

    def test_unsupported_statement(self):
        with pytest.raises(UnsupportedSQLError):
            parse("DELETE FROM t")
