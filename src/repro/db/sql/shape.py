"""Statement shapes: a SELECT's tokens with its WHERE comparison literals taken out.

Serving workloads send many texts that differ only in the constants their
WHERE clause compares against (``… WHERE g = 3 AND x = 7``).  Where a literal
is a comparison operand, the parse depends on its *type* and not its value,
so such a literal becomes a typed *slot*:

* an operand of ``=``, ``<>``, ``<``, ``<=``, ``>`` or ``>=``;
* a ``BETWEEN`` bound;
* an ``IN``-list item;
* with a unary minus in front of a number, the two tokens together.

A statement's shape key is its token sequence with each slot replaced by its
type (INT, FLOAT, STRING, NULL, BOOL), so an IN list's length is part of it.
Every other literal stays in the key verbatim — SELECT-list arithmetic,
function arguments, HAVING, LIMIT/OFFSET — because it changes output names,
result sizes or what a plan may prove.  One :class:`Template` is parsed per
shape; :meth:`Template.bind` puts a text's slot values back through
:meth:`Expression.map_children` and gives exactly the statement ``parse``
returns for that text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any

from repro.db.expressions import Expression, Literal
from repro.db.sql.ast import SelectStatement
from repro.db.sql.lexer import Token, TokenType

__all__ = ["Shape", "Template", "select_shape", "verbatim_key"]

_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})
#: Keywords that end the WHERE clause at the outermost level.
_WHERE_ENDS = frozenset({"group", "having", "order", "limit"})
#: Keywords a comparison's left operand can follow.
_OPERAND_STARTS = frozenset({"where", "and", "or", "not"})
_KEYWORD, _IDENTIFIER, _NUMBER, _STRING, _OPERATOR, _PUNCTUATION = (
    TokenType.KEYWORD,
    TokenType.IDENTIFIER,
    TokenType.NUMBER,
    TokenType.STRING,
    TokenType.OPERATOR,
    TokenType.PUNCTUATION,
)


@dataclass(frozen=True)
class Shape:
    """A SELECT text reduced to its shape key and its slot values."""

    #: Token sequence, each slot replaced by ``?`` and its type, as one
    #: space-separated string (whose hash Python computes once); no two
    #: sequences share a key.
    key: str
    #: How many literals the WHERE clause holds, slots or not.
    literals: int
    #: Position of each slot among the WHERE clause's literals, in text order.
    ordinals: tuple[int, ...]
    #: The slot values, in text order.
    values: tuple[Any, ...]


def select_shape(tokens: list[Token]) -> Shape | None:
    """The shape of a tokenised statement; None when it is not a SELECT."""
    if not tokens[0].is_keyword("select"):
        return None
    key: list[str] = []
    ordinals: list[int] = []
    values: list[Any] = []
    in_where = False
    literals = depth = 0
    between_at: list[int] = []  # depths with a BETWEEN still waiting for its AND
    in_lists: list[int] = []  # depths that are IN lists
    between_and = -1  # index of the last BETWEEN's AND
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        kind, text = token.type, token.value
        if kind is _PUNCTUATION:
            if text == "(":
                depth += 1
                if i and tokens[i - 1].is_keyword("in"):
                    in_lists.append(depth)
            elif text == ")":
                if in_lists and in_lists[-1] == depth:
                    in_lists.pop()
                depth -= 1
        elif kind is _KEYWORD:
            if text == "where":
                in_where = True
            elif depth == 0 and text in _WHERE_ENDS:
                in_where = False
            elif text == "between":
                between_at.append(depth)
            elif text == "and" and between_at and between_at[-1] == depth:
                between_at.pop()
                between_and = i
        literal = None
        if in_where and (kind is _NUMBER or kind is _STRING or kind is _KEYWORD or text == "-"):
            literal = _literal(tokens, i)
        if literal is None:
            key.append(_encode(kind, text))
            i += 1
            continue
        width, slot_type, value = literal
        if _is_operand(tokens, i, width, in_lists, depth, between_and):
            key.append(f"?{slot_type}")
            ordinals.append(literals)
            values.append(value)
        else:
            key.extend(_encode(t.type, t.value) for t in tokens[i : i + width])
        literals += 1
        i += width
    return Shape(" ".join(key), literals, tuple(ordinals), tuple(values))


def verbatim_key(tokens: list[Token]) -> str:
    """The shape key of ``tokens`` with every literal kept as written."""
    return " ".join(_encode(token.type, token.value) for token in tokens)


def _encode(kind: TokenType, text: str) -> str:
    """A token in a shape key.  Identifier and string text may hold any
    character and is written length-prefixed after ``I`` / ``S``; every
    other token's text is a lowercase keyword, a number or symbols — never a
    space, an uppercase letter or ``?`` (a slot) — and stands as written."""
    if kind is _IDENTIFIER:
        return f"I{len(text)}:{text}"
    if kind is _STRING:
        return f"S{len(text)}:{text}"
    return text


def _literal(tokens: list[Token], i: int) -> tuple[int, str, Any] | None:
    """``(tokens spanned, type, value)`` of the literal starting at ``i``.

    A literal is one ``Literal`` node of the parsed tree: a number (with the
    sign in front of it, which the parser folds in), a string, TRUE/FALSE,
    or a NULL that is not the tail of ``IS [NOT] NULL``.
    """
    token = tokens[i]
    kind = token.type
    if kind is _NUMBER:
        return (1, *_number(token.value))
    if kind is _STRING:
        return 1, "STRING", token.value
    if kind is _KEYWORD:
        if token.value in ("true", "false"):
            return 1, "BOOL", token.value == "true"
        if token.value == "null" and not _follows_is(tokens, i):
            return 1, "NULL", None
        return None
    if (
        kind is _OPERATOR
        and token.value == "-"
        and tokens[i + 1].type is _NUMBER
        and i
        and _is_sign(tokens[i - 1])
    ):
        slot_type, value = _number(tokens[i + 1].value)
        return 2, slot_type, -value
    return None


def _number(text: str) -> tuple[str, int | float]:
    """A NUMBER token's type and value, read the way the parser reads it."""
    if "." in text or "e" in text.lower():
        return "FLOAT", float(text)
    return "INT", int(text)


def _follows_is(tokens: list[Token], i: int) -> bool:
    before = tokens[i - 1]
    return before.is_keyword("is") or (before.is_keyword("not") and tokens[i - 2].is_keyword("is"))


def _is_sign(before: Token) -> bool:
    """Whether a ``-`` after ``before`` is a sign: nothing it could subtract from ends there."""
    kind = before.type
    if kind is _IDENTIFIER or kind is _NUMBER or kind is _STRING:
        return False
    if kind is _KEYWORD:
        return before.value not in ("true", "false", "null")
    return not (kind is _PUNCTUATION and before.value == ")")


def _is_operand(
    tokens: list[Token], i: int, width: int, in_lists: list[int], depth: int, between_and: int
) -> bool:
    """Whether the literal at ``tokens[i : i + width]`` is a whole comparison operand."""
    after = tokens[i + width]
    if after.type is _OPERATOR and after.value in _ARITHMETIC:
        return False  # an arithmetic operand: ``x = 1 + y``
    before = tokens[i - 1]
    if before.type is _OPERATOR:
        return before.value in _COMPARISONS
    if before.type is _KEYWORD:
        if before.value == "between" or i - 1 == between_and:
            return True
        if before.value in _OPERAND_STARTS:
            return after.type is _OPERATOR and after.value in _COMPARISONS
        return False
    if before.type is _PUNCTUATION:
        if in_lists and in_lists[-1] == depth and before.value in ("(", ","):
            return after.type is _PUNCTUATION and after.value in (",", ")")
        if before.value == "(":
            return after.type is _OPERATOR and after.value in _COMPARISONS
    return False


class Template:
    """The statement parsed for a shape, and where its slots sit in the WHERE tree."""

    __slots__ = ("statement", "ordinals")

    def __init__(self, statement: SelectStatement, ordinals: tuple[int, ...]) -> None:
        self.statement = statement
        self.ordinals = ordinals

    @classmethod
    def of(cls, statement: SelectStatement, shape: Shape) -> "Template | None":
        """The template of ``shape`` from the statement one of its texts parsed to.

        None when the parsed WHERE tree does not hold the slot values where the
        token scan put them — the scan and the parser disagree about the text,
        and it is parsed as it is instead of bound.
        """
        found = _literals(statement.where) if statement.where is not None else []
        if len(found) != shape.literals:
            return None
        for ordinal, value in zip(shape.ordinals, shape.values):
            literal = found[ordinal].value
            if type(literal) is not type(value) or literal != value:
                return None
        return cls(statement, shape.ordinals)

    def bind(self, values: tuple[Any, ...]) -> SelectStatement:
        """The statement of the text whose slot values are ``values``."""
        if not self.ordinals:
            return self.statement
        substitutes = dict(zip(self.ordinals, values))
        position = itertools.count()

        def visit(node: Expression) -> Expression:
            if isinstance(node, Literal):
                ordinal = next(position)
                return Literal(substitutes[ordinal]) if ordinal in substitutes else node
            return node.map_children(visit)

        return replace(self.statement, where=visit(self.statement.where))


def _literals(expression: Expression) -> list[Literal]:
    """Every literal of an expression tree, in text order."""
    if isinstance(expression, Literal):
        return [expression]
    found: list[Literal] = []
    for child in expression.children():
        found += _literals(child)
    return found
