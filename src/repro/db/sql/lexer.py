"""SQL tokenizer.

Produces a flat list of :class:`Token` objects.  Keywords are recognised
case-insensitively; identifiers keep their original spelling (the engine is
case-sensitive about table and column names, like most columnar research
prototypes).  Every text a parse cache has not seen is lexed, so one
compiled pattern reads each token, blanks and comments before it included.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import SQLSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit", "offset",
    "as", "and", "or", "not", "in", "is", "null", "between", "like", "asc", "desc",
    "join", "inner", "left", "on", "create", "table", "insert", "into", "values",
    "distinct", "true", "false", "case", "when", "then", "else", "end",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


class Token(NamedTuple):
    """One lexeme (a tuple: a text is a few dozen of them, built per lex)."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.type.value}, {self.value!r})"


#: One token and the blanks and comments before it, per match; operators
#: longest first.  The blanks are taken whole (a lookahead captures them,
#: then the match consumes exactly that: no backtracking can re-read a
#: comment as tokens).  A string's closing quote is the first one not doubled
#: (``''`` escapes a quote).  A word is an identifier only if it starts with
#: a letter or ``_``.  ``end`` matches the blanks that close the text.
_TOKEN = re.compile(
    r"""
    (?=(?P<blank>(?:\s+|--[^\n]*)*))(?P=blank)
    (?:
      (?P<string>'(?:[^']|'')*'(?!'))
    | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
    | (?P<word>\w+)
    | (?P<quoted>"[^"]*")
    | (?P<operator><=|>=|!=|<>|[=<>+\-*/%])
    | (?P<punctuation>[(),.;])
    | (?P<end>\Z)
    )
    """,
    re.VERBOSE,
)
_BLANKS = re.compile(r"(?:\s+|--[^\n]*)*")
_STRING, _QUOTED, _NUMBER, _WORD, _OPERATOR, _END = (
    _TOKEN.groupindex[name] for name in ("string", "quoted", "number", "word", "operator", "end")
)
_new = tuple.__new__  # builds a Token without NamedTuple's Python-level constructor


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text`` into a list of tokens terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    for found in _TOKEN.finditer(text):
        kind = found.lastindex
        if found.start() != i or kind == _END:
            break  # no token starts at ``i``, or the text ended
        start = found.start(kind)
        value = found[kind]
        if kind == _WORD:
            if not (value[0].isalpha() or value[0] == "_"):
                break
            lowered = value.lower()
            if lowered in KEYWORDS:
                append(_new(Token, (TokenType.KEYWORD, lowered, start)))
            else:
                append(_new(Token, (TokenType.IDENTIFIER, value, start)))
        elif kind == _STRING:
            append(_new(Token, (TokenType.STRING, value[1:-1].replace("''", "'"), start)))
        elif kind == _QUOTED:
            append(_new(Token, (TokenType.IDENTIFIER, value[1:-1], start)))
        elif kind == _NUMBER:
            append(_new(Token, (TokenType.NUMBER, value, start)))
        elif kind == _OPERATOR:
            append(_new(Token, (TokenType.OPERATOR, "!=" if value == "<>" else value, start)))
        else:
            append(_new(Token, (TokenType.PUNCTUATION, value, start)))
        i = found.end()
    stuck = _BLANKS.match(text, i).end()
    if stuck < len(text):
        raise _syntax_error(text, stuck)
    append(_new(Token, (TokenType.EOF, "", len(text))))
    return tokens


def _syntax_error(text: str, i: int) -> SQLSyntaxError:
    """Why no token starts at ``text[i]``."""
    ch = text[i]
    if ch == "'":
        return SQLSyntaxError("unterminated string literal", i)
    if ch == '"':
        return SQLSyntaxError("unterminated quoted identifier", i)
    return SQLSyntaxError(f"unexpected character {ch!r}", i)
