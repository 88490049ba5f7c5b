"""SQL tokenizer.

Produces a flat token stream from query text.  Token kinds:

* ``KEYWORD`` — ``SELECT``, ``FROM``, ``JOIN``, ``ON``, ``WHERE``,
  ``AND`` (case-insensitive in the input, upper-cased in the token);
* ``IDENT`` — identifiers, optionally dotted (``Insurance.Holder``);
* ``NUMBER`` — integer or decimal literals (value converted);
* ``STRING`` — single-quoted literals with ``''`` escaping;
* ``SYMBOL`` — ``, ( ) ; * = != < <= > >=``;
* ``EOF`` — end of input.
"""

from __future__ import annotations

import re
from typing import List, Union

from repro.exceptions import SqlSyntaxError

#: Recognized keywords (upper-case canonical form).
KEYWORDS = frozenset({"SELECT", "FROM", "JOIN", "ON", "WHERE", "AND"})

#: One alternative per token kind, each match also consuming the white
#: space after the token; what no alternative matches is an unterminated
#: string or a stray character.  ``\s``, ``\w`` and ``\d`` are the classes
#: ``str.isspace``, ``str.isalnum`` (plus ``_``) and ``str.isdecimal``
#: test.  A string closes at a quote not followed by a quote (``''``
#: escapes one); a number takes at most one dot, so ``1.2.3`` stops at
#: the second.
_TOKEN = re.compile(
    r"""(?:(?P<WORD>[^\W\d][\w.]*)
    |(?P<SYMBOL>!=|<=|>=|[<>=,();*])
    |(?P<STRING>'(?:[^']|'')*'(?!'))
    |(?P<NUMBER>\d+(?:\.\d*)?)
    )\s*""",
    re.VERBOSE,
)


class Token:
    """One lexical token.

    Attributes:
        kind: ``KEYWORD`` / ``IDENT`` / ``NUMBER`` / ``STRING`` /
            ``SYMBOL`` / ``EOF``.
        value: canonical token value (keywords upper-cased, numbers
            converted to ``int``/``float``).
        position: character offset in the input, for error messages.
    """

    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: Union[str, int, float], position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position

    def matches(self, kind: str, value: object = None) -> bool:
        """Whether the token has the given kind (and value, if given)."""
        if self.kind != kind:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, @{self.position})"


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text.

    Raises:
        SqlSyntaxError: on unterminated strings or unexpected characters.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    length = len(text)
    index = length - len(text.lstrip())
    while index < length:
        found = match(text, index)
        if found is None:
            raise _stray(text, index)
        kind = found.lastgroup
        value = found.group(kind)
        if kind == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
            elif value[0].isalpha() or value[0] == "_":
                kind = "IDENT"
            else:
                # `[^\W\d]` also admits numerics that are no letter ('½').
                raise _stray(text, index)
        elif kind == "STRING":
            value = value[1:-1].replace("''", "'")
        elif kind == "NUMBER":
            value = float(value) if "." in value else int(value)
        append(Token(kind, value, index))
        index = found.end()
    append(Token("EOF", "", length))
    return tokens


def _stray(text: str, index: int) -> SqlSyntaxError:
    if text[index] == "'":
        return SqlSyntaxError("unterminated string literal", index)
    return SqlSyntaxError(f"unexpected character {text[index]!r}", index)
