"""SQL tokenizer.

Produces a flat token stream from query text.  Token kinds:

* ``KEYWORD`` — ``SELECT``, ``FROM``, ``JOIN``, ``ON``, ``WHERE``,
  ``AND`` (case-insensitive in the input, upper-cased in the token);
* ``IDENT`` — identifiers, optionally dotted (``Insurance.Holder``);
* ``NUMBER`` — integer or decimal literals (value converted);
* ``STRING`` — single-quoted literals with ``''`` escaping;
* ``SYMBOL`` — ``, ( ) ; * = != < <= > >=`` (``<>`` is lexed as
  ``!=``);
* ``EOF`` — end of input.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from repro.exceptions import SqlSyntaxError

#: Recognized keywords (upper-case canonical form).
KEYWORDS = frozenset({"SELECT", "FROM", "JOIN", "ON", "WHERE", "AND"})

#: The two literal alternatives.  A string closes at a quote not followed
#: by a quote (``''`` escapes one); a number takes at most one dot, so
#: ``1.2.3`` stops at the second.
_STRING = r"'(?:[^']|'')*'(?!')"
_NUMBER = r"\d+(?:\.\d*)?"

#: One alternative per token kind, each match also consuming the white
#: space after the token; what no alternative matches is an unterminated
#: string or a stray character.  ``\s``, ``\w`` and ``\d`` are the classes
#: ``str.isspace``, ``str.isalnum`` (plus ``_``) and ``str.isdecimal``
#: test.
_TOKEN = re.compile(
    rf"""(?:(?P<WORD>[^\W\d][\w.]*)
    |(?P<SYMBOL>!=|<>|<=|>=|[<>=,();*])
    |(?P<STRING>{_STRING})
    |(?P<NUMBER>{_NUMBER})
    )\s*""",
    re.VERBOSE,
)

#: The literal tokens of a text without tokenizing the rest of it: where
#: :data:`_TOKEN` would match ``STRING`` or ``NUMBER``.  A word swallows
#: the digits and dots after its first letter (``t0``, ``R.a1``), so a
#: number never starts inside a word or after a dot.  The lookahead only
#: lets the scan skip, at one test, the characters that start neither.
_LITERAL = re.compile(rf"(?=['\d])(?:({_STRING})|(?<![\w.])({_NUMBER}))")


def _string_value(raw: str) -> str:
    return raw[1:-1].replace("''", "'")


def _number_value(raw: str) -> Union[int, float]:
    return float(raw) if "." in raw else int(raw)


def split_literals(text: str) -> Tuple[Tuple[str, ...], Tuple[Union[str, int, float], ...]]:
    """Split ``text`` at its literals: the *skeleton* — the text before,
    between and after them — and their values, converted as
    :func:`tokenize` converts them.  For a text that tokenizes these are
    its ``STRING`` and ``NUMBER`` tokens, in order, and two such texts of
    one skeleton differ in nothing else; a text that does not tokenize
    still splits, into a skeleton no valid text has.
    """
    parts = _LITERAL.split(text)
    values = [
        _string_value(string) if string is not None else _number_value(number)
        for string, number in zip(parts[1::3], parts[2::3])
    ]
    return tuple(parts[::3]), tuple(values)


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
            value = _string_value(value)
        elif kind == "NUMBER":
            value = _number_value(value)
        elif value == "<>":
            value = "!="
        append(Token(kind, value, index))
        index = found.end()
    append(Token("EOF", "", length))
    return tokens


def _stray(text: str, index: int) -> SqlSyntaxError:
    if text[index] == "'":
        return SqlSyntaxError("unterminated string literal", index)
    return SqlSyntaxError(f"unexpected character {text[index]!r}", index)
