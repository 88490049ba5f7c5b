"""Unit tests for the SQL tokenizer, and its differential against the
character-at-a-time loop it replaced (kept here as the oracle)."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, Token, split_literals, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From JOIN oN wHeRe and")
        assert [t.value for t in tokens[:-1]] == [
            "SELECT",
            "FROM",
            "JOIN",
            "ON",
            "WHERE",
            "AND",
        ]
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        tokens = tokenize("Insurance Holder")
        assert tokens[0].value == "Insurance"
        assert tokens[1].value == "Holder"
        assert tokens[0].kind == "IDENT"

    def test_dotted_identifier(self):
        assert values("Insurance.Holder")[:-1] == ["Insurance.Holder"]

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind == "NUMBER" and token.value == 42

    def test_decimal_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind == "NUMBER" and token.value == 3.25

    def test_string_literal(self):
        token = tokenize("'gold'")[0]
        assert token.kind == "STRING" and token.value == "gold"

    def test_string_with_escaped_quote(self):
        token = tokenize("\"ok\"".replace('"', "'") + "")[0]
        assert token.value == "ok"
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_symbols(self):
        assert values("= != < <= > >= , ( ) ; *")[:-1] == [
            "=",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
            ",",
            "(",
            ")",
            ";",
            "*",
        ]

    def test_multi_char_symbols_greedy(self):
        assert values("a<=b")[:-1] == ["a", "<=", "b"]

    def test_angle_pair_is_not_equal(self):
        assert values("a <> b a<>1 a < > b")[:-1] == [
            "a", "!=", "b", "a", "!=", 1, "a", "<", ">", "b"
        ]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("a @ b")
        assert excinfo.value.position == 2

    def test_eof_token(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == "EOF"

    def test_empty_input(self):
        assert kinds("") == ["EOF"]

    def test_whitespace_only(self):
        assert kinds("   \n\t ") == ["EOF"]

    def test_positions_recorded(self):
        tokens = tokenize("SELECT x")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_token_matches(self):
        token = Token("KEYWORD", "SELECT", 0)
        assert token.matches("KEYWORD")
        assert token.matches("KEYWORD", "SELECT")
        assert not token.matches("IDENT")
        assert not token.matches("KEYWORD", "FROM")


class TestEdges:
    def test_a_trailing_dot_belongs_to_the_number(self):
        token = tokenize("1.")[0]
        assert token.kind == "NUMBER" and token.value == 1.0
        assert isinstance(token.value, float)

    def test_a_second_dot_is_a_stray_character(self):
        with pytest.raises(SqlSyntaxError, match=r"unexpected character '\.'") as excinfo:
            tokenize("1.2.3")
        assert excinfo.value.position == 3

    def test_an_escape_at_the_end_leaves_the_string_open(self):
        # 'a'' is: open, a, escaped quote, end of input.
        with pytest.raises(SqlSyntaxError, match="unterminated string") as excinfo:
            tokenize("x = 'a''")
        assert excinfo.value.position == 4

    def test_quote_runs(self):
        assert values("''")[:-1] == [""]
        assert values("''''")[:-1] == ["'"]
        assert values("'''a' 'b'")[:-1] == ["'a", "b"]

    def test_dotted_identifiers_and_numbers_meet(self):
        assert values("a.1 1.a")[:-1] == ["a.1", 1.0, "a"]

    def test_a_digit_that_is_no_decimal_is_a_stray_character(self):
        # The loop crashed here (`int('²')` raises ValueError).
        for text, position in (("²", 0), ("1²", 1), ("½x", 0)):
            with pytest.raises(SqlSyntaxError, match="unexpected character") as excinfo:
                tokenize(text)
            assert excinfo.value.position == position


# ---------------------------------------------------------------------------
# The replaced implementation, verbatim but for one later rule — ``<>``
# is the standard spelling of ``!=`` and lexes as it: the differential's
# oracle
# ---------------------------------------------------------------------------

_SYMBOLS = ("!=", "<>", "<=", ">=", "<", ">", "=", ",", "(", ")", ";", "*")


def reference_tokenize(text):
    tokens = []
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch.isspace():
            index += 1
            continue
        if ch == "'":
            end = index + 1
            pieces = []
            while True:
                if end >= length:
                    raise SqlSyntaxError("unterminated string literal", index)
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        pieces.append("'")
                        end += 2
                        continue
                    break
                pieces.append(text[end])
                end += 1
            tokens.append(Token("STRING", "".join(pieces), index))
            index = end + 1
            continue
        if ch.isdigit():
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            raw = text[index:end]
            value = float(raw) if seen_dot else int(raw)
            tokens.append(Token("NUMBER", value, index))
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] in "_."):
                end += 1
            word = text[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, index))
            else:
                tokens.append(Token("IDENT", word, index))
            index = end
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, index):
                tokens.append(Token("SYMBOL", "!=" if symbol == "<>" else symbol, index))
                index += len(symbol)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r}", index)
    tokens.append(Token("EOF", "", length))
    return tokens


def outcome(lexer, text):
    try:
        return [(t.kind, t.value, type(t.value), t.position) for t in lexer(text)]
    except SqlSyntaxError as error:
        return (str(error), error.position)
    except ValueError:
        # Only the loop gets here: `str.isdigit` admits digits `int`
        # rejects ('²'); the pattern reports them as stray characters.
        return "crash"


def assert_same(text):
    expected, actual = outcome(reference_tokenize, text), outcome(tokenize, text)
    if expected == "crash":
        assert isinstance(actual, tuple) and "unexpected character" in actual[0]
    else:
        assert actual == expected


LEXEMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + [k.lower() for k in sorted(KEYWORDS)]),
    st.sampled_from(_SYMBOLS),
    st.builds(
        str.__add__,
        st.sampled_from(string.ascii_letters + "_"),
        st.text(alphabet=string.ascii_letters + string.digits + "_.", max_size=6),
    ),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.builds("{}.{}".format, st.integers(0, 9999), st.sampled_from(["", "0", "25", "125"])),
    st.text(alphabet=string.ascii_letters + " '-", max_size=6).map(
        lambda body: "'" + body.replace("'", "''") + "'"
    ),
)
SQL = st.lists(
    st.tuples(LEXEMES, st.sampled_from(["", " ", "  ", "\n", "\t "])), max_size=24
).map(lambda parts: "".join(lexeme + gap for lexeme, gap in parts))


class TestAgainstTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(SQL)
    def test_generated_sql(self, text):
        assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=40))
    def test_random_printable_text(self, text):
        assert_same(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters() | st.sampled_from("'.01 _²½١一Ⅷ\x1c"), max_size=16))
    def test_random_unicode_text(self, text):
        assert_same(text)

    def test_the_kind_of_query_the_suite_plans(self):
        for text in (
            "SELECT Patient, Physician FROM Insurance JOIN Hospital ON Holder = Patient "
            "WHERE Plan != 'q3c1n17' AND Premium >= 12.50;",
            "select * from (A join B on a = b) join C on B.b = C.c where x<=1.",
        ):
            assert not isinstance(outcome(tokenize, text), tuple)
            assert_same(text)


# ----------------------------------------------------------------------
# split_literals: the literal tokens without tokenizing the rest
# ----------------------------------------------------------------------


def literal_tokens(tokens):
    return [(value, type_) for kind, value, type_, _ in tokens if kind in ("STRING", "NUMBER")]


def other_tokens(tokens):
    return [(kind, value) for kind, value, _, _ in tokens if kind not in ("STRING", "NUMBER")]


def render_literal(value):
    return "'" + value.replace("'", "''") + "'" if isinstance(value, str) else repr(value)


class TestSplitLiterals:
    def test_skeleton_and_converted_values(self):
        skeleton, found = split_literals("WHERE t0 = 12 AND R.a1>=1.5 AND b='it''s' AND c != '';")
        assert skeleton == ("WHERE t0 = ", " AND R.a1>=", " AND b=", " AND c != ", ";")
        assert found == (12, 1.5, "it's", "")
        assert [type(value) for value in found] == [int, float, str, str]

    def test_a_number_never_starts_inside_a_word_or_after_a_dot(self):
        assert split_literals("t0 R1.a2 x.9 _7 a1b2") == (("t0 R1.a2 x.9 _7 a1b2",), ())
        assert split_literals("1.2.3") == (("", ".3"), (1.2,))
        assert split_literals("1.") == (("", ""), (1.0,))

    def test_digits_and_quotes_inside_a_string_stay_inside(self):
        assert split_literals("a = '1 ''2'' 3' AND b = 4") == (("a = ", " AND b = ", ""), ("1 '2' 3", 4))

    def test_a_text_that_does_not_tokenize_splits_into_no_valid_skeleton(self):
        # The unterminated quote stays in the skeleton; no valid text has one.
        assert split_literals("a = 'abc") == (("a = 'abc",), ())
        assert split_literals("a = 'a''") == (("a = 'a", ""), ("",))

    @settings(max_examples=300, deadline=None)
    @given(SQL)
    def test_the_values_are_the_lexers_literal_tokens(self, text):
        tokens = outcome(tokenize, text)
        if isinstance(tokens, tuple):
            return  # does not tokenize: nothing is promised
        skeleton, found = split_literals(text)
        assert [(value, type(value)) for value in found] == literal_tokens(tokens)
        assert len(skeleton) == len(found) + 1

    @settings(max_examples=300, deadline=None)
    @given(
        SQL,
        st.lists(
            st.integers(0, 99) | st.sampled_from([1.0, 0.5]) | st.text(alphabet="a1' ", max_size=3),
            min_size=24, max_size=24,
        ),
    )
    def test_texts_of_one_skeleton_differ_in_nothing_but_their_literals(self, text, values):
        tokens = outcome(tokenize, text)
        if isinstance(tokens, tuple):
            return
        skeleton, found = split_literals(text)
        values = values[: len(found)]
        other = "".join(
            piece + render_literal(value) for piece, value in zip(skeleton, values)
        ) + skeleton[-1]
        # A literal may fuse with what it now follows (`a` + `1`): then
        # the splitter reads another skeleton, and promises nothing.
        if split_literals(other)[0] != skeleton:
            return
        retokenized = outcome(tokenize, other)
        assert other_tokens(retokenized) == other_tokens(tokens)
        assert literal_tokens(retokenized) == [(value, type(value)) for value in values]
