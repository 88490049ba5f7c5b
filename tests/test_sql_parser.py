"""Unit tests for the SQL parser."""

import pytest

from repro.exceptions import SqlSyntaxError
from repro.sql.ast import RawCondition
from repro.sql.parser import parse

PAPER_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


class TestParseBasics:
    def test_paper_query(self):
        query = parse(PAPER_QUERY)
        assert query.select == ["Patient", "Physician", "Plan", "HealthAid"]
        assert query.relations == ["Insurance", "Nat_registry", "Hospital"]
        assert repr(query.from_tree) == (
            "((Insurance JOIN Nat_registry ON Holder = Citizen) "
            "JOIN Hospital ON Citizen = Patient)"
        )
        assert query.where == []

    def test_select_star(self):
        query = parse("SELECT * FROM Insurance")
        assert query.is_select_star
        assert query.select is None

    def test_single_relation(self):
        query = parse("SELECT Plan FROM Insurance")
        assert query.relations == ["Insurance"]
        assert repr(query.from_tree) == "Insurance"

    def test_trailing_semicolon(self):
        assert parse("SELECT Plan FROM Insurance;").relations == ["Insurance"]

    def test_multi_condition_on_clause(self):
        query = parse("SELECT a FROM R JOIN T ON a = c AND b = d")
        assert query.from_tree.conditions == [("a", "c"), ("b", "d")]

    def test_case_insensitive_keywords(self):
        query = parse("select Plan from Insurance")
        assert query.relations == ["Insurance"]


class TestWhereClause:
    def test_literal_string(self):
        query = parse("SELECT Plan FROM Insurance WHERE Plan = 'gold'")
        assert query.where == [RawCondition("Plan", "=", "gold", False)]

    def test_literal_number(self):
        query = parse("SELECT a FROM R WHERE a >= 10")
        assert query.where == [RawCondition("a", ">=", 10, False)]

    def test_attribute_operand(self):
        query = parse("SELECT a FROM R WHERE a != b")
        assert query.where == [RawCondition("a", "!=", "b", True)]

    def test_angle_pair_parses_as_not_equal(self):
        query = parse("SELECT a FROM R WHERE a <> 1000 AND a <> b")
        assert query.where == parse("SELECT a FROM R WHERE a != 1000 AND a != b").where
        assert query.where == [
            RawCondition("a", "!=", 1000, False),
            RawCondition("a", "!=", "b", True),
        ]

    def test_conjunction(self):
        query = parse("SELECT a FROM R WHERE a = 1 AND b < 2.5")
        assert len(query.where) == 2
        assert query.where[1] == RawCondition("b", "<", 2.5, False)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM Insurance",  # missing SELECT
            "SELECT FROM Insurance",  # missing select list
            "SELECT Plan Insurance",  # missing FROM
            "SELECT Plan FROM",  # missing relation
            "SELECT Plan FROM Insurance JOIN",  # dangling JOIN
            "SELECT Plan FROM Insurance JOIN Hospital",  # missing ON
            "SELECT Plan FROM Insurance JOIN Hospital ON",  # missing cond
            "SELECT Plan FROM Insurance JOIN Hospital ON Holder",  # no '='
            "SELECT Plan FROM Insurance WHERE",  # dangling WHERE
            "SELECT Plan FROM Insurance WHERE Plan",  # missing operator
            "SELECT Plan FROM Insurance WHERE Plan =",  # missing operand
            "SELECT Plan, FROM Insurance",  # dangling comma
            "SELECT Plan FROM Insurance garbage",  # trailing input
            "SELECT Plan FROM Insurance WHERE Plan = SELECT",  # keyword operand
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SqlSyntaxError):
            parse(text)

    def test_error_reports_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse("SELECT Plan FROM Insurance extra")
        assert excinfo.value.position == 27

    def test_join_on_equality_rejects_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM R JOIN T ON a = 5")
