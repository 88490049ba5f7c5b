"""Unit tests for SQL name resolution."""

import pytest

from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison
from repro.exceptions import BindingError
from repro.sql.binder import parse_query

PAPER_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


class TestBindPaperQuery:
    def test_bound_spec_matches_example(self, catalog, spec):
        bound = parse_query(PAPER_QUERY, catalog)
        assert bound.relations == spec.relations
        assert bound.join_paths == spec.join_paths
        assert bound.select == spec.select
        assert bound.where.is_true()

    def test_reversed_on_order_binds_identically(self, catalog, spec):
        text = PAPER_QUERY.replace("Holder = Citizen", "Citizen = Holder")
        assert parse_query(text, catalog).join_paths == spec.join_paths


class TestAngleNotEqual:
    def test_binds_to_the_not_equal_spec(self, catalog):
        angle = parse_query("SELECT Plan FROM Insurance WHERE Plan <> 'gold'", catalog)
        bang = parse_query("SELECT Plan FROM Insurance WHERE Plan != 'gold'", catalog)
        assert angle.where == bang.where
        assert angle.fingerprint() == bang.fingerprint()
        assert angle.shape() == bang.shape()


class TestSelectClause:
    def test_select_star_expands(self, catalog):
        bound = parse_query("SELECT * FROM Insurance", catalog)
        assert bound.select == frozenset({"Holder", "Plan"})

    def test_select_star_multi_relation(self, catalog):
        bound = parse_query(
            "SELECT * FROM Insurance JOIN Nat_registry ON Holder = Citizen", catalog
        )
        assert bound.select == frozenset({"Holder", "Plan", "Citizen", "HealthAid"})

    def test_unknown_select_attribute(self, catalog):
        with pytest.raises(BindingError):
            parse_query("SELECT Nope FROM Insurance", catalog)

    def test_attribute_of_unjoined_relation(self, catalog):
        with pytest.raises(BindingError):
            parse_query("SELECT Illness FROM Insurance", catalog)


class TestFromClause:
    def test_unknown_relation(self, catalog):
        with pytest.raises(BindingError):
            parse_query("SELECT x FROM Nowhere", catalog)

    def test_duplicate_relation(self, catalog):
        with pytest.raises(BindingError):
            parse_query(
                "SELECT Plan FROM Insurance JOIN Insurance ON Holder = Holder",
                catalog,
            )


class TestOnClause:
    def test_non_bridging_condition(self, catalog):
        with pytest.raises(BindingError):
            parse_query(
                "SELECT Plan FROM Insurance JOIN Nat_registry ON Citizen = HealthAid",
                catalog,
            )

    def test_unknown_on_attribute(self, catalog):
        with pytest.raises(BindingError):
            parse_query(
                "SELECT Plan FROM Insurance JOIN Nat_registry ON Holder = Nope",
                catalog,
            )

    def test_on_attribute_from_later_relation(self, catalog):
        """ON may only use relations joined so far."""
        with pytest.raises(BindingError):
            parse_query(
                "SELECT Plan FROM Insurance JOIN Nat_registry ON Patient = Citizen "
                "JOIN Hospital ON Citizen = Patient",
                catalog,
            )

    def test_multi_condition_step(self, catalog):
        bound = parse_query(
            "SELECT Plan FROM Insurance JOIN Nat_registry "
            "ON Holder = Citizen AND Plan = HealthAid",
            catalog,
        )
        assert bound.join_paths[0] == JoinPath.of(
            ("Holder", "Citizen"), ("Plan", "HealthAid")
        )


class TestWhereClause:
    def test_literal_condition(self, catalog):
        bound = parse_query(
            "SELECT Plan FROM Insurance WHERE Plan = 'gold'", catalog
        )
        assert bound.where.comparisons == (Comparison("Plan", "=", "gold"),)

    def test_attribute_condition(self, catalog):
        bound = parse_query(
            "SELECT Plan FROM Insurance WHERE Holder != Plan", catalog
        )
        (comparison,) = bound.where.comparisons
        assert comparison.operand_is_attribute

    def test_unknown_where_attribute(self, catalog):
        with pytest.raises(BindingError):
            parse_query("SELECT Plan FROM Insurance WHERE Nope = 1", catalog)

    def test_unknown_where_operand_attribute(self, catalog):
        with pytest.raises(BindingError):
            parse_query("SELECT Plan FROM Insurance WHERE Plan != Nope", catalog)
