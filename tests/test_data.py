"""Unit tests for the in-memory table engine."""

import pytest

from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.engine.data import Table
from repro.exceptions import ExecutionError


@pytest.fixture()
def insurance():
    return Table(
        ["Holder", "Plan"],
        [("c1", "gold"), ("c2", "silver"), ("c3", "gold")],
    )


@pytest.fixture()
def registry():
    return Table(
        ["Citizen", "HealthAid"],
        [("c1", "full"), ("c2", "none"), ("c4", "basic")],
    )


class TestConstruction:
    def test_basic(self, insurance):
        assert insurance.attributes == ("Holder", "Plan")
        assert len(insurance) == 3

    def test_deduplication(self):
        table = Table(["a"], [(1,), (1,), (2,)])
        assert len(table) == 2

    def test_canonical_order(self):
        first = Table(["a"], [(2,), (1,)])
        second = Table(["a"], [(1,), (2,)])
        assert first.rows == second.rows

    def test_from_rows(self):
        table = Table.from_rows(["a", "b"], [{"a": 1, "b": 2}, {"a": 3}])
        assert (3, None) in table.rows

    def test_empty(self):
        table = Table.empty(["a", "b"])
        assert len(table) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ExecutionError):
            Table(["a", "b"], [(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError):
            Table(["a", "a"], [])

    def test_no_columns_rejected(self):
        with pytest.raises(ExecutionError):
            Table([], [])

    def test_non_scalar_values_rejected(self):
        with pytest.raises(ExecutionError):
            Table(["a"], [([1, 2],)])

    def test_equality_ignores_column_order(self):
        first = Table(["a", "b"], [(1, 2)])
        second = Table(["b", "a"], [(2, 1)])
        assert first == second
        assert hash(first) == hash(second)

    def test_mixed_type_rows_sort_deterministically(self):
        table = Table(["a"], [(1,), ("x",), (None,), (2.5,)])
        assert len(table) == 4


class TestAccessors:
    def test_row_dicts(self, insurance):
        rows = insurance.row_dicts()
        assert {"Holder": "c1", "Plan": "gold"} in rows

    def test_column(self, insurance):
        assert set(insurance.column("Plan")) == {"gold", "silver"} or len(
            insurance.column("Plan")
        ) == 3

    def test_distinct_count(self, insurance):
        assert insurance.distinct_count("Plan") == 2
        assert insurance.distinct_count("Holder") == 3

    def test_missing_column(self, insurance):
        with pytest.raises(ExecutionError):
            insurance.column("Nope")

    def test_byte_size_positive(self, insurance):
        assert insurance.byte_size() > 0
        assert Table.empty(["a"]).byte_size() == 0


class TestProject:
    def test_projection_dedupes(self, insurance):
        projected = insurance.project(["Plan"])
        assert projected.attributes == ("Plan",)
        assert len(projected) == 2

    def test_projection_missing_column(self, insurance):
        with pytest.raises(ExecutionError):
            insurance.project(["Nope"])


class TestSelect:
    def test_select(self, insurance):
        gold = insurance.select(Predicate([Comparison("Plan", "=", "gold")]))
        assert len(gold) == 2

    def test_select_empty_result(self, insurance):
        none = insurance.select(Predicate([Comparison("Plan", "=", "platinum")]))
        assert len(none) == 0
        assert none.attributes == insurance.attributes

    def test_true_predicate_keeps_all(self, insurance):
        assert insurance.select(Predicate.true()) == insurance


class TestEquiJoin:
    def test_basic_join(self, insurance, registry):
        joined = insurance.equi_join(registry, JoinPath.of(("Holder", "Citizen")))
        assert joined.attributes == ("Holder", "Plan", "Citizen", "HealthAid")
        assert len(joined) == 2  # c1 and c2 match; c3/c4 do not

    def test_join_is_symmetric_in_content(self, insurance, registry):
        path = JoinPath.of(("Holder", "Citizen"))
        assert insurance.equi_join(registry, path) == registry.equi_join(
            insurance, path
        )

    def test_none_keys_never_match(self):
        left = Table(["a", "b"], [(None, 1)])
        right = Table(["c"], [(None,)])
        joined = left.equi_join(right, JoinPath.of(("a", "c")))
        assert len(joined) == 0

    def test_condition_must_bridge(self, insurance, registry):
        with pytest.raises(ExecutionError):
            insurance.equi_join(registry, JoinPath.of(("Holder", "Plan")))

    def test_overlapping_columns_rejected(self, insurance):
        clone = Table(["Holder", "X"], [("c1", 1)])
        with pytest.raises(ExecutionError):
            insurance.equi_join(clone, JoinPath.of(("Plan", "X")))

    def test_multi_condition_join(self):
        left = Table(["a", "b"], [(1, 10), (1, 20)])
        right = Table(["c", "d"], [(1, 10), (1, 30)])
        joined = left.equi_join(right, JoinPath.of(("a", "c"), ("b", "d")))
        assert len(joined) == 1


class TestNaturalJoin:
    def test_recombination(self, insurance, registry):
        # The semi-join pattern: probe, slave join, recombine.
        probe = insurance.project(["Holder"])
        slave_side = probe.equi_join(registry, JoinPath.of(("Holder", "Citizen")))
        recombined = insurance.natural_join(slave_side)
        direct = insurance.equi_join(registry, JoinPath.of(("Holder", "Citizen")))
        assert recombined == direct

    def test_requires_shared_columns(self, insurance, registry):
        with pytest.raises(ExecutionError):
            insurance.natural_join(registry)

    def test_none_shared_keys_never_match(self):
        left = Table(["a", "b"], [(None, 1)])
        right = Table(["a", "c"], [(None, 2)])
        assert len(left.natural_join(right)) == 0


class TestUnion:
    def test_union_dedupes(self):
        first = Table(["a", "b"], [(1, 2)])
        second = Table(["b", "a"], [(2, 1), (4, 3)])
        union = first.union(second)
        assert len(union) == 2

    def test_union_requires_same_columns(self, insurance, registry):
        with pytest.raises(ExecutionError):
            insurance.union(registry)
