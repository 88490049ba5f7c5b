"""Join expressions over the paper's base relations, built as plan nodes."""

import pytest

from repro.algebra.joins import JoinPath
from repro.algebra.schema import RelationSchema
from repro.algebra.tree import JoinNode, LeafNode, QueryTreePlan


@pytest.fixture()
def insurance():
    return LeafNode(RelationSchema("Insurance", ["Holder", "Plan"], server="S_I"))


@pytest.fixture()
def registry():
    return LeafNode(RelationSchema("Nat_registry", ["Citizen", "HealthAid"], server="S_N"))


@pytest.fixture()
def hospital():
    return LeafNode(RelationSchema("Hospital", ["Patient", "Disease"], server="S_H"))


def nested_join(insurance, registry, hospital):
    """Insurance join (Nat_registry join Hospital): the nested join sits on the right."""
    inner = JoinNode(registry, hospital, JoinPath.of(("Citizen", "Patient")))
    return JoinNode(insurance, inner, JoinPath.of(("Holder", "Citizen")))


class TestJoin:
    def test_schema_is_union(self, insurance, registry, hospital):
        join = JoinNode(insurance, registry, JoinPath.of(("Holder", "Citizen")))
        assert join.schema == frozenset({"Holder", "Plan", "Citizen", "HealthAid"})
        nested = nested_join(insurance, registry, hospital)
        assert nested.schema == nested.left.schema | nested.right.schema
        assert nested.schema == frozenset(
            {"Holder", "Plan", "Citizen", "HealthAid", "Patient", "Disease"}
        )

    def test_base_relations_in_order(self, insurance, registry, hospital):
        join = QueryTreePlan(JoinNode(insurance, registry, JoinPath.of(("Holder", "Citizen"))))
        assert [r.name for r in join.base_relations()] == ["Insurance", "Nat_registry"]
        nested = QueryTreePlan(nested_join(insurance, registry, hospital))
        assert [r.name for r in nested.base_relations()] == [
            "Insurance",
            "Nat_registry",
            "Hospital",
        ]
        assert len(nested.joins()) == 2
