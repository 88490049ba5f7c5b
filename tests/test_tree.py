"""Unit tests for query tree plans."""

import pytest

from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import RelationSchema
from repro.algebra.tree import (
    PROJECT,
    SELECT,
    JoinNode,
    LeafNode,
    QueryTreePlan,
    UnaryNode,
)
from repro.exceptions import PlanError


def leaf(name="R", attrs=("a", "b"), server="S1"):
    return LeafNode(RelationSchema(name, list(attrs), server=server))


def two_leaf_join():
    left = leaf("R", ("a", "b"), "S1")
    right = leaf("T", ("c", "d"), "S2")
    return JoinNode(left, right, JoinPath.of(("a", "c")))


class TestLeafNode:
    def test_schema_and_server(self):
        node = leaf()
        assert node.schema == frozenset({"a", "b"})
        assert node.server == "S1"
        assert node.is_leaf
        assert node.children() == []

    def test_label(self):
        assert leaf().label() == "R"

    def test_node_id_requires_plan(self):
        with pytest.raises(PlanError):
            leaf().node_id


class TestUnaryNode:
    def test_projection_schema(self):
        node = UnaryNode(PROJECT, frozenset({"a"}), leaf())
        assert node.schema == frozenset({"a"})
        assert node.projection_attributes == frozenset({"a"})

    def test_projection_validates_attributes(self):
        with pytest.raises(PlanError):
            UnaryNode(PROJECT, frozenset({"zz"}), leaf())

    def test_projection_rejects_empty(self):
        with pytest.raises(PlanError):
            UnaryNode(PROJECT, frozenset(), leaf())

    def test_selection_schema_preserved(self):
        node = UnaryNode(SELECT, Predicate([Comparison("a", "=", 1)]), leaf())
        assert node.schema == frozenset({"a", "b"})
        assert len(node.predicate) == 1

    def test_selection_validates_predicate_attributes(self):
        with pytest.raises(PlanError):
            UnaryNode(SELECT, Predicate([Comparison("zz", "=", 1)]), leaf())

    def test_selection_requires_predicate(self):
        with pytest.raises(PlanError):
            UnaryNode(SELECT, frozenset({"a"}), leaf())

    def test_unknown_operator(self):
        with pytest.raises(PlanError):
            UnaryNode("rename", frozenset({"a"}), leaf())

    def test_unary_child_is_left(self):
        child = leaf()
        node = UnaryNode(PROJECT, frozenset({"a"}), child)
        assert node.left is child
        assert node.right is None

    def test_wrong_accessor_raises(self):
        node = UnaryNode(PROJECT, frozenset({"a"}), leaf())
        with pytest.raises(PlanError):
            node.predicate


class TestJoinNode:
    def test_schema_union(self):
        node = two_leaf_join()
        assert node.schema == frozenset({"a", "b", "c", "d"})

    def test_join_attribute_split(self):
        node = two_leaf_join()
        assert node.left_join_attributes() == frozenset({"a"})
        assert node.right_join_attributes() == frozenset({"c"})

    def test_rejects_empty_path(self):
        with pytest.raises(PlanError):
            JoinNode(leaf("R"), leaf("T", ("c", "d")), JoinPath.empty())

    def test_rejects_overlap(self):
        with pytest.raises(PlanError):
            JoinNode(leaf("R"), leaf("T", ("a", "x")), JoinPath.of(("b", "x")))

    def test_rejects_non_bridging_condition(self):
        with pytest.raises(PlanError):
            JoinNode(leaf("R"), leaf("T", ("c", "d")), JoinPath.of(("a", "b")))


class TestQueryTreePlan:
    def test_post_order_ids(self):
        join = two_leaf_join()
        plan = QueryTreePlan(join)
        assert [n.node_id for n in plan.post_order()] == [0, 1, 2]
        assert plan.root.node_id == 2

    def test_parent_ids(self):
        plan = QueryTreePlan(two_leaf_join())
        assert plan.parent_id(plan.root.node_id) is None
        assert plan.parent_id(0) == 2
        assert plan.parent_id(1) == 2

    def test_pre_order(self):
        plan = QueryTreePlan(two_leaf_join())
        assert [n.node_id for n in plan.pre_order()] == [2, 0, 1]

    def test_leaves_and_joins(self):
        plan = QueryTreePlan(two_leaf_join())
        assert len(plan.leaves()) == 2
        assert len(plan.joins()) == 1

    def test_servers(self):
        plan = QueryTreePlan(two_leaf_join())
        assert plan.servers() == ["S1", "S2"]

    def test_shared_subtree_rejected(self):
        shared = leaf("R")
        with pytest.raises(PlanError):
            QueryTreePlan(
                JoinNode(shared, shared, JoinPath.of(("a", "b")))
            )

    def test_node_lookup_bounds(self):
        plan = QueryTreePlan(two_leaf_join())
        with pytest.raises(PlanError):
            plan.node(99)

    def test_render_contains_ids_and_labels(self):
        plan = QueryTreePlan(two_leaf_join())
        text = plan.render()
        assert "[n2]" in text and "R" in text and "T" in text

    def test_len_and_iter(self):
        plan = QueryTreePlan(two_leaf_join())
        assert len(plan) == 3
        assert len(list(plan)) == 3

    def test_single_leaf_plan(self):
        plan = QueryTreePlan(leaf())
        assert len(plan) == 1
        assert plan.root.is_leaf


class TestWithSelections:
    """The same query under other WHERE constants (prepared shapes)."""

    def plan(self):
        # π{a, d}( σ[b < d]( π{a, b}(σ[b != 1 AND a = 2](R)) ⋈ T ) )
        selected = UnaryNode(
            SELECT, Predicate([Comparison("b", "!=", 1), Comparison("a", "=", 2)]), leaf()
        )
        join = JoinNode(
            UnaryNode(PROJECT, frozenset({"a", "b"}), selected),
            leaf("T", ("c", "d"), "S2"),
            JoinPath.of(("a", "c")),
        )
        cross = UnaryNode(SELECT, Predicate([Comparison.attr_vs_attr("b", "<", "d")]), join)
        return QueryTreePlan(UnaryNode(PROJECT, frozenset({"a", "d"}), cross))

    def test_selections_take_their_atoms_in_the_order_given(self):
        plan = self.plan()
        where = Predicate(
            [
                Comparison("a", "=", 7),
                Comparison.attr_vs_attr("b", "<", "d"),
                Comparison("b", "!=", "x"),
            ]
        )
        twin = plan.with_selections(where)
        assert [node.label() for node in twin] == [
            "R", "σ[a=7 AND b!='x']", "π{a, b}", "T", "⋈{(a, c)}", "σ[b<d]", "π{a, d}",
        ]
        # The plan it came from still tests its own constants.
        assert plan.node(1).label() == "σ[b!=1 AND a=2]"

    def test_ids_and_parents_carry_over_and_untouched_subtrees_are_shared(self):
        plan = self.plan()
        twin = plan.with_selections(
            Predicate(
                [
                    Comparison("b", "!=", 5),
                    Comparison("a", "=", 6),
                    Comparison.attr_vs_attr("b", "<", "d"),
                ]
            )
        )
        assert [node.node_id for node in twin] == list(range(7))
        assert all(twin.parent_id(i) == plan.parent_id(i) for i in range(7))
        assert twin.root is twin.node(6) and twin.root.node_id == 6
        assert [node.node_id for node in twin.pre_order()] == [
            node.node_id for node in plan.pre_order()
        ]
        # Leaves hold no selection: shared.  A selection and every
        # ancestor of one: new nodes, wired to each other.
        assert [twin.node(i) is plan.node(i) for i in range(7)] == [
            True, False, False, True, False, False, False,
        ]
        assert twin.node(2).left is twin.node(1)
        assert twin.node(4).left is twin.node(2) and twin.node(4).right is plan.node(3)
        # Numbering the twin from scratch gives the ids it carried over.
        assert QueryTreePlan(twin.root).render() == twin.render()

    def test_a_plan_without_selections_is_shared_whole(self):
        plan = QueryTreePlan(two_leaf_join())
        twin = plan.with_selections(Predicate.true())
        assert twin.root is plan.root and twin.nodes() == plan.nodes()

    def test_an_atom_no_selection_reads_is_refused(self):
        with pytest.raises(PlanError, match="1 of 4 WHERE atoms"):
            self.plan().with_selections(
                Predicate(
                    [
                        Comparison("b", "!=", 5),
                        Comparison("a", "=", 6),
                        Comparison.attr_vs_attr("b", "<", "d"),
                        Comparison("d", "=", 0),
                    ]
                )
            )
