"""Unit tests for query specs and minimized plan construction."""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.tree import JoinNode, LeafNode, UnaryNode
from repro.exceptions import PlanError, UnknownAttributeError


class TestQuerySpec:
    def test_valid_spec(self, spec):
        assert spec.relations == ("Insurance", "Nat_registry", "Hospital")
        assert len(spec.join_paths) == 2
        assert spec.where.is_true()

    def test_full_join_path(self, spec):
        assert spec.full_join_path() == JoinPath.of(
            ("Holder", "Citizen"), ("Citizen", "Patient")
        )

    def test_full_join_path_single_relation(self):
        single = QuerySpec(["Insurance"], [], frozenset({"Plan"}))
        assert single.full_join_path().is_empty()

    def test_rejects_wrong_join_count(self):
        with pytest.raises(PlanError):
            QuerySpec(["A", "B"], [], frozenset({"x"}))

    def test_rejects_duplicate_relations(self):
        with pytest.raises(PlanError):
            QuerySpec(["A", "A"], [JoinPath.of(("x", "y"))], frozenset({"x"}))

    def test_rejects_empty_select(self):
        with pytest.raises(PlanError):
            QuerySpec(["A"], [], frozenset())

    def test_rejects_no_relations(self):
        with pytest.raises(PlanError):
            QuerySpec([], [], frozenset({"x"}))

    def test_reordered(self, spec):
        reordered = spec.reordered(
            ["Hospital", "Nat_registry", "Insurance"],
            [JoinPath.of(("Patient", "Citizen")), JoinPath.of(("Citizen", "Holder"))],
        )
        assert reordered.relations[0] == "Hospital"
        assert reordered.select == spec.select

    def test_with_constants_fills_the_literal_operands_in_atom_order(self, spec):
        where = Predicate(
            [
                Comparison("Plan", "=", "gold"),
                Comparison.attr_vs_attr("Holder", "!=", "Patient"),
                Comparison("Premium", ">", 1),
            ]
        )
        first = QuerySpec(spec.relations, spec.join_paths, spec.select, where)
        assert first.constants() == ("gold", 1)
        other = first.with_constants(["basic", 2.5])
        assert [str(c) for c in other.where.comparisons] == [
            "Plan='basic'", "Holder!=Patient", "Premium>2.5",
        ]
        assert other.shape() == first.shape()
        assert other.fingerprint() != first.fingerprint()
        assert first.constants() == ("gold", 1)  # a copy: the first spec is untouched
        # `1`, `1.0` and `'1'` are three queries.
        prints = {first.with_constants(["x", v]).fingerprint() for v in (1, 1.0, "1")}
        assert len(prints) == 3
        for values in (["basic"], ["basic", 2, 3]):
            with pytest.raises(PlanError, match="2 WHERE constants"):
                first.with_constants(values)


class TestBuildPlan:
    def test_reproduces_figure_2(self, catalog, spec):
        plan = build_plan(catalog, spec)
        # Root projection over a join over (join, projected Hospital).
        root = plan.root
        assert isinstance(root, UnaryNode) and root.operator == "project"
        top_join = root.left
        assert isinstance(top_join, JoinNode)
        inner_join = top_join.left
        assert isinstance(inner_join, JoinNode)
        assert isinstance(inner_join.left, LeafNode)
        assert inner_join.left.relation.name == "Insurance"
        assert inner_join.right.relation.name == "Nat_registry"
        hospital_pi = top_join.right
        assert isinstance(hospital_pi, UnaryNode)
        assert hospital_pi.projection_attributes == frozenset({"Patient", "Physician"})
        assert len(plan) == 7

    def test_no_projection_when_all_attributes_needed(self, catalog):
        spec = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Holder", "Plan", "Citizen", "HealthAid"}),
        )
        plan = build_plan(catalog, spec)
        # Full output: no projection anywhere.
        assert all(not isinstance(n, UnaryNode) for n in plan)

    def test_single_relation_query(self, catalog):
        spec = QuerySpec(["Insurance"], [], frozenset({"Plan"}))
        plan = build_plan(catalog, spec)
        assert isinstance(plan.root, UnaryNode)
        assert isinstance(plan.root.left, LeafNode)

    def test_single_relation_full_projection_is_leaf_only(self, catalog):
        spec = QuerySpec(["Insurance"], [], frozenset({"Holder", "Plan"}))
        plan = build_plan(catalog, spec)
        assert plan.root.is_leaf

    def test_where_pushed_to_leaf(self, catalog):
        spec = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Plan", "HealthAid"}),
            Predicate([Comparison("Plan", "=", "gold")]),
        )
        plan = build_plan(catalog, spec)
        selections = [
            n for n in plan if isinstance(n, UnaryNode) and n.operator == "select"
        ]
        assert len(selections) == 1
        # The selection sits directly above the Insurance leaf.
        assert isinstance(selections[0].left, LeafNode)
        assert selections[0].left.relation.name == "Insurance"

    def test_cross_relation_where_above_join(self, catalog):
        spec = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Plan"}),
            Predicate([Comparison.attr_vs_attr("Plan", "!=", "HealthAid")]),
        )
        plan = build_plan(catalog, spec)
        selections = [
            n for n in plan if isinstance(n, UnaryNode) and n.operator == "select"
        ]
        assert len(selections) == 1
        assert isinstance(selections[0].left, JoinNode)

    def test_intermediate_projection_optional(self, catalog):
        spec = QuerySpec(
            ["Insurance", "Nat_registry", "Hospital"],
            [JoinPath.of(("Holder", "Citizen")), JoinPath.of(("Citizen", "Patient"))],
            frozenset({"Plan", "Physician"}),
        )
        default = build_plan(catalog, spec)
        minimized = build_plan(catalog, spec, project_intermediate=True)
        default_projections = sum(
            1 for n in default if isinstance(n, UnaryNode) and n.operator == "project"
        )
        minimized_projections = sum(
            1 for n in minimized if isinstance(n, UnaryNode) and n.operator == "project"
        )
        assert minimized_projections > default_projections

    def test_unknown_select_attribute(self, catalog):
        spec = QuerySpec(["Insurance"], [], frozenset({"Nope"}))
        with pytest.raises(UnknownAttributeError):
            build_plan(catalog, spec)

    def test_unknown_where_attribute(self, catalog):
        spec = QuerySpec(
            ["Insurance"],
            [],
            frozenset({"Plan"}),
            Predicate([Comparison("Nope", "=", 1)]),
        )
        with pytest.raises(UnknownAttributeError):
            build_plan(catalog, spec)

    def test_disconnected_join_step_rejected(self, catalog):
        spec = QuerySpec(
            ["Insurance", "Disease_list"],
            [JoinPath.of(("Illness", "Treatment"))],
            frozenset({"Plan"}),
        )
        with pytest.raises(PlanError):
            build_plan(catalog, spec)

    def test_leaf_selection_attribute_projected_away(self, catalog):
        # Disease is used only in the WHERE; after the leaf selection it
        # is projected out before joining.
        spec = QuerySpec(
            ["Hospital", "Nat_registry"],
            [JoinPath.of(("Patient", "Citizen"))],
            frozenset({"Physician", "HealthAid"}),
            Predicate([Comparison("Disease", "=", "d01")]),
        )
        plan = build_plan(catalog, spec)
        join = next(n for n in plan if isinstance(n, JoinNode))
        assert "Disease" not in join.schema
