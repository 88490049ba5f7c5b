"""Bushy (balanced) query trees through the whole stack.

The paper's algorithm is defined on arbitrary binary trees; these tests
exercise the planner, verifier and executor on non-left-deep shapes.
"""

import pytest

from repro.algebra.builder import QuerySpec, build_bushy_plan, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import Catalog, RelationSchema
from repro.algebra.tree import JoinNode, LeafNode, UnaryNode
from repro.core.authorization import Authorization, Policy
from repro.core.planner import SafePlanner
from repro.core.safety import verify_assignment
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
from repro.exceptions import PlanError


def chain_catalog(n=4):
    catalog = Catalog()
    for i in range(n):
        catalog.add_relation(
            RelationSchema(f"R{i}", [f"R{i}_a", f"R{i}_b"], server=f"S{i}")
        )
    for i in range(n - 1):
        catalog.add_join_edge(f"R{i}_b", f"R{i + 1}_a")
    return catalog


def chain_spec(n=4, where=None):
    return QuerySpec(
        [f"R{i}" for i in range(n)],
        [JoinPath.of((f"R{i}_b", f"R{i + 1}_a")) for i in range(n - 1)],
        frozenset({f"R{i}_a" for i in range(n)}),
        where,
    )


def _leaves(node):
    if isinstance(node, LeafNode):
        return [node.relation.name]
    return [name for child in (node.left, node.right) if child for name in _leaves(child)]


def chain_tables(n=4, rows=12):
    tables = {}
    for i in range(n):
        tables[f"R{i}"] = Table(
            [f"R{i}_a", f"R{i}_b"],
            [(f"v{j % 5}", f"v{(j + i) % 5}") for j in range(rows)],
        )
    return tables


class TestBushyConstruction:
    def test_four_relation_chain_is_balanced(self):
        catalog = chain_catalog(4)
        plan = build_bushy_plan(catalog, chain_spec(4))
        root = plan.root
        top_join = root.left if isinstance(root, UnaryNode) else root
        assert isinstance(top_join, JoinNode)
        assert isinstance(top_join.left, JoinNode)
        assert isinstance(top_join.right, JoinNode)

    def test_bushy_equals_left_deep_semantics(self):
        catalog = chain_catalog(4)
        tables = chain_tables(4)
        for where in (
            None,
            Predicate([Comparison.attr_vs_attr("R0_a", "!=", "R1_a")]),
            Predicate(
                [
                    Comparison.attr_vs_attr("R0_a", "<=", "R3_a"),
                    Comparison.attr_vs_attr("R2_a", "!=", "R3_b"),
                    Comparison("R1_b", "!=", "v2"),
                ]
            ),
        ):
            spec = chain_spec(4, where)
            bushy = build_bushy_plan(catalog, spec)
            left_deep = build_plan(catalog, spec)
            assert evaluate_plan(bushy, tables) == evaluate_plan(left_deep, tables), where

    def test_cross_atoms_apply_above_the_lowest_covering_join(self):
        catalog = chain_catalog(4)
        spec = chain_spec(
            4,
            where=Predicate(
                [
                    Comparison.attr_vs_attr("R0_a", "!=", "R1_a"),
                    Comparison.attr_vs_attr("R2_a", "!=", "R3_b"),
                    Comparison.attr_vs_attr("R0_a", "<=", "R3_a"),
                ]
            ),
        )
        plan = build_bushy_plan(catalog, spec)
        placed = {
            str(node.predicate): sorted(_leaves(node))
            for node in plan
            if isinstance(node, UnaryNode) and node.operator == "select"
        }
        assert placed == {
            "R0_a!=R1_a": ["R0", "R1"],
            "R2_a!=R3_b": ["R2", "R3"],
            "R0_a<=R3_a": ["R0", "R1", "R2", "R3"],
        }
        for node in plan:
            if isinstance(node, UnaryNode) and node.operator == "select":
                assert isinstance(node.left, JoinNode)

    def test_star_schema_splits(self):
        """A star (fact joined to three dimensions) in FROM order fact
        first fails the naive half-split when a half has no bridge."""
        catalog = Catalog()
        catalog.add_relation(
            RelationSchema("F", ["F_k1", "F_k2", "F_k3"], server="S0")
        )
        for i in (1, 2, 3):
            catalog.add_relation(RelationSchema(f"D{i}", [f"D{i}_k"], server=f"S{i}"))
            catalog.add_join_edge(f"F_k{i}", f"D{i}_k")
        spec = QuerySpec(
            ["F", "D1", "D2", "D3"],
            [JoinPath.of((f"F_k{i}", f"D{i}_k")) for i in (1, 2, 3)],
            frozenset({"F_k1", "D2_k"}),
        )
        # Split [F, D1] | [D2, D3]: D2-D3 have no bridging condition.
        with pytest.raises(PlanError):
            build_bushy_plan(catalog, spec)

    def test_where_pushed_to_leaves(self):
        catalog = chain_catalog(4)
        spec = chain_spec(
            4, where=Predicate([Comparison("R0_a", "=", "v1")])
        )
        plan = build_bushy_plan(catalog, spec)
        selections = [
            n for n in plan if isinstance(n, UnaryNode) and n.operator == "select"
        ]
        assert len(selections) == 1
        assert isinstance(selections[0].left, LeafNode)

    def test_two_relations_degenerate(self):
        catalog = chain_catalog(2)
        plan = build_bushy_plan(catalog, chain_spec(2))
        assert len(plan.joins()) == 1

    def test_single_relation(self):
        catalog = chain_catalog(1)
        spec = QuerySpec(["R0"], [], frozenset({"R0_a"}))
        plan = build_bushy_plan(catalog, spec)
        assert len(plan.joins()) == 0


class TestBushyPlanning:
    @pytest.fixture()
    def setup(self):
        catalog = chain_catalog(4)
        spec = chain_spec(4)
        plan = build_bushy_plan(catalog, spec)
        # S0 can absorb everything on the left branch, S3 on the right,
        # and S0 the whole result.
        everything = {f"R{i}_{x}" for i in range(4) for x in ("a", "b")}
        policy = Policy(
            [
                Authorization({"R1_a", "R1_b"}, None, "S0"),
                Authorization({"R3_a", "R3_b"}, None, "S2"),
                Authorization(
                    frozenset({"R2_a", "R2_b", "R3_a", "R3_b"}),
                    JoinPath.of(("R2_b", "R3_a")),
                    "S0",
                ),
            ]
        )
        return catalog, plan, policy

    def test_planner_handles_bushy_shape(self, setup):
        catalog, plan, policy = setup
        assignment, _ = SafePlanner(policy).plan(plan)
        verify_assignment(policy, assignment)
        # Both subtrees were computed independently before the top join.
        top_join = plan.joins()[-1]
        assert assignment.master(top_join.node_id) == "S0"

    def test_bushy_execution_matches_oracle(self, setup):
        catalog, plan, policy = setup
        tables = chain_tables(4)
        assignment, _ = SafePlanner(policy).plan(plan)
        result = DistributedExecutor(assignment, tables, policy=policy).run()
        assert result.table == evaluate_plan(plan, tables)
        assert result.audit.all_authorized()

    def test_paper_example_bushy_shape_is_infeasible(self, catalog, policy):
        """Tree shape affects feasibility: the same medical query that
        Figure 7 plans safely in left-deep form has NO safe assignment
        in the bushy shape [Insurance] | [Nat_registry |x| Hospital] —
        the inner join can only be mastered by S_H (rules 6+10), and
        S_H holds no rule admitting Insurance at the top join's path.
        """
        from repro.exceptions import InfeasiblePlanError
        from repro.workloads.medical import example_query_spec

        spec = example_query_spec()
        left_deep = build_plan(catalog, spec)
        assert SafePlanner(policy).is_feasible(left_deep)
        bushy = build_bushy_plan(catalog, spec)
        with pytest.raises(InfeasiblePlanError):
            SafePlanner(policy).plan(bushy)
