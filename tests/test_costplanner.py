"""Unit tests for the cheapest safe plan search (two-step optimization)."""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.schema import Catalog, RelationSchema
from repro.baselines.exhaustive import cheapest_safe_plan, optimal_safe_assignment
from repro.core.authorization import Authorization, Policy
from repro.core.planner import SafePlanner
from repro.core.safety import verify_assignment
from repro.engine.coster import TableStats, estimate_assignment_cost
from repro.exceptions import InfeasiblePlanError
from repro.workloads.medical import example_query_spec


@pytest.fixture()
def stats():
    return {
        "Insurance": TableStats(100, {"Holder": 100, "Plan": 4}),
        "Nat_registry": TableStats(500, {"Citizen": 500, "HealthAid": 3}),
        "Hospital": TableStats(60, {"Patient": 50, "Disease": 12, "Physician": 8}),
        "Disease_list": TableStats(12, {"Illness": 12, "Treatment": 12}),
    }


def figure6_per_order(policy, catalog, spec, stats):
    """Figure 6 on every connected left-deep order, priced: the cheapest
    ``(assignment, cost)``, the earlier order on ties."""
    planner = SafePlanner(policy)
    best = None
    for candidate in enumerate_join_orders(catalog, spec):
        try:
            assignment, _ = planner.plan(build_plan(catalog, candidate))
        except InfeasiblePlanError:
            continue
        cost = estimate_assignment_cost(assignment, stats)
        if best is None or cost < best[1]:
            best = (assignment, cost)
    return best


class TestPlanning:
    def test_paper_query_exhaustive(self, catalog, policy, stats):
        tree, assignment, cost = cheapest_safe_plan(
            policy, catalog, example_query_spec(), stats
        )
        verify_assignment(policy, assignment)
        assert assignment.plan is tree
        assert cost == estimate_assignment_cost(assignment, stats)

    def test_exhaustive_never_worse_than_heuristic(self, catalog, policy, stats):
        _, heuristic_cost = figure6_per_order(
            policy, catalog, example_query_spec(), stats
        )
        _, _, exhaustive_cost = cheapest_safe_plan(
            policy, catalog, example_query_spec(), stats
        )
        assert exhaustive_cost <= heuristic_cost + 1e-9

    def test_cost_aware_never_worse_than_plain_planner(self, catalog, policy, stats):
        spec = example_query_spec()
        plain, _ = SafePlanner(policy).plan(build_plan(catalog, spec))
        plain_cost = estimate_assignment_cost(plain, stats)
        _, _, aware_cost = cheapest_safe_plan(policy, catalog, spec, stats)
        assert aware_cost <= plain_cost + 1e-9

    def test_order_search_rescues_infeasible_order(self, stats):
        catalog = Catalog()
        catalog.add_relation(RelationSchema("A", ["a1", "a2"], server="S1"))
        catalog.add_relation(RelationSchema("B", ["b1", "b2"], server="S2"))
        catalog.add_relation(RelationSchema("C", ["c1", "c2"], server="S3"))
        catalog.add_join_edge("a2", "b1")
        catalog.add_join_edge("b2", "c1")
        catalog.add_join_edge("a1", "c2")
        policy = Policy(
            [
                Authorization({"a1", "a2"}, None, "S2"),
                Authorization(
                    {"a1", "a2", "b1", "b2"}, JoinPath.of(("a2", "b1")), "S3"
                ),
            ]
        )
        bad_order = QuerySpec(
            ["A", "C", "B"],
            [JoinPath.of(("a1", "c2")), JoinPath.of(("a2", "b1"))],
            frozenset({"a1", "b1", "c1"}),
        )
        local_stats = {
            name: TableStats(10, {a: 10 for a in catalog.relation(name).attributes})
            for name in catalog.relation_names()
        }
        # The user's order alone admits no safe assignment ...
        pinned = build_plan(catalog, bad_order)
        assert optimal_safe_assignment(policy, pinned, local_stats) is None
        # ... but another connected order does.
        tree, assignment, _ = cheapest_safe_plan(policy, catalog, bad_order, local_stats)
        verify_assignment(policy, assignment)
        assert tree.root.schema >= bad_order.select
        assert [leaf.relation.name for leaf in tree.leaves()] != list(bad_order.relations)

    def test_infeasible_everywhere(self, catalog, stats):
        with pytest.raises(InfeasiblePlanError, match="no connected left-deep join order"):
            cheapest_safe_plan(Policy(), catalog, example_query_spec(), stats)
