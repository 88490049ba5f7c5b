"""Faithful reproduction of every worked example in the paper.

Node correspondence between the paper's Figure 2/7 numbering and our
post-order ids (paper -> ours): n_0 -> n6 (root pi), n_1 -> n5 (top
join), n_2 -> n2 (inner join), n_3 -> n4 (pi over Hospital),
n_4 -> n0 (Insurance), n_5 -> n1 (Nat_registry), n_6 -> n3 (Hospital).
"""

import pytest

from repro.algebra.joins import JoinPath
from repro.algebra.tree import JoinNode, LeafNode, UnaryNode
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.core.safety import verify_assignment
from repro.workloads.medical import (
    authorization,
    medical_catalog,
    medical_policy,
    paper_plan,
)

#: paper node name -> our post-order id.
PAPER_NODES = {
    "n_0": 6,
    "n_1": 5,
    "n_2": 2,
    "n_3": 4,
    "n_4": 0,
    "n_5": 1,
    "n_6": 3,
}


@pytest.fixture()
def planned(planner, plan):
    return planner.plan(plan)


class TestExample21:
    """Example 2.1: the insurance-plan-per-treatment join path."""

    def test_join_path_construction(self):
        path = JoinPath.of(("Holder", "Patient"), ("Disease", "Illness"))
        assert len(path) == 2
        assert path.attributes == frozenset(
            {"Holder", "Patient", "Disease", "Illness"}
        )

    def test_path_in_catalog_edges(self, catalog):
        path = JoinPath.of(("Holder", "Patient"), ("Disease", "Illness"))
        for condition in path:
            assert catalog.is_join_edge(condition)


class TestExample22Figure2:
    """Example 2.2 / Figure 2: the query and its minimized tree."""

    def test_tree_shape(self, plan):
        root = plan.node(PAPER_NODES["n_0"])
        assert isinstance(root, UnaryNode)
        assert root.projection_attributes == frozenset(
            {"Patient", "Physician", "Plan", "HealthAid"}
        )
        top_join = plan.node(PAPER_NODES["n_1"])
        assert isinstance(top_join, JoinNode)
        assert top_join.path == JoinPath.of(("Citizen", "Patient"))
        inner_join = plan.node(PAPER_NODES["n_2"])
        assert isinstance(inner_join, JoinNode)
        assert inner_join.path == JoinPath.of(("Holder", "Citizen"))
        hospital_projection = plan.node(PAPER_NODES["n_3"])
        assert isinstance(hospital_projection, UnaryNode)
        assert hospital_projection.projection_attributes == frozenset(
            {"Patient", "Physician"}
        )
        for name, relation in (("n_4", "Insurance"), ("n_5", "Nat_registry"), ("n_6", "Hospital")):
            leaf = plan.node(PAPER_NODES[name])
            assert isinstance(leaf, LeafNode)
            assert leaf.relation.name == relation

    def test_sql_round_trip(self, catalog, plan):
        from repro.sql import parse_query
        from repro.algebra.builder import build_plan

        sql = (
            "SELECT Patient, Physician, Plan, HealthAid "
            "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
            "JOIN Hospital ON Citizen = Patient"
        )
        assert build_plan(catalog, parse_query(sql, catalog)).render() == plan.render()


class TestSection31AuthorizationSemantics:
    """The prose claims of Section 3.1 about Figure 3's rules."""

    def test_rule3_connectivity_constraint(self, policy):
        """Rule 3 lets S_I see treatments of its holders without the
        illness: the view exposes Treatment but not Disease."""
        profile = RelationProfile(
            {"Holder", "Plan", "Treatment"},
            JoinPath.of(("Holder", "Patient"), ("Disease", "Illness")),
        )
        assert policy.can_view(profile, "S_I")
        with_disease = RelationProfile(
            {"Holder", "Plan", "Treatment", "Disease"},
            JoinPath.of(("Holder", "Patient"), ("Disease", "Illness")),
        )
        assert not policy.can_view(with_disease, "S_I")

    def test_rule5_instance_based_restriction(self, policy):
        """Rule 5 gives S_H plans only for its own patients."""
        restricted = RelationProfile(
            {"Holder", "Plan"}, JoinPath.of(("Patient", "Holder"))
        )
        assert policy.can_view(restricted, "S_H")
        unrestricted = RelationProfile({"Holder", "Plan"})
        assert not policy.can_view(unrestricted, "S_H")

    def test_rule2_implies_subset_release(self, policy):
        """An authorization covers any subset of its attributes with the
        same join path (the ⊆ of Definition 3.3)."""
        subset = RelationProfile(
            {"Physician"}, JoinPath.of(("Holder", "Patient"))
        )
        assert policy.can_view(subset, "S_I")


class TestSection32DiseaseListExample:
    """The join-path-equality counterexample of Section 3.2."""

    def test_sd_denied_its_own_filtered_relation(self, policy):
        profile = RelationProfile(
            {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
        )
        assert not policy.can_view(profile, "S_D")

    def test_closure_rescues_with_hospital_grant(self, catalog, policy):
        from repro.core.authorization import Authorization
        from repro.core.closure import close_policy

        extended = policy.copy()
        extended.add(
            Authorization({"Patient", "Disease", "Physician"}, None, "S_D")
        )
        closed = close_policy(extended, catalog)
        profile = RelationProfile(
            {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
        )
        assert closed.can_view(profile, "S_D")


class TestFigure7Trace:
    """The exact Find_candidates / Assign_ex trace of Figure 7."""

    def test_find_candidates_visit_order(self, planned):
        _, trace = planned
        # Paper order: n_4, n_5, n_2, n_6, n_3, n_1, n_0.
        expected = [PAPER_NODES[n] for n in ("n_4", "n_5", "n_2", "n_6", "n_3", "n_1", "n_0")]
        assert trace.find_order == expected

    @pytest.mark.parametrize(
        "paper_node,server,from_child,count",
        [
            ("n_4", "S_I", "-", 0),
            ("n_5", "S_N", "-", 0),
            ("n_2", "S_N", "right", 1),
            ("n_6", "S_H", "-", 0),
            ("n_3", "S_H", "left", 0),
            ("n_1", "S_H", "right", 1),
            ("n_0", "S_H", "left", 1),
        ],
    )
    def test_candidates_table(self, planned, paper_node, server, from_child, count):
        _, trace = planned
        decision = trace.decision(PAPER_NODES[paper_node])
        candidates = list(decision.candidates)
        assert len(candidates) == 1
        (candidate,) = candidates
        assert candidate.server == server
        assert candidate.from_child == from_child
        assert candidate.count == count

    def test_slave_recorded_at_n1(self, planned):
        _, trace = planned
        decision = trace.decision(PAPER_NODES["n_1"])
        assert decision.left_slave is not None
        assert decision.left_slave.server == "S_N"

    @pytest.mark.parametrize(
        "paper_node,executor",
        [
            ("n_0", "[S_H, NULL]"),
            ("n_1", "[S_H, S_N]"),
            ("n_2", "[S_N, NULL]"),
            ("n_3", "[S_H, NULL]"),
            ("n_4", "[S_I, NULL]"),
            ("n_5", "[S_N, NULL]"),
            ("n_6", "[S_H, NULL]"),
        ],
    )
    def test_executors_table(self, planned, paper_node, executor):
        assignment, _ = planned
        assert str(assignment.executor(PAPER_NODES[paper_node])) == executor

    def test_assign_ex_call_order(self, planned):
        """Figure 7's Calls column: n_0 pushes S_H to n_1; n_1 pushes S_N
        to n_2 and S_H to n_3; n_2 pushes NULL to n_4 and S_N to n_5;
        n_3 pushes S_H to n_6."""
        _, trace = planned
        expected = [
            (PAPER_NODES["n_0"], None),
            (PAPER_NODES["n_1"], "S_H"),
            (PAPER_NODES["n_2"], "S_N"),
            (PAPER_NODES["n_4"], None),
            (PAPER_NODES["n_5"], "S_N"),
            (PAPER_NODES["n_3"], "S_H"),
            (PAPER_NODES["n_6"], "S_H"),
        ]
        assert trace.assign_order == expected

    def test_assignment_safe_under_explicit_policy(self, planned, policy):
        assignment, _ = planned
        verify_assignment(policy, assignment)

    def test_example51_regular_join_at_n2(self, planned, plan):
        """Example 5.1: the inner join must run as a regular join at S_N
        (no candidate from the right child can serve as slave)."""
        assignment, trace = planned
        node_id = PAPER_NODES["n_2"]
        assert assignment.executor(node_id).slave is None
        assert trace.decision(node_id).left_slave is None

    def test_example51_semi_join_at_n1(self, planned):
        """Example 5.1: the top join runs as a semi-join [S_H, S_N]."""
        assignment, _ = planned
        executor = assignment.executor(PAPER_NODES["n_1"])
        assert executor.master == "S_H"
        assert executor.slave == "S_N"


class TestExample21Query:
    """The query Example 2.1's join path belongs to: 'the insurance
    plan of patients using a given treatment'."""

    def _spec(self):
        from repro.algebra.builder import QuerySpec

        return QuerySpec(
            ["Insurance", "Hospital", "Disease_list"],
            [
                JoinPath.of(("Holder", "Patient")),
                JoinPath.of(("Disease", "Illness")),
            ],
            frozenset({"Plan", "Treatment"}),
        )

    def test_query_profile_matches_example(self, catalog):
        from repro.algebra.builder import build_plan
        from repro.core.planner import SafePlanner
        from repro.workloads.medical import medical_policy

        plan = build_plan(catalog, self._spec())
        # Whatever its feasibility, the root profile carries exactly the
        # Example 2.1 join path.
        from repro.baselines.exhaustive import _profiles

        profiles = _profiles(plan)
        root_profile = profiles[plan.root.node_id]
        assert root_profile.join_path == JoinPath.of(
            ("Holder", "Patient"), ("Disease", "Illness")
        )

    def test_rule3_covers_the_result_for_si(self, policy, catalog):
        """Rule 3 was written for exactly this view: S_I may see the
        treatment of its holders through the Hospital linkage."""
        result_view = RelationProfile(
            {"Holder", "Plan", "Treatment"},
            JoinPath.of(("Holder", "Patient"), ("Disease", "Illness")),
        )
        assert policy.can_view(result_view, "S_I")

    def test_planning_and_repair(self, catalog, policy):
        """Under Figure 3 alone the plan is infeasible (no server can
        receive the intermediate views); the what-if tool finds grants
        that unlock it."""
        from repro.algebra.builder import build_plan
        from repro.analysis.whatif import suggest_repair
        from repro.core.planner import SafePlanner
        from repro.core.safety import verify_assignment
        from repro.exceptions import InfeasiblePlanError

        plan = build_plan(catalog, self._spec())
        planner = SafePlanner(policy)
        try:
            assignment, _ = planner.plan(plan)
            verify_assignment(policy, assignment)
        except InfeasiblePlanError:
            repair = suggest_repair(policy, plan)
            augmented = repair.augmented_policy(policy)
            assignment, _ = SafePlanner(augmented).plan(plan)
            verify_assignment(augmented, assignment)


class TestSection4SemiJoinNarrative:
    """Section 4's description of the n_2 example flows."""

    def test_regular_join_flow_options(self, catalog):
        """Regular join at node n_2: S_N ships Nat_registry to S_I, or
        S_I ships Insurance to S_N (the two regular modes)."""
        from repro.core.flows import REGULAR_LEFT, REGULAR_RIGHT, join_executions

        insurance = RelationProfile({"Holder", "Plan"})
        registry = RelationProfile({"Citizen", "HealthAid"})
        executions = {
            e.mode.tag: e
            for e in join_executions(
                insurance, registry, "S_I", "S_N", JoinPath.of(("Holder", "Citizen"))
            )
        }
        left = executions[REGULAR_LEFT].flows[0]
        assert (left.sender, left.receiver) == ("S_N", "S_I")
        right = executions[REGULAR_RIGHT].flows[0]
        assert (right.sender, right.receiver) == ("S_I", "S_N")

    def test_semi_join_probe_narrative(self):
        """'S_I sends to S_N the projection of Insurance on Holder; S_N
        then sends back Nat_registry joined with those values.'"""
        from repro.core.flows import SEMI_LEFT_MASTER, join_executions

        insurance = RelationProfile({"Holder", "Plan"})
        registry = RelationProfile({"Citizen", "HealthAid"})
        execution = {
            e.mode.tag: e
            for e in join_executions(
                insurance, registry, "S_I", "S_N", JoinPath.of(("Holder", "Citizen"))
            )
        }[SEMI_LEFT_MASTER]
        probe, back = execution.flows
        assert probe.profile == RelationProfile({"Holder"})
        assert back.profile.attributes == frozenset(
            {"Holder", "Citizen", "HealthAid"}
        )
