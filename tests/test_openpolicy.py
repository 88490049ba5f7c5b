"""Unit tests for the open-policy variant (footnote 1)."""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.schema import Catalog, RelationSchema
from repro.core.openpolicy import Denial, OpenPolicy
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.core.safety import verify_assignment
from repro.exceptions import PolicyError


@pytest.fixture()
def open_policy():
    return OpenPolicy(
        [
            # S_I must never see Disease, in any context.
            Denial({"Disease"}, None, "S_I"),
            # S_N must not see the Insurance-Hospital association of
            # Plan (but may see Plan alone).
            Denial({"Plan"}, JoinPath.of(("Holder", "Patient")), "S_N"),
        ]
    )


class TestDenialSemantics:
    def test_default_allow(self, open_policy):
        assert open_policy.can_view(RelationProfile({"Holder", "Plan"}), "S_I")
        assert open_policy.can_view(RelationProfile({"Anything"}), "S_X")

    def test_attribute_denial_blocks_any_context(self, open_policy):
        assert not open_policy.can_view(RelationProfile({"Disease"}), "S_I")
        joined = RelationProfile(
            {"Disease", "Plan"}, JoinPath.of(("Holder", "Patient"))
        )
        assert not open_policy.can_view(joined, "S_I")

    def test_denial_applies_to_selection_attributes(self, open_policy):
        profile = RelationProfile({"Patient", "Disease"}).select({"Disease"}).project(
            {"Patient"}
        )
        assert not open_policy.can_view(profile, "S_I")

    def test_association_denial_blocks_exact_path(self, open_policy):
        blocked = RelationProfile({"Plan"}, JoinPath.of(("Holder", "Patient")))
        assert not open_policy.can_view(blocked, "S_N")

    def test_association_denial_blocks_refinements(self, open_policy):
        """Containment: adding conditions cannot launder the denial."""
        refined = RelationProfile(
            {"Plan"},
            JoinPath.of(("Holder", "Patient"), ("Patient", "Citizen")),
        )
        assert not open_policy.can_view(refined, "S_N")

    def test_association_denial_allows_other_paths(self, open_policy):
        assert open_policy.can_view(RelationProfile({"Plan"}), "S_N")
        other = RelationProfile({"Plan"}, JoinPath.of(("Holder", "Citizen")))
        assert open_policy.can_view(other, "S_N")

    def test_denial_requires_attribute_overlap(self, open_policy):
        unrelated = RelationProfile(
            {"HealthAid"}, JoinPath.of(("Holder", "Patient"))
        )
        assert open_policy.can_view(unrelated, "S_N")

    def test_blocking_denials_reported(self, open_policy):
        blocked = RelationProfile({"Disease"}, None)
        denials = open_policy.blocking_denials(blocked, "S_I")
        assert len(denials) == 1


class TestOpenPolicyContainer:
    def test_duplicate_denial_rejected(self, open_policy):
        with pytest.raises(PolicyError):
            open_policy.deny(Denial({"Disease"}, None, "S_I"))

    def test_only_denials_accepted(self):
        from repro.core.authorization import Authorization

        with pytest.raises(PolicyError):
            OpenPolicy().deny(Authorization({"a"}, None, "S"))  # type: ignore[arg-type]

    def test_servers_and_len(self, open_policy):
        assert open_policy.servers() == ["S_I", "S_N"]
        assert len(open_policy) == 2

    def test_describe_uses_negative_arrow(self, open_policy):
        assert "-x->" in open_policy.describe()


class TestIntegrationWithPlanner:
    def test_can_view_duck_typing(self, open_policy):
        assert open_policy.can_view(RelationProfile({"Plan"}), "S_I")
        assert not open_policy.can_view(RelationProfile({"Disease"}), "S_I")

    def test_planner_under_open_policy(self):
        """An open policy with one denial steers the join placement."""
        catalog = Catalog()
        catalog.add_relation(RelationSchema("R", ["a", "b"], server="S1"))
        catalog.add_relation(RelationSchema("T", ["c", "d"], server="S2"))
        catalog.add_join_edge("a", "c")
        spec = QuerySpec(
            ["R", "T"], [JoinPath.of(("a", "c"))], frozenset({"a", "b", "c", "d"})
        )
        plan = build_plan(catalog, spec)
        # S1 must not see d: the regular join at S1 is blocked, so the
        # planner must put the join at S2 (which may see everything).
        policy = OpenPolicy([Denial({"d"}, None, "S1")])
        assignment, _ = SafePlanner(policy).plan(plan)
        join = plan.joins()[0]
        assert assignment.master(join.node_id) == "S2"
        verify_assignment(policy, assignment)

    def test_verifier_under_open_policy(self, catalog, plan):
        """The paper example under a permissive open policy is safe and
        under a Physician-denial for S_N it stays safe (S_N never sees
        Physician in the planned strategy)."""
        policy = OpenPolicy([Denial({"Physician"}, None, "S_N")])
        assignment, _ = SafePlanner(policy).plan(plan)
        verify_assignment(policy, assignment)
