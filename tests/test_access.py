"""Unit tests for the authorized-view check (Definition 3.3) and the
``can_view(profile, server)`` protocol every policy answers."""

import pytest

from repro.algebra.joins import JoinPath
from repro.core.access import (
    authorization_covers,
    covering_authorizations,
    explain_denial,
    first_covering_authorization,
)
from repro.core.authorization import Authorization, Policy
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.core.safety import enumerate_assignment_flows, verify_assignment
from repro.engine.audit import AuditLog
from repro.workloads.medical import authorization, medical_policy


class TestAuthorizationCovers:
    def test_exact_match(self):
        rule = Authorization({"Holder", "Plan"}, None, "S_I")
        profile = RelationProfile({"Holder", "Plan"})
        assert authorization_covers(rule, profile)

    def test_subset_attributes_covered(self):
        """Definition 3.3 clause 1 uses ⊆: a superset grant covers."""
        rule = Authorization({"Holder", "Plan"}, None, "S_I")
        assert authorization_covers(rule, RelationProfile({"Plan"}))

    def test_superset_attributes_not_covered(self):
        rule = Authorization({"Plan"}, None, "S_I")
        assert not authorization_covers(rule, RelationProfile({"Holder", "Plan"}))

    def test_selection_attributes_count(self):
        """R^sigma attributes must be granted too."""
        rule = Authorization({"Plan"}, None, "S_I")
        profile = RelationProfile({"Plan"}).select({"Plan"})
        assert authorization_covers(rule, profile)
        hidden_selection = RelationProfile({"Plan", "Holder"}).select({"Holder"}).project({"Plan"})
        assert not authorization_covers(rule, hidden_selection)

    def test_join_path_equality_required(self):
        """Clause 2 is equality, not containment, in either direction."""
        rule = Authorization(
            {"Holder", "Plan"}, JoinPath.of(("Holder", "Patient")), "S_H"
        )
        same = RelationProfile({"Plan"}, JoinPath.of(("Patient", "Holder")))
        assert authorization_covers(rule, same)
        empty = RelationProfile({"Plan"})
        assert not authorization_covers(rule, empty)
        longer = RelationProfile(
            {"Plan"}, JoinPath.of(("Holder", "Patient"), ("Patient", "Citizen"))
        )
        assert not authorization_covers(rule, longer)


class TestCanView:
    def test_own_relation_rule(self, policy):
        profile = RelationProfile({"Holder", "Plan"})
        assert policy.can_view(profile, "S_I")
        assert policy.can_view(profile, "S_N")  # rule 9
        assert not policy.can_view(profile, "S_D")

    def test_disease_list_counterexample(self, policy):
        """Section 3.2: S_D cannot view Disease_list joined with Hospital.

        The profile [{Illness, Treatment}, {(Illness, Disease)}, {}] is
        not covered by rule 15 (empty join path) — a join-filtered subset
        of its own relation leaks which illnesses occur in Hospital.
        """
        profile = RelationProfile(
            {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
        )
        assert not policy.can_view(profile, "S_D")
        # The unfiltered relation itself, of course, is fine.
        assert policy.can_view(RelationProfile({"Illness", "Treatment"}), "S_D")

    def test_rule7_covers_full_example_join(self, policy):
        """The master view of the Example 5.1 top join is covered for
        S_H by rule 7."""
        profile = RelationProfile(
            {"Holder", "Plan", "Citizen", "HealthAid", "Patient"},
            JoinPath.of(("Holder", "Citizen"), ("Citizen", "Patient")),
        )
        assert policy.can_view(profile, "S_H")
        # Without Physician, rule 14 covers the same view for S_N too.
        assert policy.can_view(profile, "S_N")

    def test_rule14_lacks_physician(self, policy):
        profile = RelationProfile(
            {"Holder", "Plan", "Citizen", "HealthAid", "Patient", "Physician"},
            JoinPath.of(("Holder", "Citizen"), ("Citizen", "Patient")),
        )
        assert not policy.can_view(profile, "S_N")

    def test_unknown_server_sees_nothing(self, policy):
        assert not policy.can_view(RelationProfile({"Plan"}), "S_X")

    def test_any_object_answering_can_view_is_a_policy(self, policy, plan):
        """The planner, the verifier and the audit take any object with
        ``can_view(profile, server)`` and give it the closed policy's
        answers."""

        class CanViewOnly:
            def __init__(self):
                self.probes = 0

            def can_view(self, profile, server):
                self.probes += 1
                return policy.can_view(profile, server)

        only = CanViewOnly()
        assignment, _ = SafePlanner(only).plan(plan)
        assert assignment.describe() == SafePlanner(policy).plan(plan)[0].describe()
        planned = only.probes
        assert planned > 0
        verify_assignment(only, assignment)
        assert only.probes > planned
        audit, closed = AuditLog(only), AuditLog(policy)
        releases = [
            (flow.sender, flow.receiver, flow.profile)
            for flow in enumerate_assignment_flows(assignment)
        ]
        releases.append(("S_I", "S_X", RelationProfile({"Plan"})))
        for release in releases:
            allowed, rule = audit.authorize(*release)
            assert allowed == closed.authorize(*release)[0]
            assert rule is None
        assert not audit.authorize(*releases[-1])[0]


class TestCoveringAuthorizations:
    def test_all_covering_rules_returned(self, policy):
        profile = RelationProfile({"Holder", "Plan"})
        covering = covering_authorizations(policy, profile, "S_I")
        # Rules 1 covers; rules 2 and 3 have non-empty join paths.
        assert covering == [authorization(1)]

    def test_first_covering_in_policy_order(self, policy):
        profile = RelationProfile({"Holder"})
        assert first_covering_authorization(policy, profile, "S_I") == authorization(1)

    def test_first_covering_none(self, policy):
        assert first_covering_authorization(policy, RelationProfile({"Illness"}), "S_I") is None


class TestExplainDenial:
    def test_empty_when_granted(self, policy):
        assert explain_denial(policy, RelationProfile({"Plan"}), "S_I") == ""

    def test_mentions_missing_attributes(self, policy):
        text = explain_denial(policy, RelationProfile({"Illness"}), "S_I")
        assert "Illness" in text and "S_I" in text

    def test_mentions_join_path_mismatch(self, policy):
        profile = RelationProfile(
            {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
        )
        text = explain_denial(policy, profile, "S_D")
        assert "join path mismatch" in text

    def test_no_rules_at_all(self, policy):
        text = explain_denial(policy, RelationProfile({"Plan"}), "S_X")
        assert "no authorizations" in text
