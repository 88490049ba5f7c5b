"""Unit tests for the chase-based policy closure (Section 3.2)."""

import time

import pytest

from repro.algebra.joins import JoinCondition, JoinPath
from repro.algebra.schema import Catalog, RelationSchema
from repro.core.authorization import Authorization, Policy
from repro.core.closure import (
    close_policy,
    derive_joined_authorizations,
    extend_closure,
    minimize_policy,
)
from repro.core.profile import RelationProfile
from repro.distributed.system import DistributedSystem
from repro.exceptions import PolicyError
from repro.obs import TraceContext
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig
from tests.test_plancache_diff import reference_close


class TestDeriveJoined:
    def test_basic_derivation(self):
        first = Authorization({"a", "b"}, None, "S")
        second = Authorization({"c", "d"}, None, "S")
        edge = JoinCondition("a", "c")
        derived = derive_joined_authorizations(first, second, [edge])
        assert derived == [
            Authorization({"a", "b", "c", "d"}, JoinPath((edge,)), "S")
        ]

    def test_requires_same_server(self):
        first = Authorization({"a"}, None, "S1")
        second = Authorization({"c"}, None, "S2")
        assert derive_joined_authorizations(first, second, [JoinCondition("a", "c")]) == []

    def test_requires_bridging_edge(self):
        first = Authorization({"a"}, None, "S")
        second = Authorization({"c"}, None, "S")
        assert derive_joined_authorizations(first, second, [JoinCondition("a", "x")]) == []

    def test_edge_endpoints_may_swap(self):
        first = Authorization({"c"}, None, "S")
        second = Authorization({"a"}, None, "S")
        derived = derive_joined_authorizations(first, second, [JoinCondition("a", "c")])
        assert len(derived) == 1

    def test_paths_union(self):
        first = Authorization({"a", "b"}, JoinPath.of(("b", "z")), "S")
        second = Authorization({"c"}, None, "S")
        derived = derive_joined_authorizations(first, second, [JoinCondition("a", "c")])
        assert derived[0].join_path == JoinPath.of(("b", "z"), ("a", "c"))


class TestClosePolicy:
    def test_section32_example(self):
        """S_D holding both Disease_list and Hospital derives the join."""
        catalog = medical_catalog()
        policy = medical_policy().copy()
        policy.add(Authorization({"Patient", "Disease", "Physician"}, None, "S_D"))
        closed = close_policy(policy, catalog)
        joined = RelationProfile(
            {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
        )
        assert not policy.can_view(joined, "S_D")
        assert closed.can_view(joined, "S_D")

    def test_closure_is_sound_no_foreign_servers_gain(self):
        """Closure never grants anything to a server with no rules."""
        catalog = medical_catalog()
        closed = close_policy(medical_policy(), catalog)
        assert closed.rules_for("S_X") == ()

    def test_original_rules_preserved(self):
        catalog = medical_catalog()
        policy = medical_policy()
        closed = close_policy(policy, catalog)
        for rule in policy:
            assert rule in closed

    def test_input_policy_untouched(self):
        catalog = medical_catalog()
        policy = medical_policy()
        close_policy(policy, catalog)
        assert len(policy) == 15

    def test_fixpoint_idempotent(self):
        catalog = medical_catalog()
        closed = close_policy(medical_policy(), catalog)
        again = close_policy(closed, catalog)
        assert len(again) == len(closed)

    def test_transitive_derivation(self):
        """Three independently granted relations chain into one view."""
        catalog = Catalog()
        catalog.add_relation(RelationSchema("A", ["a1", "a2"], server="S1"))
        catalog.add_relation(RelationSchema("B", ["b1", "b2"], server="S2"))
        catalog.add_relation(RelationSchema("C", ["c1"], server="S3"))
        catalog.add_join_edge("a2", "b1")
        catalog.add_join_edge("b2", "c1")
        policy = Policy(
            [
                Authorization({"a1", "a2"}, None, "S9"),
                Authorization({"b1", "b2"}, None, "S9"),
                Authorization({"c1"}, None, "S9"),
            ]
        )
        closed = close_policy(policy, catalog)
        full = RelationProfile(
            {"a1", "a2", "b1", "b2", "c1"},
            JoinPath.of(("a2", "b1"), ("b2", "c1")),
        )
        assert closed.can_view(full, "S9")

    def test_max_rules_guard(self):
        catalog = medical_catalog()
        policy = medical_policy().copy()
        policy.add(Authorization({"Patient", "Disease", "Physician"}, None, "S_N"))
        with pytest.raises(PolicyError):
            close_policy(policy, catalog, max_rules=16)

    def test_closure_growth_on_medical_policy(self):
        catalog = medical_catalog()
        closed = close_policy(medical_policy(), catalog)
        assert len(closed) > 15


class TestMinimizePolicy:
    def test_drops_dominated_rule(self):
        policy = Policy(
            [
                Authorization({"a", "b"}, None, "S"),
                Authorization({"a"}, None, "S"),
            ]
        )
        minimized = minimize_policy(policy)
        assert len(minimized) == 1
        assert Authorization({"a", "b"}, None, "S") in minimized

    def test_different_paths_kept(self):
        policy = Policy(
            [
                Authorization({"a"}, None, "S"),
                Authorization({"a"}, JoinPath.of(("a", "b")), "S"),
            ]
        )
        assert len(minimize_policy(policy)) == 2

    def test_different_servers_kept(self):
        policy = Policy(
            [
                Authorization({"a", "b"}, None, "S1"),
                Authorization({"a"}, None, "S2"),
            ]
        )
        assert len(minimize_policy(policy)) == 2

    def test_minimization_preserves_can_view(self):
        catalog = medical_catalog()
        closed = close_policy(medical_policy(), catalog)
        minimized = minimize_policy(closed)
        assert len(minimized) <= len(closed)
        # Spot-check several profiles across all servers.
        probes = [
            RelationProfile({"Holder", "Plan"}),
            RelationProfile({"Illness", "Treatment"}),
            RelationProfile({"Patient"}, JoinPath.of(("Citizen", "Patient"))),
            RelationProfile(
                {"Holder", "Plan", "Citizen", "HealthAid"},
                JoinPath.of(("Citizen", "Holder")),
            ),
        ]
        for profile in probes:
            for server in ("S_I", "S_H", "S_N", "S_D"):
                assert closed.can_view(profile, server) == minimized.can_view(
                    profile, server
                )


# ----------------------------------------------------------------------
# The integer chase: inputs the rewrite must not lose
# ----------------------------------------------------------------------


def _assert_same_closure(closed, expected):
    """Same rules, same iteration order, same rule ids."""
    assert [(rule, closed.rule_id(rule)) for rule in closed] == [
        (rule, expected.rule_id(rule)) for rule in expected
    ]


class TestChaseInputs:
    def test_granted_condition_need_not_be_a_declared_edge(self):
        """``Catalog.validate_join_path`` checks attributes only, so a
        rule may carry ``b = f`` although no such edge is declared; the
        chase must carry that condition into every rule it derives."""
        catalog = quick_catalog(
            "R(a, b) @ S1",
            "T(c, d) @ S2",
            "U(e, f) @ S3",
            edges=["a = c", "d = e"],
        )
        undeclared = JoinCondition("b", "f")
        assert not catalog.is_join_edge(undeclared)
        policy = Policy(
            [
                grant("S9", "a b e f", "b = f"),
                grant("S9", "c d"),
                grant("S9", "a b"),
                grant("S8", "c d e f", "d = e"),
            ]
        )
        policy.validate_against(catalog)
        closed = close_policy(policy, catalog)
        expected, _, _ = reference_close(policy, catalog)
        _assert_same_closure(closed, expected)
        carried = [
            rule
            for rule in closed.rules_for("S9")
            if undeclared in rule.join_path and len(rule.join_path) > 1
        ]
        assert carried, "no derived rule kept the undeclared condition"

    def test_extend_closure_on_a_private_universe(self):
        """A closed policy need not live in ``catalog.universe``: a
        ``Policy()`` interns attributes in its own first-seen order, so
        its bit positions differ from the catalog's."""
        catalog = medical_catalog()
        arriving = Authorization({"Patient", "Disease", "Physician"}, None, "S_D")
        private = Policy(reversed(list(close_policy(medical_policy(), catalog))))
        assert private.universe is not catalog.universe
        added = extend_closure(private, [arriving], catalog)
        granted = medical_policy().copy()
        granted.add(arriving)
        expected = close_policy(granted, catalog)
        assert set(private) == set(expected)
        assert added == len(expected) - len(close_policy(medical_policy(), catalog))

    def test_edge_over_attributes_nobody_was_granted(self):
        """An edge whose endpoints the policy's own universe has never
        seen bridges nothing (and must not be looked up in it)."""
        catalog = quick_catalog(
            "R(a, b) @ S1", "T(c, d) @ S2", "U(e, f) @ S3", edges=["a = c", "d = e"]
        )
        closed = Policy([grant("S9", "a b")])
        assert extend_closure(closed, [grant("S9", "c d")], catalog) == 2
        assert grant("S9", "a b c d", "a = c") in closed
        assert "e" not in closed.universe

    def test_twelve_server_policy_closes_within_bound(self):
        """Federation scale: 85 explicit rules over 12 servers close to
        1 001.  The bound is generous (about 0.6 s here; the object-level
        chase took about 16 s) so that a chase which falls back to
        building an ``Authorization`` per derivation fails loudly."""
        workload = SyntheticWorkload(0, WorkloadConfig(servers=12, relations=12))
        started = time.perf_counter()
        closed = close_policy(workload.policy, workload.catalog, max_rules=100_000)
        elapsed = time.perf_counter() - started
        assert (len(workload.policy), len(closed)) == (85, 1001)
        assert elapsed < 5.0, f"12-server close took {elapsed:.1f} s"


# ----------------------------------------------------------------------
# Revocation in place: rule ids are stable across policy churn
# ----------------------------------------------------------------------

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


class TestRuleIdsSurviveRevocation:
    """A revoke used to rebuild the whole closed ``Policy``, restarting
    every ``rule_id`` from 1, so the ``auth_id`` stamped on transfer
    spans before and after a revocation named different rules."""

    REVOKED = Authorization({"Citizen", "HealthAid"}, None, "S_N")

    def test_untouched_servers_keep_their_ids_across_revoke_and_grant(self):
        system = DistributedSystem(medical_catalog(), medical_policy())
        policy = system.policy
        before = {rule: policy.rule_id(rule) for rule in policy}
        system.revoke_authorization(self.REVOKED)
        after_revoke = {rule: policy.rule_id(rule) for rule in policy}
        system.add_authorization(self.REVOKED)
        assert system.policy is policy
        assert set(policy) == set(before)
        for rule, rule_id in before.items():
            if rule.server != "S_N":
                assert after_revoke[rule] == policy.rule_id(rule) == rule_id
        # The grantee's partition was re-derived under fresh ids; an id
        # that named a rule once never names another.
        retired = {i for rule, i in before.items() if rule.server == "S_N"}
        reissued = {policy.rule_id(rule) for rule in policy.rules_for("S_N")}
        reissued |= {i for rule, i in after_revoke.items() if rule.server == "S_N"}
        assert not retired & reissued
        assert min(reissued) > max(before.values())

    def test_traced_system_under_churn_cites_rules_present_at_ship_time(self):
        trace = TraceContext()
        system = DistributedSystem(medical_catalog(), medical_policy(), trace=trace)
        system.load_instances(generate_instances(seed=7))
        policy = system.policy

        def ship():
            """Run the query; ``receiver -> auth_id`` of its transfers,
            each checked against the policy in force right now."""
            seen = len(trace.spans_named("transfer"))
            system.execute(MEDICAL_QUERY)
            current = {policy.rule_id(rule): rule for rule in policy}
            cited = {}
            for span in trace.spans_named("transfer")[seen:]:
                rule = current[span.attrs["auth_id"]]
                assert rule.server == span.attrs["receiver"]
                cited.setdefault(span.attrs["receiver"], []).append(
                    span.attrs["auth_id"]
                )
            return cited

        first = ship()
        system.revoke_authorization(self.REVOKED)
        second = ship()
        system.add_authorization(self.REVOKED)
        third = ship()
        # The hop into S_H is covered by the same rule under the same id
        # throughout; S_N's covering rules were re-derived, so the spans
        # cite their new ids, never the retired ones.
        assert first["S_H"] == second["S_H"] == third["S_H"]
        assert not set(first["S_N"]) & set(second["S_N"])
        assert second["S_N"] == third["S_N"]
