"""The policy-epoch plan cache (:mod:`repro.core.plancache`).

Unit coverage of the cache mechanics (LRU order, stats, fingerprints,
epoch bookkeeping) plus the end-to-end contracts the cache promises:

* a repeated query plans once and returns the very same cached objects;
* ``simulate_concurrent`` over N copies of one query plans once, and
  its result is byte-identical to a cache-off run;
* **security regression** — a revocation between two executions of the
  same query must fail revalidation and evict the entry: a stale cached
  plan never ships a transfer the current policy forbids, whether the
  query stays feasible (it replans around the revoked rule, audited
  clean) or becomes infeasible (it raises instead of running the stale
  plan).

The randomized differential counterpart (cached-vs-fresh plans and
incremental-vs-full closure under policy churn) lives in
``test_plancache_diff.py``.
"""

from __future__ import annotations

import pytest

from repro.core.access import first_covering_authorization
from repro.core.authorization import Policy
from repro.core.closure import close_policy, extend_closure
from repro.core.plancache import PLAN_CACHE_KEYS, PlanCache, fingerprint_tree
from repro.core.profile import RelationProfile
from repro.distributed.system import DistributedSystem
from repro.core.safety import verify_assignment
from repro.engine.executor import DistributedExecutor, JoinStep
from repro.exceptions import (
    AuditViolationError,
    InfeasiblePlanError,
    PolicyError,
    UnsafeAssignmentError,
)
from repro.obs import TraceContext
from repro.testing import grant, quick_catalog
from repro.workloads.coalition import (
    coalition_authorization,
    coalition_catalog,
    coalition_policy,
    generate_coalition_instances,
    inspection_query,
)
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

# A two-server toy: R at S1, T at S2, joinable on a = c.
JOIN_QUERY = "SELECT a, d FROM R JOIN T ON a = c"

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def _toy_catalog():
    return quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])


def _toy_instances():
    return {
        "R": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
        "T": [{"c": 1, "d": 9}, {"c": 3, "d": 8}],
    }


def _toy_system(*rules, **kwargs):
    system = DistributedSystem(_toy_catalog(), Policy(list(rules)), **kwargs)
    system.load_instances(_toy_instances())
    return system


def _medical_system(**kwargs):
    system = DistributedSystem(medical_catalog(), medical_policy(), **kwargs)
    system.load_instances(generate_instances(seed=7))
    return system


def _permissive_medical_system():
    """Every server may view every base relation (the chase derives the
    joined views), so any shape over the medical catalog is feasible."""
    catalog = medical_catalog()
    policy = Policy(
        [
            grant(server, " ".join(sorted(relation.attribute_set)))
            for server in ("S_I", "S_H", "S_N", "S_D")
            for relation in catalog.relations()
        ]
    )
    return DistributedSystem(catalog, policy)


# ---------------------------------------------------------------------------
# Policy epochs
# ---------------------------------------------------------------------------


class TestPolicyEpoch:
    def test_fresh_policy_starts_at_epoch_zero(self):
        assert Policy([]).epoch == 0

    def test_add_and_remove_both_bump_the_epoch(self):
        policy = Policy([])
        rule = grant("S1", "a b")
        policy.add(rule)
        assert policy.epoch == 1
        policy.remove(rule)
        assert policy.epoch == 2

    def test_remove_of_absent_rule_raises_and_leaves_epoch_alone(self):
        policy = Policy([grant("S1", "a b")])
        before = policy.epoch
        with pytest.raises(PolicyError):
            policy.remove(grant("S2", "a b"))
        assert policy.epoch == before

    def test_removed_rule_no_longer_grants(self):
        rule = grant("S2", "a b")
        policy = Policy([grant("S1", "a b"), rule])
        assert rule in set(policy)
        policy.remove(rule)
        assert rule not in set(policy)
        assert grant("S1", "a b") in set(policy)

    def test_rule_ids_are_never_reused_after_removal(self):
        first, second = grant("S1", "a b"), grant("S2", "c d")
        policy = Policy([])
        policy.add(first)
        first_id = policy.rule_id(first)
        policy.remove(first)
        policy.add(second)
        assert policy.rule_id(second) != first_id


# ---------------------------------------------------------------------------
# Incremental chase
# ---------------------------------------------------------------------------


class TestExtendClosure:
    def test_extending_with_present_rules_is_a_noop(self):
        catalog = _toy_catalog()
        closed = close_policy(Policy([grant("S1", "a b")]), catalog)
        rules = list(closed)
        assert extend_closure(closed, rules, catalog) == 0

    def test_incremental_add_matches_full_recompute(self):
        catalog = _toy_catalog()
        base = [grant("S1", "a b"), grant("S2", "c d")]
        new_rule = grant("S2", "a b")
        incremental = close_policy(Policy(base), catalog)
        added = extend_closure(incremental, [new_rule], catalog)
        assert added == 2  # the rule itself plus its derived join view
        full = close_policy(Policy(base + [new_rule]), catalog)
        assert set(incremental) == set(full)
        # The chase composed the two S2 views into the join view.
        assert grant("S2", "a b c d", "a = c") in set(incremental)

    def test_system_add_keeps_closure_and_bumps_epoch(self):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"))
        before = system.policy.epoch
        gained = system.add_authorization(grant("S2", "a b"))
        assert gained == 2  # the rule plus its derived join view
        assert system.policy.epoch > before
        full = close_policy(Policy(list(system.explicit_policy)), system.catalog)
        assert set(system.policy) == set(full)

    def test_system_revoke_recomputes_and_advances_epoch(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        before = system.policy.epoch
        system.revoke_authorization(grant("S2", "a b"))
        assert system.policy.epoch > before
        # The derived join view fell with the explicit rule it chased from.
        assert grant("S2", "a b c d", "a = c") not in set(system.policy)
        full = close_policy(Policy(list(system.explicit_policy)), system.catalog)
        assert set(system.policy) == set(full)


# ---------------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------------


class TestPlanCacheMechanics:
    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_lru_evicts_the_oldest_entry(self):
        cache = PlanCache(maxsize=2)
        policy = Policy([])
        for key in ("q1", "q2", "q3"):
            cache.store(key, policy, None, None, None)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup("q1", policy) is None  # evicted
        assert cache.lookup("q2", policy) is not None
        assert cache.lookup("q3", policy) is not None

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        policy = Policy([])
        cache.store("q1", policy, None, None, None)
        cache.store("q2", policy, None, None, None)
        assert cache.lookup("q1", policy) is not None  # q1 is now newest
        cache.store("q3", policy, None, None, None)  # evicts q2, not q1
        assert cache.lookup("q1", policy) is not None
        assert cache.lookup("q2", policy) is None

    def test_stats_count_hits_and_misses(self):
        cache = PlanCache()
        policy = Policy([])
        assert cache.lookup("q", policy) is None
        cache.store("q", policy, None, None, None)
        assert cache.lookup("q", policy) is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.revalidations == 0

    def test_clear_drops_entries_but_keeps_lifetime_stats(self):
        cache = PlanCache()
        policy = Policy([])
        cache.store("q", policy, None, None, None)
        cache.lookup("q", policy)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.lookup("q", policy) is None

    def test_snapshot_always_has_every_key(self):
        assert set(PlanCache().snapshot()) == set(PLAN_CACHE_KEYS)

    def test_lookup_feeds_counters_and_events(self):
        trace = TraceContext()
        cache = PlanCache()
        policy = Policy([])
        cache.lookup("q", policy, obs=trace)
        cache.store("q", policy, None, None, None)
        cache.lookup("q", policy, obs=trace)
        outcomes = [e.attrs["outcome"] for e in trace.events if e.name == "plan_cache"]
        assert outcomes == ["miss", "hit"]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_select_and_condition_order_do_not_split_the_cache(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        system.plan("SELECT a, d FROM R JOIN T ON a = c")
        system.plan("SELECT d, a FROM R JOIN T ON c = a")
        stats = system.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits == 1

    def test_different_projections_are_different_plans(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        system.plan("SELECT a, d FROM R JOIN T ON a = c")
        system.plan("SELECT a, b, d FROM R JOIN T ON a = c")
        assert system.plan_cache.stats.misses == 2
        assert len(system.plan_cache) == 2

    def test_spec_fingerprint_matches_equivalent_texts(self):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"))
        spec_a = system.parse("SELECT a, d FROM R JOIN T ON a = c")
        spec_b = system.parse("SELECT d, a FROM R JOIN T ON c = a")
        assert spec_a.fingerprint() == spec_b.fingerprint()

    def test_tree_fingerprint_is_stable_across_parses(self):
        # Fingerprint the bound tree of the same text twice.
        from repro.algebra.builder import build_plan

        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"))
        spec = system.parse(JOIN_QUERY)
        one = fingerprint_tree(build_plan(system.catalog, spec))
        two = fingerprint_tree(build_plan(system.catalog, spec))
        assert one == two


class TestParseMemo:
    def _counting_parse(self, monkeypatch):
        import repro.sql
        import repro.sql.binder

        calls = []
        real = repro.sql.parse

        def counting(text):
            calls.append(text)
            return real(text)

        # `parse_query` resolves `parse` in the binder module, the
        # system resolves it on the package: count both.
        monkeypatch.setattr(repro.sql, "parse", counting)
        monkeypatch.setattr(repro.sql.binder, "parse", counting)
        return calls

    def test_memo_miss_parses_left_deep_text_once(self, monkeypatch):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b"))
        calls = self._counting_parse(monkeypatch)
        system.plan(JOIN_QUERY)
        assert calls == [JOIN_QUERY]
        system.plan(JOIN_QUERY)
        assert calls == [JOIN_QUERY]

    def test_parse_serves_memoized_specs(self, monkeypatch):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b"))
        calls = self._counting_parse(monkeypatch)
        spec = system.parse(JOIN_QUERY)
        assert system.parse(JOIN_QUERY) is spec
        # plan() binds from the same memo entry parse() filled.
        system.plan(JOIN_QUERY)
        assert calls == [JOIN_QUERY]

    def test_memo_off_parses_every_time(self, monkeypatch):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"), plan_cache=False)
        calls = self._counting_parse(monkeypatch)
        assert system.parse(JOIN_QUERY) is not system.parse(JOIN_QUERY)
        assert calls == [JOIN_QUERY, JOIN_QUERY]

    def test_bushy_text_keeps_the_spec_binder_error(self):
        from repro.exceptions import BindingError

        bushy = (
            "SELECT Plan, Physician, HealthAid "
            "FROM Insurance JOIN (Nat_registry JOIN Hospital ON Citizen = Patient) "
            "ON Holder = Citizen"
        )
        system = _medical_system()
        with pytest.raises(BindingError, match="parenthesized"):
            system.parse(bushy)
        assert system._parsed(bushy)[0] == "tree"
        # Memoized as a tree, which parse() must not serve.
        with pytest.raises(BindingError, match="parenthesized"):
            system.parse(bushy)


# ---------------------------------------------------------------------------
# End-to-end reuse
# ---------------------------------------------------------------------------


class TestRepeatedQueries:
    def test_repeat_returns_the_same_cached_objects(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        tree1, assign1, trace1 = system.plan(JOIN_QUERY)
        tree2, assign2, trace2 = system.plan(JOIN_QUERY)
        assert tree2 is tree1
        assert assign2 is assign1
        assert trace2 is trace1

    def test_execution_results_agree_with_cache_off(self):
        on = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        off = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b"),
            plan_cache=False,
        )
        for _ in range(3):
            r_on = on.execute(JOIN_QUERY)
            r_off = off.execute(JOIN_QUERY)
            assert r_on.table.rows == r_off.table.rows
            assert r_on.summary() == r_off.summary()
        assert on.plan_cache.stats.hits == 2
        assert off.plan_cache is None

    def test_summary_dict_carries_cache_counters(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        system.execute(JOIN_QUERY)
        summary = system.execute(JOIN_QUERY).summary_dict()
        assert summary["plan_cache_enabled"] is True
        assert summary["plan_cache_hits"] == 1
        assert summary["plan_cache_misses"] == 1

    def test_grant_only_churn_revalidates_without_replanning(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        _, assign1, _ = system.plan(JOIN_QUERY)
        system.add_authorization(grant("S1", "c d"))  # widens only
        _, assign2, _ = system.plan(JOIN_QUERY)
        assert assign2 is assign1  # revalidated, not replanned
        stats = system.plan_cache.stats
        assert stats.revalidations == 1
        assert stats.revalidation_failures == 0

    def test_a_verdict_never_outlives_its_epoch(self):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"))
        with pytest.raises(InfeasiblePlanError):
            system.plan(JOIN_QUERY)
        # The verdict is the only entry; within its epoch it answers.
        assert len(system.plan_cache) == 1
        with pytest.raises(InfeasiblePlanError):
            system.plan(JOIN_QUERY)
        assert system.plan_cache.stats.negative_hits == 1
        # A grant unlocks the query on the very next request — a verdict
        # that survived the epoch would hide it.
        system.add_authorization(grant("S2", "a b"))
        system.plan(JOIN_QUERY)
        assert system.plan_cache.stats.negative_hits == 1
        assert len(system.plan_cache) == 1  # the plan replaced the verdict


# ---------------------------------------------------------------------------
# Security regression: revocation between two executions
# ---------------------------------------------------------------------------


class TestRevocationBetweenExecutions:
    """A stale cached plan must never ship a forbidden transfer."""

    def test_revoked_route_is_evicted_and_replanned_audited_clean(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        first = system.execute(JOIN_QUERY)
        # The only feasible master is S2, so the plan ships R into S2.
        assert [(t.sender, t.receiver) for t in first.transfers] == [("S1", "S2")]
        # The run left the executor's reading of the assignment on it.
        (entry,) = system.plan_cache._entries.values()
        stale = entry.assignment
        assert "join_steps" in stale._memo
        # Widen (S1 may now receive T), then revoke S2's view of R: the
        # cached plan's S1 -> S2 shipment is now forbidden.
        system.add_authorization(grant("S1", "c d"))
        system.revoke_authorization(grant("S2", "a b"))
        second = system.execute(JOIN_QUERY)
        # Revalidation failed, the entry was evicted, the query replanned.
        stats = system.plan_cache.stats
        assert stats.revalidations == 1
        assert stats.revalidation_failures == 1
        # The replanned route reverses direction: T ships into S1.  The
        # forbidden shipment never happened — assert via the audit log,
        # which checked every transfer against the post-revocation policy.
        assert [(t.sender, t.receiver) for t in second.transfers] == [("S2", "S1")]
        assert second.audit is not None
        assert second.audit.all_authorized()
        assert second.audit.violations == ()
        for transfer in second.audit.checked:
            assert transfer.receiver != "S2"
        # Same answer either way.
        assert second.table.rows == first.table.rows
        # What is kept on an assignment is no authorization.  A pipeline
        # handed the stale product verifies it, finds it unsafe and
        # replans; run as it stands, it is refused by the verifier and,
        # past the verifier, stopped by the audit at its first shipment.
        assert "join_steps" in stale._memo
        adopted = system.pipeline(JOIN_QUERY)
        adopted.use_plan(entry.tree, stale, entry.planner_trace)
        assert [(t.sender, t.receiver) for t in adopted.run().transfers] == [("S2", "S1")]
        with pytest.raises(UnsafeAssignmentError):
            verify_assignment(system.policy, stale)
        with pytest.raises(AuditViolationError):
            DistributedExecutor(stale, system.tables(), policy=system.policy).run()

    def test_revocation_that_kills_the_query_raises_instead_of_reusing(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        system.execute(JOIN_QUERY)
        system.revoke_authorization(grant("S2", "a b"))
        # No server can host the join any more: the stale plan must not
        # run, and there is nothing to replan to.
        with pytest.raises(InfeasiblePlanError):
            system.execute(JOIN_QUERY)
        stats = system.plan_cache.stats
        assert stats.revalidation_failures == 1
        # The stale plan is gone; what is left is this epoch's verdict.
        (entry,) = system.plan_cache._entries.values()
        assert entry.assignment is None and entry.infeasible is not None

    def test_resume_after_failed_revalidation_caches_the_new_plan(self):
        system = _toy_system(
            grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b")
        )
        system.execute(JOIN_QUERY)
        system.add_authorization(grant("S1", "c d"))
        system.revoke_authorization(grant("S2", "a b"))
        system.execute(JOIN_QUERY)  # replans, re-caches
        third = system.execute(JOIN_QUERY)  # pure hit on the new entry
        stats = system.plan_cache.stats
        assert stats.hits == 1
        assert stats.misses == 2
        assert third.audit.all_authorized()


# ---------------------------------------------------------------------------
# simulate_concurrent
# ---------------------------------------------------------------------------


class TestSimulateConcurrent:
    def test_n_copies_plan_once_and_match_cache_off_byte_for_byte(self):
        queries = [MEDICAL_QUERY] * 4
        cached = _medical_system().simulate_concurrent(queries)
        baseline = _medical_system(plan_cache=False).simulate_concurrent(queries)
        assert cached.describe().encode() == baseline.describe().encode()
        assert cached.completion_times == baseline.completion_times
        assert cached.makespan == baseline.makespan
        assert cached.busy_time == baseline.busy_time

    def test_n_copies_hit_the_cache_after_one_miss(self):
        system = _medical_system()
        system.simulate_concurrent([MEDICAL_QUERY] * 4)
        stats = system.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits == 3


# ---------------------------------------------------------------------------
# Traced systems: the covering-rule cache follows the policy epoch
# ---------------------------------------------------------------------------


class TestTracedRevocation:
    """With a ``TraceContext`` installed, audit and plan-cache re-audit
    share a per-trace covering-rule cache; it must not outlive the
    policy epoch it was filled under."""

    def test_traced_revoke_evicts_the_plan_and_never_cites_the_rule(self):
        system = DistributedSystem(
            coalition_catalog(), coalition_policy(), trace=TraceContext()
        )
        system.load_instances(generate_coalition_instances(seed=3))
        revoked = coalition_authorization(4)
        first = system.execute(inspection_query())
        # The cached plan leans on rule 4 (the regular-join strategy).
        assert revoked in [t.authorized_by for t in first.audit.checked]
        system.revoke_authorization(revoked)
        second = system.execute(inspection_query())
        stats = system.plan_cache.stats
        assert stats.revalidations == 1
        assert stats.revalidation_failures == 1
        # Replanned onto the semi-join strategy (rules 2/15); no audited
        # transfer is accounted to the withdrawn rule.
        assert second.audit.all_authorized()
        assert revoked not in [t.authorized_by for t in second.audit.checked]
        assert second.table.rows == first.table.rows

    def test_traced_grant_is_not_a_cached_denial(self):
        policy = close_policy(Policy([grant("S1", "a b")]), _toy_catalog())
        trace = TraceContext()
        profile = RelationProfile(["c", "d"])
        assert first_covering_authorization(policy, profile, "S1", trace=trace) is None
        rule = grant("S1", "c d")
        policy.add(rule)
        assert first_covering_authorization(policy, profile, "S1", trace=trace) == rule


# ---------------------------------------------------------------------------
# The shape tier: plan per query shape, not per query text
# ---------------------------------------------------------------------------

TOY_RULES = (grant("S1", "a b"), grant("S2", "c d"), grant("S2", "a b"))


def _literal_query(value, op="!="):
    return f"{JOIN_QUERY} WHERE b {op} {value}"


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a pass-through that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_verifier_probes(monkeypatch):
    """Count the ``Policy.can_view`` calls the verifier makes — those
    inside ``safety.unauthorized_flows`` — and no planner or audit probe."""
    import repro.core.safety as safety

    calls = []
    verifying = []
    flows = safety.unauthorized_flows
    can_view = Policy.can_view

    def verify(*args, **kwargs):
        verifying.append(True)
        try:
            return flows(*args, **kwargs)
        finally:
            verifying.pop()

    def probe(self, profile, server):
        if verifying:
            calls.append((profile, server))
        return can_view(self, profile, server)

    monkeypatch.setattr(safety, "unauthorized_flows", verify)
    monkeypatch.setattr(Policy, "can_view", probe)
    return calls


class TestQueryShape:
    def _spec(self, where):
        return _toy_system(*TOY_RULES).parse(f"{JOIN_QUERY} WHERE {where}")

    def test_only_constants_are_erased(self):
        one = self._spec("b != 2 AND d = 'x'")
        assert one.shape() == self._spec("d = 'y' AND b != 7").shape()
        assert one.fingerprint() != self._spec("d = 'y' AND b != 7").fingerprint()
        # Attribute, operator and the number of atoms all stay.
        assert one.shape() != self._spec("a != 2 AND d = 'x'").shape()
        assert one.shape() != self._spec("b < 2 AND d = 'x'").shape()
        assert one.shape() != self._spec("b != 2").shape()

    def test_an_attribute_operand_is_not_a_constant(self):
        assert self._spec("a = b").shape() == self._spec("a = b").fingerprint()
        assert self._spec("a = b").shape() != self._spec("a = 3").shape()
        assert self._spec("a = b AND d < 1").shape() == self._spec("d < 9 AND a = b").shape()

    def test_a_constant_free_spec_has_shape_equal_to_fingerprint(self):
        spec = _toy_system(*TOY_RULES).parse(JOIN_QUERY)
        assert spec.shape() == spec.fingerprint()


class TestShapeTier:
    def test_distinct_literals_of_one_shape_plan_once(self, monkeypatch):
        from repro.core.planner import SafePlanner
        from repro.engine.operators import evaluate_plan

        system = _toy_system(*TOY_RULES)
        reference = _toy_system(*TOY_RULES, plan_cache=False)
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        for value in range(1, 21):
            query = _literal_query(value)
            tree, assignment, _ = system.plan(query)
            # The bound tree carries *this* request's constant.
            assert f"b!={value}" in tree.render()
            assert system.execute(query).table == evaluate_plan(
                reference.plan(query)[0], reference.tables()
            )
        assert len(planned) == 1 + 20  # the reference system plans every time
        stats = system.plan_cache.stats
        assert (stats.hits, stats.misses, stats.shape_hits) == (20, 20, 19)
        assert stats.negative_hits == 0

    def test_verify_probes_can_view_as_often_as_for_a_fresh_plan(self, monkeypatch):
        import repro.core.safety as safety

        system = _toy_system(*TOY_RULES)
        system.plan(_literal_query(1))
        _, bound, _ = system.plan(_literal_query(2))
        assert system.plan_cache.stats.shape_hits == 1
        _, fresh, _ = _toy_system(*TOY_RULES, plan_cache=False).plan(_literal_query(2))
        probes = _count_verifier_probes(monkeypatch)
        safety.verify_assignment(system.policy, fresh)
        per_verify = len(probes)
        assert per_verify > 0
        for _ in range(3):  # memoized flows, never memoized verdicts
            del probes[:]
            safety.verify_assignment(system.policy, bound)
            assert len(probes) == per_verify

    def test_two_literal_free_requests_leave_one_entry(self):
        system = _toy_system(*TOY_RULES)
        system.plan(JOIN_QUERY)
        system.plan(JOIN_QUERY)
        assert len(system.plan_cache) == 1
        stats = system.plan_cache.stats
        assert (stats.hits, stats.misses, stats.shape_hits) == (1, 1, 0)

    def test_a_repeated_literal_is_an_exact_hit(self):
        system = _toy_system(*TOY_RULES)
        first = system.plan(_literal_query(1))
        again = system.plan(_literal_query(1))
        assert all(a is b for a, b in zip(first, again))
        assert system.plan_cache.stats.shape_hits == 0
        assert len(system.plan_cache) == 2  # the product and its shape's decision

    def test_bound_assignments_do_not_share_mutable_state(self):
        from repro.core.assignment import Executor

        system = _toy_system(*TOY_RULES)
        _, decided, _ = system.plan(_literal_query(1))
        _, bound, _ = system.plan(_literal_query(2))
        before = decided.describe()
        join = bound.plan.joins()[0]
        bound.set_executor(join.node_id, Executor("S1"))
        assert decided.describe() == before

    def test_a_decision_follows_the_epoch_rule_of_every_entry(self):
        trace = TraceContext()
        system = _toy_system(*TOY_RULES, trace=trace)
        system.plan(_literal_query(1))
        # A grant: the decision revalidates and keeps binding.
        system.add_authorization(grant("S1", "c d"))
        _, bound, _ = system.plan(_literal_query(2))
        stats = system.plan_cache.stats
        assert (stats.shape_hits, stats.revalidations, stats.revalidation_failures) == (1, 1, 0)
        assert bound.result_server() == "S2"
        # Revoking the route it ships over: it fails the re-audit, is
        # dropped, and the request replans around the revocation.
        system.revoke_authorization(grant("S2", "a b"))
        _, replanned, _ = system.plan(_literal_query(3))
        assert (stats.shape_hits, stats.revalidation_failures) == (1, 1)
        assert replanned.result_server() == "S1"
        result = system.execute(_literal_query(4))
        assert stats.shape_hits == 2
        assert result.audit.all_authorized()
        assert [(t.sender, t.receiver) for t in result.transfers] == [("S2", "S1")]
        # Both tiers report through the one `_observe`.
        outcomes = [e.attrs["outcome"] for e in trace.events if e.name == "plan_cache"]
        assert outcomes == [
            "miss",
            "miss", "revalidated", "shape_hit",
            "miss", "revalidation_failed",
            "miss", "shape_hit",
        ]
        # Planned twice in four requests: the first, and around the revoke.
        assert len([span for span in trace.spans if span.name == "plan"]) == 2

    def test_an_order_search_decision_binds_in_the_order_it_found(self, monkeypatch):
        from repro.algebra.builder import QuerySpec
        from repro.algebra.joins import JoinPath
        from repro.algebra.predicates import Comparison, Predicate
        from repro.core.planner import SafePlanner

        catalog = quick_catalog(
            "A(a1, a2) @ S1", "B(b1, b2) @ S2", "C(c1, c2) @ S3",
            edges=["a2 = b1", "b2 = c1", "a1 = c2"],
        )
        policy = Policy(
            [
                grant("S1", "a1 a2"), grant("S2", "b1 b2"), grant("S3", "c1 c2"),
                # The only route: S2 absorbs A, then S3 absorbs A-B.
                grant("S2", "a1 a2"), grant("S3", "a1 a2 b1 b2", "a2 = b1"),
            ]
        )
        system = DistributedSystem(catalog, policy, apply_closure=False)

        def bad_order(constant):
            # In the order A-C-B the first join (a1 = c2) is infeasible.
            return QuerySpec(
                ["A", "C", "B"],
                [JoinPath.of(("a1", "c2")), JoinPath.of(("a2", "b1"))],
                frozenset({"a1", "b1", "c1"}),
                Predicate([Comparison("a1", "!=", constant)]),
            )

        tree, assignment, _ = system.plan(bad_order(1), search_join_orders=True)
        found = [schema.name for schema in tree.base_relations()]
        assert found != ["A", "C", "B"]
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        bound_tree, bound, _ = system.plan(bad_order(2), search_join_orders=True)
        assert planned == []
        assert [schema.name for schema in bound_tree.base_relations()] == found
        assert "a1!=2" in bound_tree.render()
        assert bound.describe() == assignment.describe().replace("a1!=1", "a1!=2")
        # Without the flag the same shape is a different decision: infeasible.
        with pytest.raises(InfeasiblePlanError):
            system.plan(bad_order(3))

    def test_parenthesized_queries_have_no_tier_below_the_exact_one(self, monkeypatch):
        from repro.core.planner import SafePlanner

        def bushy(constant):
            return (
                "SELECT Plan, Physician, HealthAid "
                "FROM Insurance JOIN (Nat_registry JOIN Hospital ON Citizen = Patient) "
                f"ON Holder = Citizen WHERE HealthAid != '{constant}'"
            )

        system = _permissive_medical_system()
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        for constant in ("x", "y", "x"):
            system.plan(bushy(constant))
        assert len(planned) == 2
        stats = system.plan_cache.stats
        assert (stats.hits, stats.misses, stats.shape_hits) == (1, 2, 0)
        assert len(system.plan_cache) == 2
        # Under Figure 3 the shape is infeasible as written: the verdict
        # sits under the exact key, answers the repeat, not the variant.
        strict = _medical_system()
        for constant in ("x", "y", "x"):
            with pytest.raises(InfeasiblePlanError):
                strict.plan(bushy(constant))
        assert len(planned) == 4
        assert strict.plan_cache.stats.negative_hits == 1

    def test_third_party_decisions_carry_their_coordinators(self):
        catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
        policy = Policy([grant("S9", "a b"), grant("S9", "c d")])
        system = DistributedSystem(catalog, policy, third_parties=["S9"])
        system.load_instances(_toy_instances())
        query = "SELECT a, b, c, d FROM R JOIN T ON a = c WHERE b != {}"
        _, decided, _ = system.plan(query.format(1))
        _, bound, _ = system.plan(query.format(2))
        assert system.plan_cache.stats.shape_hits == 1
        join = bound.plan.joins()[0]
        assert bound.coordinator(join.node_id) == "S9" == decided.coordinator(join.node_id)
        assert bound.uses_third_party()
        result = system.execute(query.format(3))
        assert result.audit.all_authorized()
        assert list(result.table.rows) == [(1, 2, 1, 9)]

    def test_a_per_call_trace_sees_the_tier_and_no_planner_span(self):
        system = _toy_system(*TOY_RULES)
        system.plan(_literal_query(1))
        trace = TraceContext()
        system.plan(_literal_query(2), trace=trace)
        outcomes = [e.attrs["outcome"] for e in trace.events if e.name == "plan_cache"]
        assert outcomes == ["miss", "shape_hit"]
        assert trace.metrics.counter("repro_plan_cache_shape_hit_total").value() == 1
        assert not [span for span in trace.spans if span.name == "plan"]

    def test_cache_off_means_no_tier_and_no_memo(self, monkeypatch):
        from repro.core.planner import SafePlanner

        system = _toy_system(*TOY_RULES, plan_cache=False)
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        for value in (1, 2, 2):
            system.plan(_literal_query(value))
        assert len(planned) == 3
        assert system._parse_memo == {}
        unsafe = _toy_system(grant("S1", "a b"), grant("S2", "c d"), plan_cache=False)
        for _ in range(2):
            with pytest.raises(InfeasiblePlanError):
                unsafe.plan(JOIN_QUERY)
        assert len(planned) == 5


# ---------------------------------------------------------------------------
# Verdicts: infeasibility cached per shape, for one epoch
# ---------------------------------------------------------------------------

DUTY = (
    "SELECT Ship, Container_count, Duty "
    "FROM Manifests JOIN Declarations ON Ship = Decl_vessel WHERE Ship != '{}'"
)
BERTH_CLIENT = (
    "SELECT Berth, Client FROM Arrivals JOIN Manifests ON Vessel = Ship "
    "WHERE Berth != '{}'"
)


def _coalition_system(**kwargs):
    system = DistributedSystem(coalition_catalog(), coalition_policy(), **kwargs)
    system.load_instances(generate_coalition_instances(seed=3))
    return system


class TestVerdicts:
    def test_an_infeasible_shape_plans_once_per_epoch(self, monkeypatch):
        from repro.core.planner import SafePlanner

        system = _coalition_system()
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        for serial in range(10):
            with pytest.raises(InfeasiblePlanError):
                system.plan(BERTH_CLIENT.format(serial))
        assert len(planned) == 1
        stats = system.plan_cache.stats
        assert (stats.misses, stats.negative_hits, stats.hits) == (10, 9, 0)
        assert len(system.plan_cache) == 1
        # Any policy move retires the verdict; the next request replans.
        rule = coalition_authorization(13)
        system.revoke_authorization(rule)
        system.add_authorization(rule)
        for serial in range(10, 13):
            with pytest.raises(InfeasiblePlanError):
                system.plan(BERTH_CLIENT.format(serial))
        assert len(planned) == 2

    def test_revoke_refuses_and_the_next_grant_serves_at_once(self):
        system = _coalition_system()
        only_route = coalition_authorization(5)
        assert system.execute(DUTY.format("a")).audit.all_authorized()
        system.revoke_authorization(only_route)
        for serial in range(3):
            with pytest.raises(InfeasiblePlanError):
                system.execute(DUTY.format(serial))
        assert system.plan_cache.stats.negative_hits == 2
        refused_at = system.policy.epoch
        system.add_authorization(only_route)
        # First request after the grant: served, audited clean.
        result = system.execute(DUTY.format("b"))
        assert result.audit.all_authorized()
        assert system.plan_cache.stats.negative_hits == 2
        stale = [
            entry for entry in system.plan_cache._entries.values()
            if entry.infeasible is not None and entry.validated_epoch <= refused_at
        ]
        assert stale == []

    def test_every_cached_refusal_is_a_fresh_error(self):
        import traceback

        system = _coalition_system()
        fresh = _coalition_system(plan_cache=False)
        with pytest.raises(InfeasiblePlanError) as planned:
            fresh.plan(BERTH_CLIENT.format("x"))
        with pytest.raises(InfeasiblePlanError):
            system.plan(BERTH_CLIENT.format("seed"))
        (verdict,) = system.plan_cache._entries.values()
        assert verdict.infeasible == (str(planned.value), planned.value.node_id)
        seen = set()
        depths = set()
        for serial in range(10_000):
            try:
                system.plan(BERTH_CLIENT.format(serial))
            except InfeasiblePlanError as error:
                seen.add(id(error))
                depths.add(sum(1 for _ in traceback.walk_tb(error.__traceback__)))
                assert str(error) == str(planned.value)
                assert error.node_id == planned.value.node_id
                last = error
        assert system.plan_cache.stats.negative_hits == 10_000
        assert len(depths) == 1
        assert len(seen) > 1 and last is not planned.value


# ---------------------------------------------------------------------------
# The Assignment memo and rebinding
# ---------------------------------------------------------------------------


class TestAssignmentMemo:
    def _planned(self):
        system = _medical_system()
        tree, assignment, _ = system.plan(MEDICAL_QUERY)
        return system, tree, assignment

    def test_flows_and_structure_are_derived_once(self, monkeypatch):
        import repro.core.safety as safety
        from repro.core.assignment import Assignment

        system, _, assignment = self._planned()
        derived = _count_calls(monkeypatch, safety, "_derive_flows")
        checked = _count_calls(monkeypatch, Assignment, "_check_structure")
        first = safety.enumerate_assignment_flows(assignment)
        for _ in range(3):
            safety.verify_assignment(system.policy, assignment, recipient="S_H")
            assignment.validate_structure()
        assert len(derived) == 1 and len(checked) == 1
        # Callers own the list they get.
        first.clear()
        assert safety.enumerate_assignment_flows(assignment)

    def test_every_setter_clears_the_memo(self, monkeypatch):
        import repro.core.safety as safety
        from repro.exceptions import PlanError

        _, tree, assignment = self._planned()
        join = tree.joins()[0]
        setters = [
            lambda: assignment.set_executor(join.node_id, assignment.executor(join.node_id)),
            lambda: assignment.set_profile(join.node_id, assignment.profile(join.node_id)),
            lambda: assignment.set_materialized(0, assignment.master(0)),
            lambda: assignment.set_coordinator(join.node_id, "S_X"),
        ]
        derived = _count_calls(monkeypatch, safety, "_derive_flows")
        for mutate in setters:
            safety.enumerate_assignment_flows(assignment)
            before = len(derived)
            safety.enumerate_assignment_flows(assignment)
            assert len(derived) == before
            mutate()
            try:
                safety.enumerate_assignment_flows(assignment)
            except PlanError:
                assert mutate is setters[-1]  # "S_X" coordinates nothing
            assert len(derived) == before + 1

    def test_a_mutation_after_verification_is_still_caught(self):
        from repro.core.assignment import Executor
        from repro.exceptions import UnsafeAssignmentError
        from repro.core.safety import verify_assignment

        system, tree, assignment = self._planned()
        verify_assignment(system.policy, assignment)
        top = tree.joins()[1]
        assignment.set_executor(top.node_id, Executor("S_H"))
        with pytest.raises(UnsafeAssignmentError):
            verify_assignment(system.policy, assignment)

    def test_the_executors_record_is_per_assignment_and_free_of_nodes(self, monkeypatch):
        import repro.engine.executor as executor

        system = _toy_system(*TOY_RULES)
        derived = _count_calls(monkeypatch, executor, "derive_join_steps")
        rows = {}
        for value in (1, 2, 3):
            query = _literal_query(value)
            for _ in range(2):
                rows[value] = system.execute(query).table.rows
        # One derivation for the shape: a literal variant's assignment is
        # `rebound` with the memo, record included ...
        assert len(derived) == 1
        assert system.plan_cache.stats.shape_hits == 2
        # ... and still ships under its own tree's selection.
        reference = _toy_system(*TOY_RULES, plan_cache=False)
        for value, served in rows.items():
            assert served == reference.execute(_literal_query(value)).table.rows
        assert len({tuple(served) for served in rows.values()}) > 1
        # Which is sound because the record names servers, profiles,
        # attributes and descriptions by node id, never a node or predicate.
        _, assignment, _ = system.plan(_literal_query(1))
        for node_id, step in assignment._memo["join_steps"].items():
            assert isinstance(node_id, int) and isinstance(step, JoinStep)
            assert isinstance(step.mode, str) and isinstance(step.master_is_left, bool)
            assert all(isinstance(a, str) for a in step.join_attributes)
            for profile, sender, receiver, description in step.ships:
                assert isinstance(profile, RelationProfile)
                assert all(isinstance(x, str) for x in (sender, receiver, description))

    def test_rebound_accepts_only_a_change_of_constants(self):
        from repro.algebra.builder import build_plan
        from repro.exceptions import PlanError

        system = _permissive_medical_system()
        catalog = system.catalog
        base = (
            "SELECT Patient, Physician, Plan, HealthAid "
            "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
            "JOIN Hospital ON Citizen = Patient WHERE {}"
        )
        _, assignment, _ = system.plan(base.format("Plan != 'gold' AND Physician != 'x'"))

        def tree_of(sql):
            return build_plan(catalog, system.parse(sql))

        twin = assignment.rebound(tree_of(base.format("Physician != 'y' AND Plan != 'basic'")))
        assert twin.describe() == assignment.describe().replace("gold", "basic").replace("'x'", "'y'")
        assert [twin.profile(n.node_id) for n in twin.plan] == [
            assignment.profile(n.node_id) for n in assignment.plan
        ]
        different = [
            # one selection touches another attribute
            base.format("Holder != 'gold' AND Physician != 'x'"),
            # one projection set differs
            base.replace("Patient, ", "").format("Plan != 'gold' AND Physician != 'x'"),
            # one selection node fewer
            base.format("Plan != 'gold'"),
            # one join path differs
            base.replace("ON Citizen = Patient", "ON Holder = Patient").format(
                "Plan != 'gold' AND Physician != 'x'"
            ),
            # another leaf relation
            "SELECT Patient, Physician FROM Hospital WHERE Physician != 'x'",
        ]
        for sql in different:
            with pytest.raises(PlanError, match="cannot rebind"):
                assignment.rebound(tree_of(sql))


# ---------------------------------------------------------------------------
# One parse and one build_plan per shape, every check per request
# ---------------------------------------------------------------------------


class TestParseOncePerRequest:
    def test_literal_traffic_parses_once_and_the_memo_stays_bounded(self, monkeypatch):
        import asyncio

        import repro.distributed.pipeline as pipeline
        import repro.distributed.system as system_module
        import repro.sql
        from repro.engine.audit import AuditLog
        from repro.service import QueryService, TenantConfig
        from repro.sql.lexer import split_literals

        system = _toy_system(*TOY_RULES)
        parses = _count_calls(monkeypatch, repro.sql, "parse")
        builds = _count_calls(monkeypatch, system_module, "build_plan")
        # What protects Def. 3.3 is not prepared: one verification (one
        # CanView probe on this plan) and one audited transfer per
        # request, as many as before any shape was.
        verified = _count_calls(monkeypatch, pipeline, "verify_assignment")
        probed = _count_verifier_probes(monkeypatch)
        audited = _count_calls(monkeypatch, AuditLog, "authorize")
        peak = 0

        async def serve():
            nonlocal peak
            service = QueryService(system, tenants=[TenantConfig("t")])
            await service.start()
            try:
                for serial in range(2000):
                    outcome = await service.submit(_literal_query(serial), tenant="t")
                    assert outcome.status == "ok"
                    assert outcome.result.audit.all_authorized()
                    peak = max(peak, len(system._parse_memo))
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(serve(), timeout=60))
        assert [args[0] for args in parses] == [_literal_query(0)]
        assert len(builds) == 1
        assert len(verified) == len(probed) == len(audited) == 2000
        stats = system.plan_cache.stats
        assert (stats.hits, stats.shape_hits) == (0, 1999)
        limit = system._PARSE_MEMO_LIMIT
        assert peak == limit == 1024
        # The oldest texts left, the newest stayed.
        assert _literal_query(1999) in system._parse_memo
        assert _literal_query(0) not in system._parse_memo
        # One shape, one skeleton; the table has the memo's bound.
        shape = split_literals(_literal_query(0))[0]
        assert list(system._skeletons) == [shape]
        spaced = [f"{JOIN_QUERY}{' ' * n} WHERE b != 1" for n in range(1, limit + 6)]
        for text in spaced:
            system._parsed(text)
        assert len(parses) == 1 + len(spaced)
        assert len(system._skeletons) == limit
        assert shape not in system._skeletons
        assert split_literals(spaced[0])[0] not in system._skeletons
        assert split_literals(spaced[-1])[0] in system._skeletons
