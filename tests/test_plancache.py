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
from repro.exceptions import InfeasiblePlanError, PolicyError
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
        assert system._parsed(bushy, memoize=True)[0] == "tree"
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

    def test_infeasibility_is_never_cached(self):
        system = _toy_system(grant("S1", "a b"), grant("S2", "c d"))
        with pytest.raises(InfeasiblePlanError):
            system.plan(JOIN_QUERY)
        assert len(system.plan_cache) == 0
        # A later grant unlocks the query — a cached negative would hide it.
        system.add_authorization(grant("S2", "a b"))
        system.plan(JOIN_QUERY)
        assert len(system.plan_cache) == 1


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
        assert len(system.plan_cache) == 0

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
