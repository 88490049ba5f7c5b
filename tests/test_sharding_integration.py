"""Integration seams of the sharding subsystem.

The differential suite proves the semantics; these tests prove the
*wiring* — every layer the coordinator threads through:

* ``DistributedSystem.certify_sharding`` / ``execute_sharded`` (the
  public entry points),
* ``QueryService(shard_schemes=...)`` (partition-parallel serving with
  single-flight coalescing and the sharded-outcome metric),
* the ``shard`` CLI subcommand against the paper's medical workload
  (certify-only gating, execution summary, built-in differential).
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.chaos import InvariantMonitor, ServiceJournal
from repro.cli import main
from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.core.plancache import PlanCache
from repro.distributed import pipeline as pipeline_module
from repro.distributed.faults import FaultInjector
from repro.distributed.system import DistributedSystem
from repro.engine.data import Table
from repro.engine.resilience import RetryPolicy
from repro.exceptions import DegradedExecutionError, InfeasiblePlanError
from repro.obs import TraceContext
from repro.sharding import (
    EXEC_PARTITIONED,
    EXEC_SINGLE_COPY,
    HashPartitionScheme,
    PartitionGroup,
    ShardedExecutor,
    ShardedResult,
)
from repro.sharding import executor as sharding_executor
from repro.service import QueryService
from repro.testing import grant, quick_catalog
from tests.test_service import serve_all

# ---------------------------------------------------------------------------
# World: the R -> T chain with a two-server shard group
# ---------------------------------------------------------------------------

SERVERS = ("S1", "S2", "G1", "G2")


def _catalog():
    return quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])


def _policy():
    policy = Policy()
    for server in SERVERS:
        policy.add(grant(server, "a b"))
        policy.add(grant(server, "c d"))
        policy.add(grant(server, "a b c d", "a = c"))
    return policy


INSTANCES = {
    "R": [{"a": i % 7, "b": f"r{i}"} for i in range(40)],
    "T": [{"c": i % 7, "d": f"t{i}"} for i in range(40)],
}

QUERY = "SELECT a, b, d FROM R JOIN T ON a = c"

GROUP = PartitionGroup("g", ["G1", "G2"])


def _system(trace=None):
    catalog = _catalog()
    system = DistributedSystem(
        catalog, close_policy(_policy(), catalog), apply_closure=False, trace=trace
    )
    system.load_instances(INSTANCES)
    return system


def _good_schemes(shards=4):
    return {
        "R": HashPartitionScheme("R", ["a"], shards, GROUP),
        "T": HashPartitionScheme("T", ["c"], shards, GROUP),
    }


def _bad_schemes(shards=4):
    return {
        "R": HashPartitionScheme("R", ["a"], shards, GROUP, function="crc32"),
        "T": HashPartitionScheme("T", ["c"], shards, GROUP, function="fnv"),
    }


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30))


# ---------------------------------------------------------------------------
# DistributedSystem seam
# ---------------------------------------------------------------------------


class TestSystemSeam:
    def test_certify_then_execute_partitioned(self):
        system = _system()
        certificate = system.certify_sharding(QUERY, _good_schemes())
        assert certificate.certified
        result = system.execute_sharded(QUERY, _good_schemes())
        assert result.mode == EXEC_PARTITIONED
        assert result.table == system.execute(QUERY).table
        assert not result.audit.violations

    def test_rejected_schemes_fall_back_to_single_copy(self):
        system = _system()
        certificate = system.certify_sharding(QUERY, _bad_schemes())
        assert not certificate.certified
        result = system.execute_sharded(QUERY, _bad_schemes())
        assert result.mode == EXEC_SINGLE_COPY
        assert result.fallback_reason
        assert result.table == system.execute(QUERY).table

    def test_trace_carries_shard_metrics_and_spans(self):
        trace = TraceContext()
        system = _system(trace=trace)
        system.execute_sharded(QUERY, _good_schemes(), trace=trace)
        snapshot = trace.metrics.snapshot()
        assert "repro_shard_certify_total" in snapshot
        assert "repro_shard_queries_total" in snapshot
        assert trace.spans_named("shard")  # one per shard execution
        names = [event.name for event in trace.events]
        assert "shard_certified" in names
        assert "shard_parallel_commit" in names


# ---------------------------------------------------------------------------
# Fault contract: a sharded run fails over and degrades like `execute`
# ---------------------------------------------------------------------------

RETRY = RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0)


class TestFaultContract:
    def test_unreachable_recipient_degrades_after_failover_rounds(self):
        system = _system()
        faults = FaultInjector(seed=1)
        faults.partition("G2", "S1")
        with pytest.raises(DegradedExecutionError) as exc:
            system.execute_sharded(
                QUERY, _good_schemes(), recipient="S1",
                faults=faults, retry=RETRY, max_failovers=2,
            )
        assert exc.value.failovers == 2
        assert exc.value.excluded_servers == ()
        # One unit's journal is not a checkpoint of the request.
        assert exc.value.checkpoint is None

    def test_crashed_member_degrades_naming_it(self):
        system = _system()
        faults = FaultInjector(seed=1)
        faults.crash("G1")
        with pytest.raises(DegradedExecutionError) as exc:
            system.execute_sharded(
                QUERY, _good_schemes(), recipient="S1", faults=faults, retry=RETRY
            )
        assert exc.value.excluded_servers == ("G1",)

    def test_failover_round_succeeds_once_the_member_is_back(self):
        """A shard lives only at its group member, so the one crash a
        shard plan can route around is one that ends: G1 stays down for
        exactly as long as round 0 and its retries take, and the
        failover round re-plans onto it."""
        probe = FaultInjector(seed=1)
        probe.crash("G1")
        with pytest.raises(DegradedExecutionError):
            _system().execute_sharded(
                QUERY, _good_schemes(), recipient="S1", faults=probe, retry=RETRY
            )
        faults = FaultInjector(seed=1)
        faults.crash("G1", 0.0, probe.clock)
        system = _system()
        result = system.execute_sharded(
            QUERY, _good_schemes(), recipient="S1", faults=faults, retry=RETRY
        )
        assert result.mode == EXEC_PARTITIONED
        assert [unit.failovers for unit in result.shard_results] == [1, 0, 0, 0]
        assert result.table == system.execute(QUERY).table
        assert result.violations() == 0


# ---------------------------------------------------------------------------
# Resident shards: one long-lived coordinator, never stale
# ---------------------------------------------------------------------------


def _minimal_system(single_copy_feasible, trace=None):
    """Closure on, only the grants sharding needs: every group member
    holds both base views (the chase derives their join views), and S2
    may absorb R only when ``single_copy_feasible``."""
    rules = [grant("S1", "a b"), grant("S2", "c d")]
    for member in GROUP.servers:
        rules += [grant(member, "a b"), grant(member, "c d")]
    if single_copy_feasible:
        rules.append(grant("S2", "a b"))
    system = DistributedSystem(_catalog(), Policy(rules), trace=trace)
    system.load_instances(INSTANCES)
    return system


def _fresh(system, schemes, **options):
    """What a coordinator built for this one request answers."""
    return ShardedExecutor(system, schemes).execute(QUERY, **options)


class TestResidentShards:
    def test_shards_split_once_and_equal_schemes_share_them(self):
        trace = TraceContext()
        system = _system()
        first = system.shards_of(_good_schemes()["R"], trace=trace)
        again = system.shards_of(_good_schemes()["R"], trace=trace)
        assert again is first
        # The group is placement, not routing: same split.
        elsewhere = HashPartitionScheme("R", ["a"], 4, PartitionGroup("h", ["G2"]))
        assert system.shards_of(elsewhere, trace=trace) is first
        assert system.shards_of(_good_schemes(shards=2)["R"], trace=trace) is not first
        series = trace.metrics.snapshot()["repro_shard_split_total"]["series"]
        assert series == {'{outcome="hit"}': 2, '{outcome="miss"}': 2}

    def test_equal_scheme_sets_share_one_coordinator(self):
        system = _system()
        system.execute_sharded(QUERY, _good_schemes())
        system.certify_sharding(QUERY, _good_schemes())
        system.execute_sharded(QUERY, _bad_schemes())
        assert len(system._coordinators) == 2

    def test_reload_between_runs_serves_the_new_rows(self):
        system = _system()
        schemes = _good_schemes()
        before = system.execute_sharded(QUERY, schemes)
        stale = system.shards_of(schemes["R"])
        system.load_instances(
            {"R": [{"a": i % 5, "b": f"new{i}"} for i in range(30)]}
        )
        after = system.execute_sharded(QUERY, schemes)
        assert after.mode == EXEC_PARTITIONED
        assert after.table == system.execute(QUERY).table
        assert after.table != before.table
        assert system.shards_of(schemes["R"]) is not stale
        # T was not reloaded: its shards stayed resident.
        trace = TraceContext()
        system.shards_of(schemes["T"], trace=trace)
        series = trace.metrics.snapshot()["repro_shard_split_total"]["series"]
        assert series == {'{outcome="hit"}': 1}

    def test_direct_table_swap_is_caught_by_identity(self):
        system = _system()
        schemes = _good_schemes()
        system.execute_sharded(QUERY, schemes)
        system.server("S1").load_table(
            "R", Table(("a", "b"), [(1, "only")])
        )
        after = system.execute_sharded(QUERY, schemes)
        assert after.table == system.execute(QUERY).table
        assert sum(len(shard) for shard in system.shards_of(schemes["R"])) == 1

    def test_revoke_between_runs_falls_back_like_a_fresh_coordinator(self):
        system = _minimal_system(single_copy_feasible=True)
        schemes = _good_schemes()
        assert system.execute_sharded(QUERY, schemes).mode == EXEC_PARTITIONED
        revoked = grant("G1", "a b")
        system.revoke_authorization(revoked)
        after = system.execute_sharded(QUERY, schemes)
        fresh = _fresh(system, schemes)
        assert after.certificate.policy_epoch == system.policy.epoch
        assert not after.certificate.certified
        assert (after.mode, after.fallback_reason) == (fresh.mode, fresh.fallback_reason)
        assert after.mode == EXEC_SINGLE_COPY
        assert after.table == fresh.table
        assert after.violations() == 0
        checked = after.single_result.audit.checked
        assert checked and revoked not in [t.authorized_by for t in checked]
        assert all(t.receiver != "G1" for t in checked)

    def test_revoke_between_runs_raises_like_a_fresh_coordinator(self):
        # Single-copy was never feasible here; only the shard placement
        # at the group made the join plannable.
        system = _minimal_system(single_copy_feasible=False)
        schemes = _good_schemes()
        assert system.execute_sharded(QUERY, schemes).mode == EXEC_PARTITIONED
        system.revoke_authorization(grant("G1", "a b"))
        with pytest.raises(InfeasiblePlanError):
            _fresh(system, schemes)
        with pytest.raises(InfeasiblePlanError):
            system.execute_sharded(QUERY, schemes)

    def test_grant_between_runs_reverifies_and_changes_nothing(self, monkeypatch):
        verified = _count_verifications(monkeypatch)
        system = _minimal_system(single_copy_feasible=True)
        schemes = _good_schemes(shards=3)
        before = system.execute_sharded(QUERY, schemes)
        system.execute_sharded(QUERY, schemes)  # pure plan-cache hits
        old_epoch = system.policy.epoch
        # Fresh plans and adopted ones alike pass the verifier — once
        # per unit, in the unit body, not a second time at the memo.
        assert [epoch for epoch, _ in verified] == [old_epoch] * 6
        system.add_authorization(grant("S1", "c d"))
        after = system.execute_sharded(QUERY, schemes)
        assert system.policy.epoch > old_epoch
        assert [epoch for epoch, _ in verified[6:]] == [system.policy.epoch] * 3
        assert after.certificate.policy_epoch == system.policy.epoch
        assert after.mode == EXEC_PARTITIONED
        assert after.table == before.table
        assert [r.result_server for r in after.shard_results] == [
            r.result_server for r in before.shard_results
        ]

    def test_shard_plans_obey_the_plan_cache_epoch_rule(
        self, monkeypatch
    ):
        verified = _count_verifications(monkeypatch)
        trace = TraceContext()
        system = _system()
        cache = system.plan_cache
        # Only R is sharded, so every shard plan ships T's rows to its
        # group member — under a rule a revoke can take away.
        schemes = {"R": _good_schemes(shards=2)["R"]}
        first = system.execute_sharded(QUERY, schemes)
        assert first.mode == EXEC_PARTITIONED
        assert (len(cache), cache.stats.misses, cache.stats.hits) == (2, 2, 0)
        system.execute_sharded(QUERY, schemes)
        assert (len(cache), cache.stats.misses, cache.stats.hits) == (2, 2, 2)
        planned = [assignment for _, assignment in verified[:2]]
        # One verification per unit run, warm as cold.
        assert len(verified) == 4
        assert [assignment for _, assignment in verified[2:]] == planned

        # A grant moves the epoch: the cache re-audits and reuses.
        system.add_authorization(grant("S2", "a"))
        system.execute_sharded(QUERY, schemes)
        assert cache.stats.revalidations == 2
        assert cache.stats.revalidation_failures == 0
        assert all(
            new is old for (_, new), old in zip(verified[4:], planned)
        )

        # Revoking the rule shard 0 ships under evicts that shard's plan
        # and only that one; the request replans it and stays correct.
        revoked = grant("G1", "c d")
        assert revoked in [
            t.authorized_by for t in first.shard_results[0].transfers
        ]
        system.revoke_authorization(revoked)
        after = system.execute_sharded(QUERY, schemes, trace=trace)
        assert cache.stats.revalidation_failures == 1
        assert len(verified) == 8
        replanned, kept = (assignment for _, assignment in verified[6:])
        assert replanned is not planned[0] and kept is planned[1]
        shipped = [t for unit in after.unit_results for t in unit.transfers]
        assert shipped and revoked not in [t.authorized_by for t in shipped]
        # Shard 0 now ships its R rows to S2 instead: still partitioned.
        assert after.mode == EXEC_PARTITIONED
        assert [e.attrs["outcome"] for e in trace.events if e.name == "plan_cache"] == [
            "revalidation_failed", "revalidated",
        ]
        assert after.table == system.execute(QUERY).table
        assert after.violations() == 0

    def test_shard_plans_bounded_or_planned_per_request(self):
        catalog = _catalog()
        schemes = {"R": _good_schemes(shards=2)["R"]}
        other = "SELECT a, d FROM R JOIN T ON a = c"
        small = DistributedSystem(
            catalog, close_policy(_policy(), catalog), apply_closure=False,
            plan_cache=PlanCache(maxsize=2),
        )
        small.load_instances(INSTANCES)
        small.execute_sharded(QUERY, schemes)
        small.execute_sharded(other, schemes)
        assert len(small.plan_cache) == 2
        assert small.plan_cache.stats.evictions == 2
        off = DistributedSystem(
            catalog, close_policy(_policy(), catalog), apply_closure=False,
            plan_cache=False,
        )
        off.load_instances(INSTANCES)
        plans = [
            off.pipeline(QUERY, schemes=schemes).plan().units for _ in range(2)
        ]
        assert all(
            again[1] is not once[1] for once, again in zip(*plans)
        )
        assert off.execute_sharded(QUERY, schemes).table == small.execute(QUERY).table


def _count_verifications(monkeypatch):
    """Every ``verify_assignment`` call of the unit body, as ``(policy
    epoch, assignment)`` — the coordinator itself verifies nothing."""
    assert not hasattr(sharding_executor, "verify_assignment")
    verified = []
    real = pipeline_module.verify_assignment

    def counting(policy, assignment, recipient=None):
        verified.append((policy.epoch, assignment))
        return real(policy, assignment, recipient)

    monkeypatch.setattr(pipeline_module, "verify_assignment", counting)
    return verified


# ---------------------------------------------------------------------------
# Service seam
# ---------------------------------------------------------------------------


class TestServiceSeam:
    def test_sharded_service_serves_and_coalesces(self):
        system = _system()
        expected = system.execute(QUERY).table

        async def scenario():
            service = QueryService(
                system, workers=4, shard_schemes=_good_schemes()
            )
            await service.start()
            outcomes = await serve_all(
                service, [{"query": QUERY} for _ in range(8)]
            )
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        for outcome in outcomes:
            assert outcome.result.mode == EXEC_PARTITIONED
            assert outcome.result.table == expected
        snapshot = service.snapshot()
        assert snapshot["ok"] == 8
        # Identical in-flight requests coalesced onto one execution.
        assert snapshot["executions"] < 8
        metrics = service.metrics.snapshot()
        assert "repro_service_sharded_total" in metrics

    def test_rejected_schemes_still_serve_via_fallback(self):
        system = _system()

        async def scenario():
            service = QueryService(
                system, workers=2, shard_schemes=_bad_schemes()
            )
            await service.start()
            outcomes = await serve_all(service, [{"query": QUERY}])
            await service.stop()
            return outcomes[0]

        outcome = run(scenario())
        assert outcome.ok
        assert outcome.result.mode == EXEC_SINGLE_COPY
        assert outcome.result.table == system.execute(QUERY).table

    def test_monitor_reprobes_every_shard_transfer(self):
        """Regression: the monitor read ``audit.checked`` / ``.policy``
        off a merged audit that had neither, failing every partitioned
        request of a monitored service."""
        system = _system()
        monitor = InvariantMonitor()

        async def scenario():
            service = QueryService(
                system, workers=2, shard_schemes=_good_schemes(), monitor=monitor
            )
            await service.start()
            outcome = await service.submit(QUERY, recipient="S1")
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.ok, outcome.error
        assert outcome.result.mode == EXEC_PARTITIONED
        monitor.assert_quiescent()
        assert monitor.ok, monitor.violations
        shipped = sum(len(r.transfers) for r in outcome.result.shard_results)
        assert shipped >= len(outcome.result.shard_results)  # the delivery hops
        assert monitor.report()["transfers_probed"] == shipped

    def test_recover_returns_a_sharded_result(self):
        system = _system()
        journal = ServiceJournal()

        async def scenario():
            first = QueryService(
                system, workers=1, shard_schemes=_good_schemes(), journal=journal
            )
            await first.start()
            task = asyncio.ensure_future(first.submit(QUERY, recipient="S1"))
            await asyncio.sleep(0)  # admitted and journaled, not yet run
            await first.kill()
            successor = QueryService(
                system, workers=1, shard_schemes=_good_schemes(), journal=journal
            )
            await successor.start()
            recovered = await successor.recover()
            outcome = await task
            await successor.stop()
            return recovered, outcome

        recovered, outcome = run(scenario())
        assert recovered == [outcome] and outcome.ok
        assert isinstance(outcome.result, ShardedResult)
        assert outcome.result.mode == EXEC_PARTITIONED
        assert outcome.result.table == system.execute(QUERY).table


# ---------------------------------------------------------------------------
# CLI seam (paper's medical workload)
# ---------------------------------------------------------------------------

MEDICAL_SQL = (
    "SELECT Plan, HealthAid FROM Insurance "
    "JOIN Nat_registry ON Holder = Citizen"
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCliShard:
    def test_certify_only_accepts_granted_group(self):
        # Rule 10 of the paper's policy grants S_N the base view of
        # Insurance; Nat_registry's home server is exempt by definition.
        code, text = run_cli(
            "shard",
            "--sql", MEDICAL_SQL,
            "--scheme", "Insurance:hash:Holder:2",
            "--group", "S_N",
            "--certify-only",
            "--citizens", "30",
            "--seed", "3",
        )
        assert code == 0, text
        assert "certified" in text
        assert "hash[crc32](Holder) x2" in text

    def test_certify_only_rejects_ungranted_group(self):
        # S_D has no view of Insurance at all: placing a shard there
        # would widen visibility, so certification must fail (exit 3).
        code, text = run_cli(
            "shard",
            "--sql", MEDICAL_SQL,
            "--scheme", "Insurance:hash:Holder:2",
            "--group", "S_D",
            "--certify-only",
            "--citizens", "30",
            "--seed", "3",
        )
        assert code == 3
        assert "REJECTED" in text
        assert "widen" in text

    def test_execute_with_builtin_differential(self):
        code, text = run_cli(
            "shard",
            "--sql", MEDICAL_SQL,
            "--scheme", "Insurance:hash:Holder:2",
            "--group", "S_N",
            "--diff",
            "--citizens", "30",
            "--seed", "3",
        )
        assert code == 0, text
        assert "result: mode=partitioned" in text
        assert "violations=0" in text
        assert "differential: identical" in text

    def test_unaligned_schemes_fall_back_with_builtin_differential(self):
        # Nat_registry sharded off the join key: not co-partitioned, so
        # the query runs as one audited single-copy unit.
        code, text = run_cli(
            "shard",
            "--sql", MEDICAL_SQL,
            "--scheme", "Insurance:hash:Holder:2",
            "--scheme", "Nat_registry:hash:HealthAid:2",
            "--group", "S_N",
            "--diff",
            "--citizens", "30",
            "--seed", "3",
        )
        assert code == 0, text
        assert "result: mode=single_copy" in text
        assert "  fallback: schemes are not co-partitioned" in text
        assert "violations=0" in text
        assert "differential: identical" in text

    def test_malformed_scheme_spec_is_usage_error(self):
        code, text = run_cli(
            "shard",
            "--sql", MEDICAL_SQL,
            "--scheme", "Insurance:hash:Holder",  # missing shard count
            "--group", "S_N",
            "--certify-only",
        )
        assert code == 2
        assert "bad --scheme" in text


# ---------------------------------------------------------------------------
# A parenthesized FROM certifies like its chain
# ---------------------------------------------------------------------------

CHAIN_SERVERS = ("S1", "S2", "S3", "S4", "G1", "G2")
BUSHY_QUERY = "SELECT a, h FROM (R JOIN T ON a = c) JOIN (U JOIN V ON e = g) ON c = e"


def _chain_system():
    catalog = quick_catalog(
        "R(a, b) @ S1", "T(c, d) @ S2", "U(e, f) @ S3", "V(g, h) @ S4",
        edges=["a = c", "c = e", "e = g"],
    )
    policy = Policy()
    for server in CHAIN_SERVERS:
        for attributes in ("a b", "c d", "e f", "g h"):
            policy.add(grant(server, attributes))
        policy.add(grant(server, "a b c d", "a = c"))
        policy.add(grant(server, "e f g h", "e = g"))
        policy.add(grant(server, "a b c d e f g h", "a = c, c = e, e = g"))
    system = DistributedSystem(catalog, policy)
    system.load_instances(
        {
            name: [{key: i % 7, payload: f"{name}{i}"} for i in range(20)]
            for name, key, payload in (
                ("R", "a", "b"), ("T", "c", "d"), ("U", "e", "f"), ("V", "g", "h")
            )
        }
    )
    return system


def _chain_schemes(v_key="g"):
    return {
        name: HashPartitionScheme(name, [key], 4, GROUP)
        for name, key in (("R", "a"), ("T", "c"), ("U", "e"), ("V", v_key))
    }


def _assert_served_like_single_copy(result, expected):
    assert result.table == expected
    assert not result.audit.violations
    assert all(unit.audit.all_authorized() for unit in result.unit_results)
    shipped = [t for unit in result.unit_results for t in unit.transfers]
    assert shipped
    assert all(t.authorized_by is not None for t in shipped)


class TestParenthesizedQueries:
    @pytest.mark.parametrize("v_key, mode", [("g", EXEC_PARTITIONED), ("h", EXEC_SINGLE_COPY)])
    def test_execute_sharded_serves_the_bushy_query(self, v_key, mode):
        system = _chain_system()
        expected = system.execute(BUSHY_QUERY).table
        assert len(expected) > 0
        result = system.execute_sharded(BUSHY_QUERY, _chain_schemes(v_key), recipient="S1")
        assert result.mode == mode
        _assert_served_like_single_copy(result, expected)
        # Certified as its chain is: the join order is not the query.
        chain = "SELECT a, h FROM R JOIN T ON a = c JOIN U ON c = e JOIN V ON e = g"
        schemes = _chain_schemes(v_key)
        assert (
            system.certify_sharding(BUSHY_QUERY, schemes).mode
            == system.certify_sharding(chain, schemes).mode
        )

    @pytest.mark.parametrize("v_key, mode", [("g", EXEC_PARTITIONED), ("h", EXEC_SINGLE_COPY)])
    def test_sharded_service_serves_the_bushy_query(self, v_key, mode):
        system = _chain_system()
        expected = system.execute(BUSHY_QUERY).table

        async def scenario():
            service = QueryService(system, workers=2, shard_schemes=_chain_schemes(v_key))
            await service.start()
            outcomes = await serve_all(
                service, [{"query": BUSHY_QUERY, "recipient": "S1"}] * 2
            )
            await service.stop()
            return outcomes

        for outcome in run(scenario()):
            assert outcome.ok, outcome.error
            assert outcome.result.mode == mode
            _assert_served_like_single_copy(outcome.result, expected)
