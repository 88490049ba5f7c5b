"""The composition matrix: every cross-cutting feature of the service,
switched on and off against every other, over two worlds.

One request path means every combination the constructor accepts must
*serve* — nothing is silently downgraded.  The axes are the features
that used to live on separate paths: ``shard_schemes``, a
``ChaosSchedule``, a ``ServiceJournal``, an ``InvariantMonitor`` and a
profiled tenant.  For each of the 32 combinations, on the R -> T chain
(co-partitioned over a two-server group) and on the trade coalition
(``Arrivals`` sharded at customs, ``Declarations`` broadcast from its
home), every request must come back ``ok`` with rows byte-identical to
``system.execute`` on a fresh system, partitioned whenever schemes are
set (chaos included), with a clean quiescent monitor and a harvested
profile per profiled tenant.

The chaos seed honours ``CHAOS_SEED`` so the CI chaos matrix runs the
whole matrix under each of its seeds.
"""

from __future__ import annotations

import asyncio
import itertools
import os

import pytest

from repro.chaos import ChaosSchedule, InvariantMonitor, ServiceJournal
from repro.core.authorization import Policy
from repro.distributed.system import DistributedSystem
from repro.profiling import StatsStore
from repro.service import OK, QueryService, TenantConfig
from repro.sharding import (
    EXEC_PARTITIONED,
    HashPartitionScheme,
    PartitionGroup,
    ShardedResult,
)
from repro.testing import grant, quick_catalog
from repro.workloads.coalition import (
    coalition_catalog,
    coalition_policy,
    generate_coalition_instances,
    inspection_query,
)
from tests.test_sharding_diff import canonical_bytes

SEED = int(os.environ.get("CHAOS_SEED", "16"))
REQUESTS = 6


def chain_world():
    """``(system, schemes, query, recipient)``: R -> T, both hashed on
    the join key over the group {G1, G2}, delivered to S1."""
    policy = Policy()
    for server in ("S1", "S2", "G1", "G2"):
        policy.add(grant(server, "a b"))
        policy.add(grant(server, "c d"))
        policy.add(grant(server, "a b c d", "a = c"))
    system = DistributedSystem(
        quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"]), policy
    )
    system.load_instances(
        {
            "R": [{"a": i % 7, "b": f"r{i}"} for i in range(40)],
            "T": [{"c": i % 7, "d": f"t{i}"} for i in range(40)],
        }
    )
    group = PartitionGroup("g", ["G1", "G2"])
    schemes = {
        "R": HashPartitionScheme("R", ["a"], 4, group),
        "T": HashPartitionScheme("T", ["c"], 4, group),
    }
    return system, schemes, "SELECT a, b, d FROM R JOIN T ON a = c", "S1"


def coalition_world():
    """The port's inspection query with ``Arrivals`` sharded at customs
    (rule 4 grants it the base view), delivered to the port (rule 2)."""
    system = DistributedSystem(coalition_catalog(), coalition_policy())
    system.load_instances(generate_coalition_instances())
    schemes = {
        "Arrivals": HashPartitionScheme(
            "Arrivals", ["Vessel"], 2, PartitionGroup("customs", ["S_customs"])
        )
    }
    return system, schemes, inspection_query(), "S_port"


WORLDS = {"chain": chain_world, "coalition": coalition_world}


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=60))


def build_service(world, sharded, chaos, journal, monitor, profiled):
    system, schemes, query, recipient = WORLDS[world]()
    parts = {
        "store": StatsStore(),
        "monitor": InvariantMonitor() if monitor else None,
        "journal": ServiceJournal() if journal else None,
    }
    service = QueryService(
        system,
        tenants=[TenantConfig("t", profile=profiled)],
        shard_schemes=schemes if sharded else None,
        chaos=(
            ChaosSchedule(
                seed=SEED,
                cancel_probability=0.2,
                leader_crash_probability=0.1,
                stall_probability=0.2,
            )
            if chaos
            else None
        ),
        journal=parts["journal"],
        monitor=parts["monitor"],
        stats_store=parts["store"],
        max_chaos_retries=50,
    )
    return service, query, recipient, parts


@pytest.mark.parametrize(
    "sharded, chaos, journal, monitor, profiled",
    list(itertools.product([True, False], repeat=5)),
)
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_every_combination_serves(world, sharded, chaos, journal, monitor, profiled):
    service, query, recipient, parts = build_service(
        world, sharded, chaos, journal, monitor, profiled
    )
    fresh = WORLDS[world]()[0]
    expected = canonical_bytes(fresh.execute(query, recipient=recipient).table)

    async def scenario():
        await service.start()
        outcomes = await service.serve_all(
            [{"query": query, "tenant": "t", "recipient": recipient}] * REQUESTS
        )
        await service.stop()
        return outcomes

    outcomes = run(scenario())
    assert [(o.status, o.error) for o in outcomes] == [(OK, None)] * REQUESTS
    for outcome in outcomes:
        assert canonical_bytes(outcome.result.table) == expected
        assert not outcome.result.audit.violations
        if sharded:
            assert isinstance(outcome.result, ShardedResult)
            assert outcome.result.mode == EXEC_PARTITIONED
            assert not outcome.result.fallback_reason
    metrics = service.metrics.snapshot()
    if sharded:
        series = metrics["repro_service_sharded_total"]["series"]
        assert series == {'{mode="partitioned"}': REQUESTS}
    else:
        assert "repro_service_sharded_total" not in metrics
    if monitor:
        parts["monitor"].assert_quiescent()
        assert parts["monitor"].ok, parts["monitor"].violations
        assert parts["monitor"].report()["transfers_probed"] > 0
    if journal:
        assert parts["journal"].counts()["incomplete"] == 0
    if profiled:
        runs = metrics["repro_service_profile_runs_total"]["series"]['{tenant="t"}']
        # One profile per unit a leader ran; a unit resumed whole from
        # its checkpoint observes nothing new, so it harvests nothing.
        units = len(outcomes[0].result.shard_results) if sharded else 1
        assert runs >= units
        assert 0 < parts["store"].harvests <= runs
        assert len(parts["store"]) > 0
    else:
        assert "repro_service_profile_runs_total" not in metrics
        assert parts["store"].harvests == 0


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_kill_mid_flight_then_recover_on_a_sharded_journaled_service(world):
    """A seeded chaos run is killed while requests are still queued or
    in a worker's hands; the successor over the same journal resolves
    every pending future with a partitioned, audited result."""
    first, query, recipient, parts = build_service(
        world, sharded=True, chaos=True, journal=True, monitor=True, profiled=False
    )
    fresh = WORLDS[world]()[0]
    expected = canonical_bytes(fresh.execute(query, recipient=recipient).table)

    async def scenario():
        await first.start()
        tasks = [
            asyncio.ensure_future(
                first.submit(query, tenant="t", recipient=recipient)
            )
            for _ in range(REQUESTS)
        ]
        # One flight: let a worker pick its leader up (at most as far as
        # the leader's batching yield) while the followers wait on it.
        for _ in range(2):
            await asyncio.sleep(0)
        await first.kill()
        pending = [task for task in tasks if not task.done()]
        assert pending
        assert parts["journal"].counts()["incomplete"] == len(pending)
        successor = QueryService(
            first.system,
            tenants=[TenantConfig("t")],
            shard_schemes=WORLDS[world]()[1],
            journal=parts["journal"],
            monitor=parts["monitor"],
        )
        await successor.start()
        recovered = await successor.recover()
        outcomes = await asyncio.gather(*tasks)
        await successor.stop()
        return pending, recovered, outcomes

    pending, recovered, outcomes = run(scenario())
    assert len(recovered) == len(pending)
    assert [o.status for o in outcomes] == [OK] * REQUESTS
    for outcome in recovered:
        assert isinstance(outcome.result, ShardedResult)
        assert outcome.result.mode == EXEC_PARTITIONED
        assert canonical_bytes(outcome.result.table) == expected
    assert parts["journal"].counts()["incomplete"] == 0
    parts["monitor"].assert_quiescent()
    assert parts["monitor"].ok, parts["monitor"].violations
