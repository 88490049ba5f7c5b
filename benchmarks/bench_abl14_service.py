"""ABL14 — the multi-tenant query service under a 10k mixed workload.

The serving claim this bench prices and **gates**: wrapping the
single-query stack in the :class:`~repro.service.QueryService` — plan
cache, one flight per request (identical requests admitted while a
flight is open share its one audited run) — must sustain at least :data:`MIN_SERVICE_SPEEDUP`
times the throughput of the sequential one-query-at-a-time loop (the
paper's own processing model: plan, verify, execute, repeat) on the
same 10k mixed workload, *while the policy churns mid-stream* and
without ever relaxing the controlled-information-sharing guarantees:
every served result's audit log is checked, transfer by transfer, and
one violation fails the bench.

Three lanes:

* **throughput** (gated): three tenants, four distinct queries, 10k
  requests through the service with a grant/revoke churn cycle every
  :data:`CHURN_EVERY` requests, versus the sequential cache-off loop.
  Tail latency (p50/p95/p99) lands in the shared ``latency`` section
  of ``BENCH_ABL14.json``.
* **overload** (asserted): capacity forced to zero — every request
  must come back as a structured ``shed`` rejection, with zero
  executions started and zero hangs.
* **coalescing identity** (asserted): a cold-cache stampede of
  identical requests plans once and shares one run — every request is
  admitted before the first leader runs, so all of them are on its
  flight — and the plan it caches is byte-identical to what cache-off
  planning produces.
"""

import asyncio
import gc
import random
import time

from repro.analysis.reporting import latency_percentiles, write_bench_json
from repro.distributed.system import DistributedSystem
from repro.service import (
    OK,
    REJECT_COST,
    SHED,
    QueryService,
    TenantConfig,
)
from repro.testing import grant
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

#: The service must sustain at least this multiple of the sequential
#: loop's throughput on the churned 10k workload.
MIN_SERVICE_SPEEDUP = 2.0

TOTAL_REQUESTS = 10_000
CHURN_EVERY = 2_000
WORKERS = 32
WINDOW = 128
CITIZENS = 10

#: The mixed workload: the paper's three-join query, its two-join
#: prefix, and two single-relation lookups — the profile of a real
#: serving mix (a few heavy analytical shapes, many cheap probes).
QUERIES = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient",
    "SELECT Holder, Plan, Citizen "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen",
    "SELECT Patient, Physician FROM Hospital",
    "SELECT Citizen, HealthAid FROM Nat_registry",
)

TENANTS = (
    TenantConfig("gold", priority=2, rate=1e6, burst=1_000_000),
    TenantConfig("silver", priority=1, rate=1e6, burst=1_000_000),
    TenantConfig("bronze", priority=0, rate=1e6, burst=1_000_000),
)

#: The churn rule: a widening grant added and revoked in alternation
#: mid-stream.  Adding it bumps the policy epoch (revalidate-and-reuse
#: for plans that never used it, fresh routes for new fills); revoking
#: it bumps again and evicts any plan that did use it.
CHURN_GRANT = grant("S_D", "Citizen HealthAid")


def _requests():
    """The deterministic 10k mixed workload: random query per request,
    tenants round-robin."""
    rng = random.Random(7)
    names = [t.name for t in TENANTS]
    return [
        (QUERIES[rng.randrange(len(QUERIES))], names[i % len(names)])
        for i in range(TOTAL_REQUESTS)
    ]


def _fresh_system(plan_cache):
    system = DistributedSystem(
        medical_catalog(), medical_policy(), plan_cache=plan_cache
    )
    system.load_instances(generate_instances(seed=7, citizens=CITIZENS))
    return system


def _sequential_lane(requests):
    """The baseline: one query at a time, planned from scratch each
    time (the paper's model has no cache and no sharing).  Returns
    (elapsed_seconds, audited_results)."""
    system = _fresh_system(plan_cache=False)
    for query, _ in requests[: len(QUERIES)]:
        system.execute(query)  # warm parse memo and interpreter paths
    results = []
    start = time.perf_counter()
    for query, _ in requests:
        results.append(system.execute(query))
    return time.perf_counter() - start, results


async def _service_lane(requests):
    """The service: WORKERS async workers, a WINDOW-wide submission
    window, and a grant/revoke churn event between every CHURN_EVERY
    requests.  Returns (elapsed, outcomes, snapshot, churn_events)."""
    system = _fresh_system(plan_cache=True)
    service = QueryService(
        system, tenants=TENANTS, workers=WORKERS, max_queue=4 * WINDOW
    )
    await service.start()
    semaphore = asyncio.Semaphore(WINDOW)

    async def one(query, tenant):
        async with semaphore:
            return await service.submit(query, tenant=tenant)

    outcomes = []
    churn_events = 0
    granted = False
    start = time.perf_counter()
    for offset in range(0, len(requests), CHURN_EVERY):
        chunk = requests[offset : offset + CHURN_EVERY]
        tasks = [asyncio.ensure_future(one(q, t)) for q, t in chunk]
        if offset:  # churn lands while the fresh chunk is in flight
            if granted:
                service.revoke_authorization(CHURN_GRANT)
            else:
                service.add_authorization(CHURN_GRANT)
            granted = not granted
            churn_events += 1
        outcomes.extend(await asyncio.gather(*tasks))
    elapsed = time.perf_counter() - start
    await service.stop()
    if granted:  # leave the policy exactly as it started
        service.revoke_authorization(CHURN_GRANT)
    return elapsed, outcomes, service.snapshot(), churn_events


def _audit_results(results):
    """Every distinct execution result must show a fully authorized
    transfer log.  Returns (results_checked, transfers_checked)."""
    seen = set()
    transfers = 0
    for result in results:
        if id(result) in seen:
            continue  # shared (coalesced) results audit once
        seen.add(id(result))
        assert result.audit.all_authorized(), "unauthorized transfer shipped"
        assert not result.audit.violations
        transfers += len(result.audit.checked)
    return len(seen), transfers


def test_abl14_service_throughput_latency_and_audit(benchmark):
    requests = _requests()

    # Interleave the lanes (best of two passes each) so machine noise
    # hits both equally — the ABL13 timing idiom.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        seq_best = float("inf")
        svc_best = float("inf")
        svc_outcomes = svc_snapshot = None
        churn_events = 0
        for _ in range(2):
            seq_elapsed, seq_results = _sequential_lane(requests)
            seq_best = min(seq_best, seq_elapsed)
            svc_elapsed, outcomes, snapshot, churn_events = asyncio.run(
                _service_lane(requests)
            )
            if svc_elapsed < svc_best:
                svc_best = svc_elapsed
                svc_outcomes, svc_snapshot = outcomes, snapshot
    finally:
        if gc_was_enabled:
            gc.enable()

    benchmark.pedantic(
        lambda: asyncio.run(_service_lane(requests[:1000])),
        rounds=1,
        iterations=1,
    )

    seq_rate = len(requests) / seq_best
    svc_rate = len(requests) / svc_best
    speedup = svc_rate / seq_rate

    # Nothing was dropped: every request resolved, every result is ok.
    assert len(svc_outcomes) == TOTAL_REQUESTS
    assert svc_snapshot["ok"] == TOTAL_REQUESTS
    assert svc_snapshot["shed"] == 0 and svc_snapshot["failed"] == 0

    # Zero unauthorized transfers, on both lanes, churn included.
    svc_checked, svc_transfers = _audit_results(
        [o.result for o in svc_outcomes if o.status == OK]
    )
    _audit_results(seq_results)

    latencies = [o.latency for o in svc_outcomes if o.ok]
    pct = latency_percentiles(latencies)

    print(
        f"\nsequential {seq_rate:.0f} q/s, service {svc_rate:.0f} q/s "
        f"({speedup:.2f}x) | executions {svc_snapshot['executions']}, "
        f"result-coalesced {svc_snapshot['result_coalesced']} | "
        f"p50 {pct['p50'] * 1e3:.2f} ms, p99 {pct['p99'] * 1e3:.2f} ms | "
        f"{churn_events} churn events, {svc_transfers} transfers audited"
    )
    write_bench_json(
        "ABL14",
        {
            "throughput": {
                "requests": TOTAL_REQUESTS,
                "distinct_queries": len(QUERIES),
                "tenants": len(TENANTS),
                "workers": WORKERS,
                "window": WINDOW,
                "churn_events": churn_events,
                "sequential_qps": round(seq_rate, 1),
                "service_qps": round(svc_rate, 1),
                "speedup": round(speedup, 2),
                "acceptance_floor": MIN_SERVICE_SPEEDUP,
                "executions": svc_snapshot["executions"],
                "result_coalesced": svc_snapshot["result_coalesced"],
            },
            "audit": {
                "distinct_results": svc_checked,
                "transfers_checked": svc_transfers,
                "violations": 0,
            },
        },
        plan_cache=svc_snapshot["plan_cache"],
        latency=pct,
    )
    assert speedup >= MIN_SERVICE_SPEEDUP, (
        f"service sustains only {speedup:.2f}x the sequential loop, "
        f"under the {MIN_SERVICE_SPEEDUP}x floor"
    )


def test_abl14_overload_sheds_deterministically(benchmark):
    """Capacity zero: every request is shed with a structured
    rejection — no hangs, no partial executions."""
    requests = _requests()[:500]

    async def overloaded():
        system = _fresh_system(plan_cache=True)
        service = QueryService(
            system, tenants=TENANTS, workers=4, capacity_bytes=0
        )
        await service.start()
        outcomes = await asyncio.gather(
            *[service.submit(q, tenant=t) for q, t in requests]
        )
        snapshot = service.snapshot()
        await service.stop()
        return outcomes, snapshot

    outcomes, snapshot = benchmark.pedantic(
        lambda: asyncio.run(asyncio.wait_for(overloaded(), timeout=60)),
        rounds=1,
        iterations=1,
    )
    assert len(outcomes) == len(requests)
    for outcome in outcomes:
        assert outcome.status == SHED
        assert outcome.rejection is not None
        assert outcome.rejection.reason == REJECT_COST
        assert outcome.result is None  # nothing partially executed
    assert snapshot["executions"] == 0
    assert snapshot["shed"] == len(requests)
    write_bench_json(
        "ABL14",
        {
            "overload": {
                "requests": len(requests),
                "shed": snapshot["shed"],
                "executions": snapshot["executions"],
                "reason": REJECT_COST,
            }
        },
    )


def test_abl14_coalesced_plans_byte_identical(benchmark):
    """A cold-cache stampede plans once and shares one run, and the
    cached assignment matches cache-off planning byte for byte."""

    async def stampede(query):
        system = _fresh_system(plan_cache=True)
        service = QueryService(system, tenants=TENANTS, workers=8)
        await service.start()
        outcomes = await asyncio.gather(
            *[service.submit(query, tenant="gold") for _ in range(24)]
        )
        snapshot = service.snapshot()
        await service.stop()
        _, assignment, _ = system.plan(query)  # the cached product
        return outcomes, snapshot, assignment

    checked = []
    for query in QUERIES:
        outcomes, snapshot, cached = asyncio.run(stampede(query))
        assert all(o.status == OK for o in outcomes)
        assert snapshot["plan_cache"]["misses"] == 1
        assert (snapshot["executions"], snapshot["result_coalesced"]) == (1, 23)
        _, expected, _ = _fresh_system(plan_cache=False).plan(query)
        assert cached.describe().encode() == expected.describe().encode()
        checked.append(snapshot["result_coalesced"])

    benchmark.pedantic(
        lambda: asyncio.run(stampede(QUERIES[0])), rounds=1, iterations=1
    )
    write_bench_json(
        "ABL14",
        {
            "coalescing": {
                "queries": len(QUERIES),
                "stampede_width": 24,
                "result_coalesced_per_query": checked,
                "byte_identical": True,
            }
        },
    )
