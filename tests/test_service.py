"""Tests for the multi-tenant async query service (repro.service).

Covers the admission primitives (token buckets, cost-aware capacity,
priority shedding), single-flight coalescing, the degradation ladder,
deterministic overload behavior, graceful shutdown, the Prometheus
scrape endpoint — and the load-bearing safety property: policy churn
landing between admission and execution can never ship a transfer the
then-current policy forbids (proven through the audit log).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.authorization import Policy
from repro.distributed.system import DistributedSystem
from repro.engine.audit import AuditLog
from repro.obs import TraceContext
from repro.obs.export import parse_prometheus_text
from repro.obs.hooks import ServiceHooks
from repro.service import (
    DEGRADE_SHED,
    REJECT_BREAKER,
    REJECT_COST,
    REJECT_DEADLINE,
    REJECT_PRIORITY,
    REJECT_QUEUE_FULL,
    REJECT_RATE,
    REJECT_SHUTDOWN,
    AdmissionController,
    MetricsServer,
    QueryService,
    Rejection,
    ServiceError,
    TenantConfig,
    TenantConfigError,
    TokenBucket,
    estimate_query_bytes,
    tenant_map,
)
from repro.testing import grant, quick_catalog
from tests.test_plancache import _count_calls, _count_verifier_probes

# ---------------------------------------------------------------------------
# Fixtures: the three-relation chain world from the plan-cache tests
# ---------------------------------------------------------------------------


def make_catalog():
    return quick_catalog(
        "R0(a0, b0) @ S0",
        "R1(a1, b1) @ S1",
        "R2(a2, b2) @ S2",
        edges=["b0 = a1", "b1 = a2"],
    )


BASE_RULES = (
    grant("S0", "a0 b0"),
    grant("S1", "a1 b1"),
    grant("S2", "a2 b2"),
)

#: Lets S0 master the R0 |x| R1 join: it must view the incoming base
#: operand *and* the joined result (which the chase also derives from
#: the two base views).  ``PIVOT_S0_BASE`` is the revocable linchpin
#: the churn tests withdraw: without it S0 can neither receive R1 nor
#: (post-closure-recompute) view the join.
PIVOT_S0_BASE = grant("S0", "a1 b1")
PIVOT_S0 = grant("S0", "a0 b0 a1 b1", "b0 = a1")
S0_ROUTE = (PIVOT_S0_BASE, PIVOT_S0)
#: The alternative route: S1 may master the same join.
PIVOT_S1_BASE = grant("S1", "a0 b0")
PIVOT_S1 = grant("S1", "a0 b0 a1 b1", "b0 = a1")
S1_ROUTE = (PIVOT_S1_BASE, PIVOT_S1)

PAIR_QUERY = "SELECT a0, b1 FROM R0 JOIN R1 ON b0 = a1"


def chain_instances(n: int = 8):
    return {
        "R0": [{"a0": i, "b0": i} for i in range(n)],
        "R1": [{"a1": i, "b1": i} for i in range(n)],
        "R2": [{"a2": i, "b2": i} for i in range(n)],
    }


def chain_system(rules, **kwargs) -> DistributedSystem:
    system = DistributedSystem(make_catalog(), Policy(list(rules)), **kwargs)
    system.load_instances(chain_instances())
    return system


class FakeClock:
    """A controllable monotonic clock for deterministic service tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, amount: float) -> None:
        self.now += amount


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30))


# ---------------------------------------------------------------------------
# Tenants and token buckets
# ---------------------------------------------------------------------------


class TestTenantConfig:
    def test_defaults(self):
        tenant = TenantConfig("acme")
        assert tenant.priority == 0
        assert tenant.rate is None
        assert tenant.deadline is None

    def test_burst_defaults_to_ceiled_rate(self):
        assert TenantConfig("t", rate=2.5).burst == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"rate": float("inf")},
            {"rate": 1.0, "burst": 0},
            {"deadline": 0.0},
            {"deadline": float("nan")},
        ],
    )
    def test_rejects_nonsense(self, kwargs):
        with pytest.raises(TenantConfigError):
            TenantConfig("t", **kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TenantConfigError, match="unknown"):
            TenantConfig.from_dict({"name": "t", "quota": 4})

    def test_from_dict_needs_name(self):
        with pytest.raises(TenantConfigError, match="name"):
            TenantConfig.from_dict({"priority": 1})

    def test_tenant_map_rejects_duplicates(self):
        with pytest.raises(TenantConfigError, match="duplicate"):
            tenant_map([TenantConfig("t"), TenantConfig("t")])


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(1.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(1.0)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        bucket.try_take(0.0)
        bucket.try_take(1000.0)
        assert bucket.tokens <= 2.0


# ---------------------------------------------------------------------------
# Admission controller
# ---------------------------------------------------------------------------


class TestAdmission:
    def make(self, **kwargs) -> AdmissionController:
        tenants = tenant_map(
            [
                TenantConfig("gold", priority=2),
                TenantConfig("bronze", priority=0, rate=1.0, burst=1),
            ]
        )
        return AdmissionController(tenants, **kwargs)

    def test_admits_and_releases_capacity(self):
        controller = self.make(capacity_bytes=100.0)
        ticket = controller.admit("gold", 0.0, queue_depth=0, cost_estimate=60.0)
        assert not isinstance(ticket, Rejection)
        assert controller.inflight_bytes == pytest.approx(60.0)
        controller.release(ticket)
        assert controller.inflight_bytes == pytest.approx(0.0)

    def test_over_capacity_rejects_with_retry_after(self):
        controller = self.make(capacity_bytes=100.0)
        controller.admit("gold", 0.0, queue_depth=0, cost_estimate=80.0)
        rejection = controller.admit(
            "gold", 0.0, queue_depth=1, cost_estimate=40.0
        )
        assert isinstance(rejection, Rejection)
        assert rejection.reason == REJECT_COST
        assert rejection.retry_after > 0

    def test_zero_capacity_sheds_everything(self):
        controller = self.make(capacity_bytes=0.0)
        for _ in range(10):
            rejection = controller.admit(
                "gold", 0.0, queue_depth=0, cost_estimate=0.0
            )
            assert isinstance(rejection, Rejection)
            assert rejection.reason == REJECT_COST

    def test_queue_bound(self):
        controller = self.make(max_queue=2)
        rejection = controller.admit("gold", 0.0, queue_depth=2)
        assert isinstance(rejection, Rejection)
        assert rejection.reason == REJECT_QUEUE_FULL

    def test_rate_limit_with_retry_after(self):
        controller = self.make()
        assert not isinstance(
            controller.admit("bronze", 0.0, queue_depth=0), Rejection
        )
        rejection = controller.admit("bronze", 0.0, queue_depth=0)
        assert isinstance(rejection, Rejection)
        assert rejection.reason == REJECT_RATE
        assert rejection.retry_after == pytest.approx(1.0)

    def test_priority_shed_under_degrade(self):
        controller = self.make(shed_priority_floor=1)
        rejection = controller.admit(
            "bronze", 0.0, queue_depth=0, degrade_level=DEGRADE_SHED
        )
        assert isinstance(rejection, Rejection)
        assert rejection.reason == REJECT_PRIORITY
        # High-priority tenants stay admitted at the same level.
        assert not isinstance(
            controller.admit(
                "gold", 0.0, queue_depth=0, degrade_level=DEGRADE_SHED
            ),
            Rejection,
        )

    def test_unknown_tenant_gets_default_shape_own_bucket(self):
        controller = AdmissionController(
            {}, default_tenant=TenantConfig("default", rate=1.0, burst=1)
        )
        assert not isinstance(
            controller.admit("stranger-a", 0.0, queue_depth=0), Rejection
        )
        # Own bucket: a second stranger is not throttled by the first.
        assert not isinstance(
            controller.admit("stranger-b", 0.0, queue_depth=0), Rejection
        )
        rejection = controller.admit("stranger-a", 0.0, queue_depth=0)
        assert isinstance(rejection, Rejection)

    def test_rejection_to_dict_is_structured(self):
        rejection = Rejection(REJECT_COST, "t", retry_after=1.5, detail="x")
        data = rejection.to_dict()
        assert data["reason"] == REJECT_COST
        assert data["retry_after"] == 1.5
        assert set(data) == {
            "reason", "tenant", "retry_after", "detail",
            "degrade_level", "queue_depth",
        }


class TestCostEstimator:
    def test_estimates_sum_of_base_relations(self):
        system = chain_system(BASE_RULES + S0_ROUTE)
        tables = system.tables()
        single = tables["R0"].byte_size()
        assert single > 0
        assert estimate_query_bytes(system, PAIR_QUERY) == pytest.approx(
            single + tables["R1"].byte_size()
        )

    def test_memoizes_per_table_object(self):
        system = chain_system(BASE_RULES)
        first = estimate_query_bytes(system, PAIR_QUERY)
        assert estimate_query_bytes(system, PAIR_QUERY) == first
        # Reloading instances swaps the table objects the estimate reads.
        system.load_instances(chain_instances(16))
        assert estimate_query_bytes(system, PAIR_QUERY) > first


# ---------------------------------------------------------------------------
# Single-flight: identical admitted requests share their flight's run
# ---------------------------------------------------------------------------


def serve_concurrently(system, texts, **kwargs):
    """Submit every text at once to a fresh service; ``(service,
    outcomes)`` once it has drained."""

    async def scenario():
        service = QueryService(system, **kwargs)
        await service.start()
        outcomes = await asyncio.gather(*(service.submit(text) for text in texts))
        await service.stop()
        return service, outcomes

    return run(scenario())


class TestSingleFlight:
    def test_concurrent_same_key_coalesces(self):
        service, outcomes = serve_concurrently(
            chain_system(BASE_RULES + S0_ROUTE), [PAIR_QUERY] * 5, workers=4
        )
        # The first request opened the flight and queued; the other four
        # were admitted beside it and share its one audited run.
        assert [o.coalesced for o in outcomes] == [False, True, True, True, True]
        assert len({id(o.result) for o in outcomes}) == 1
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["coalesced"], snapshot["ok"]) == (1, 4, 5)
        assert snapshot["queue_depth"] == 0

    def test_key_released_after_completion(self):
        async def scenario():
            service = QueryService(chain_system(BASE_RULES + S0_ROUTE))
            await service.start()
            first = await service.submit(PAIR_QUERY)
            second = await service.submit(PAIR_QUERY)
            await service.stop()
            return service, first, second

        service, first, second = run(scenario())
        # A flight closes with its outcome: the next identical request
        # runs afresh (the plan cache, not the flight, is the memo).
        assert first.ok and second.ok and not second.coalesced
        assert first.result is not second.result
        assert service.snapshot()["executions"] == 2

    def test_leader_exception_propagates_to_followers(self):
        service, outcomes = serve_concurrently(
            chain_system(BASE_RULES), [PAIR_QUERY] * 3, workers=2
        )
        # A refusal is what the computation came to: every request of
        # the flight gets it, and none of them is an execution.
        assert [o.status for o in outcomes] == ["infeasible"] * 3
        assert len({o.error for o in outcomes}) == 1
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["infeasible"]) == (0, 3)
        assert snapshot["plan_cache"]["misses"] == 1


# ---------------------------------------------------------------------------
# The service: happy path, coalescing, degradation, overload, shutdown
# ---------------------------------------------------------------------------


class TestQueryService:
    def test_submit_requires_start(self):
        service = QueryService(chain_system(BASE_RULES + S0_ROUTE))
        with pytest.raises(ServiceError):
            run(service.submit(PAIR_QUERY))

    def test_serves_and_coalesces_identical_queries(self, monkeypatch):
        from repro.core.planner import SafePlanner
        from repro.distributed.pipeline import QueryPipeline

        system = chain_system(BASE_RULES + S0_ROUTE)
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        built = _count_calls(monkeypatch, QueryPipeline, "__init__")

        async def scenario():
            service = QueryService(system, workers=4)
            await service.start()
            outcomes = await service.serve_all(
                [{"query": PAIR_QUERY} for _ in range(12)]
            )
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        assert all(o.ok for o in outcomes)
        # Identical requests produce identical (byte-identical) results.
        rows = {tuple(sorted(o.result.table.rows)) for o in outcomes}
        assert len(rows) == 1
        snapshot = service.snapshot()
        assert snapshot["ok"] == 12
        assert snapshot["coalesced"] > 0
        # One planner run filled the cache for the whole cold stampede,
        # every request either ran or was served by another's flight,
        # and only the requests that ran built a pipeline.
        assert snapshot["plan_cache"]["misses"] == len(planned) == 1
        assert snapshot["executions"] + snapshot["coalesced"] == 12
        assert sum(o.coalesced for o in outcomes) == snapshot["coalesced"]
        assert len(built) == snapshot["executions"]

    def test_zero_capacity_sheds_every_request_deterministically(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=2, capacity_bytes=0.0)
            await service.start()
            outcomes = await service.serve_all(
                [{"query": PAIR_QUERY} for _ in range(50)]
            )
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        assert len(outcomes) == 50
        assert all(o.status == "shed" for o in outcomes)
        assert {o.rejection.reason for o in outcomes} == {REJECT_COST}
        assert all(o.rejection.retry_after > 0 for o in outcomes)
        snapshot = service.snapshot()
        assert snapshot["shed"] == 50
        assert snapshot["admitted"] == 0 and snapshot["ok"] == 0

    def test_rate_limited_tenant_sheds_with_retry_after(self):
        system = chain_system(BASE_RULES + S0_ROUTE)
        clock = FakeClock()

        async def scenario():
            service = QueryService(
                system,
                tenants=[TenantConfig("slow", rate=1.0, burst=1)],
                workers=1,
                clock=clock,
            )
            await service.start()
            first = await service.submit(PAIR_QUERY, tenant="slow")
            second = await service.submit(PAIR_QUERY, tenant="slow")
            await service.stop()
            return first, second

        first, second = run(scenario())
        assert first.ok
        assert second.status == "shed"
        assert second.rejection.reason == REJECT_RATE
        assert second.rejection.retry_after == pytest.approx(1.0)

    def test_queue_bound_sheds_overflow(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(
                system, workers=1, max_queue=2, shed_priority_floor=0
            )
            await service.start()
            outcomes = await service.serve_all(
                [{"query": PAIR_QUERY} for _ in range(6)]
            )
            await service.stop()
            return outcomes

        outcomes = run(scenario())
        shed = [o for o in outcomes if o.status == "shed"]
        assert shed and all(
            o.rejection.reason == REJECT_QUEUE_FULL for o in shed
        )
        assert any(o.ok for o in outcomes)

    def test_degrade_ladder_sheds_low_priority_first(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(
                system,
                tenants=[
                    TenantConfig("gold", priority=2),
                    TenantConfig("bronze", priority=0),
                ],
                workers=1,
                max_queue=4,
                degrade_soft=0.25,
                degrade_hard=0.5,
            )
            await service.start()
            # All four submissions are created before any yield, so
            # their admissions run back to back ahead of the workers:
            # the fillers push occupancy to the hard watermark and the
            # last two are admitted at DEGRADE_SHED.
            filler = [
                asyncio.ensure_future(service.submit(PAIR_QUERY, tenant="gold"))
                for _ in range(2)
            ]
            bronze = asyncio.ensure_future(
                service.submit(PAIR_QUERY, tenant="bronze")
            )
            gold = asyncio.ensure_future(
                service.submit(PAIR_QUERY, tenant="gold")
            )
            results = await asyncio.gather(*filler, bronze, gold)
            await service.stop()
            return results

        *filler, bronze, gold = run(scenario())
        assert all(o.ok for o in filler)
        assert bronze.status == "shed"
        assert bronze.rejection.reason == REJECT_PRIORITY
        assert gold.ok
        assert gold.degrade_level == DEGRADE_SHED

    def test_deadline_expired_in_queue_is_shed(self):
        system = chain_system(BASE_RULES + S0_ROUTE)
        clock = FakeClock()

        async def scenario():
            service = QueryService(
                system,
                tenants=[TenantConfig("t", deadline=0.5)],
                workers=1,
                clock=clock,
            )
            await service.start()
            task = asyncio.ensure_future(service.submit(PAIR_QUERY, tenant="t"))
            await asyncio.sleep(0)  # admission happened, worker has not run
            clock.advance(1.0)  # the request goes stale in the queue
            outcome = await task
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.status == "shed"
        assert outcome.rejection.reason == REJECT_DEADLINE

    def test_breaker_opens_after_repeated_failures(self):
        # No instances loaded: every execution fails, which must trip
        # the tenant's circuit breaker and fast-shed the next request.
        system = DistributedSystem(
            make_catalog(), Policy(list(BASE_RULES + S0_ROUTE))
        )
        clock = FakeClock()

        async def scenario():
            service = QueryService(
                system, workers=1, breaker_threshold=2, clock=clock
            )
            await service.start()
            first = await service.submit(PAIR_QUERY)
            second = await service.submit(PAIR_QUERY)
            third = await service.submit(PAIR_QUERY)
            await service.stop()
            return first, second, third

        first, second, third = run(scenario())
        assert first.status == "failed"
        assert second.status == "failed"
        assert third.status == "shed"
        assert third.rejection.reason == REJECT_BREAKER

    def test_draining_service_sheds_new_submissions(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            stopper = asyncio.ensure_future(service.stop(drain=True))
            await asyncio.sleep(0)
            outcome = await service.submit(PAIR_QUERY)
            await stopper
            return outcome

        outcome = run(scenario())
        assert outcome.status == "shed"
        assert outcome.rejection.reason == REJECT_SHUTDOWN

    def test_stop_without_drain_resolves_queued_as_shed(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(PAIR_QUERY))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # all admitted and queued
            await service.stop(drain=False)
            return await asyncio.gather(*tasks)

        outcomes = run(scenario())
        # Every submitter got an outcome — no hangs, no partial
        # executions: each is either fully served or cleanly shed.
        assert all(
            o.ok or (o.status == "shed" and o.rejection.reason == REJECT_SHUTDOWN)
            for o in outcomes
        )
        assert any(o.status == "shed" for o in outcomes)

    def test_metrics_exposed_on_registry(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=2, capacity_bytes=0.0)
            await service.start()
            await service.serve_all([{"query": PAIR_QUERY} for _ in range(3)])
            await service.stop()
            return service

        service = run(scenario())
        series = parse_prometheus_text(service.metrics.prometheus_text())
        assert "repro_service_requests_total" in series
        assert "repro_service_shed_total" in series
        shed = series["repro_service_shed_total"]
        assert sum(shed.values()) == 3

    def test_a_stopped_service_is_freed_without_the_cycle_collector(self):
        """Nothing the service wires up (tenant breakers, the listener,
        the flight) refers back to it: a stopped service and what only
        it holds go as soon as the last reference does."""
        import gc
        import weakref

        async def scenario():
            service = QueryService(chain_system(BASE_RULES + S0_ROUTE), workers=1)
            await service.start()
            assert (await service.submit(PAIR_QUERY)).ok
            await service.stop()
            return weakref.ref(service)

        gc.disable()
        try:
            assert run(scenario())() is None
        finally:
            gc.enable()

    def test_raising_observer_never_finishes_a_request_twice(self):
        """A monitor whose ``on_result`` raises is reported, not
        re-finished: the ticket is released once (a second release
        would subtract another request's bytes from the admission
        accounting), the request is counted once, and the submitter
        keeps the ``ok`` its query earned."""
        from repro.chaos import InvariantMonitor

        class Raising(InvariantMonitor):
            def on_result(self, request_id, result):
                raise RuntimeError("observer bug")

        system = chain_system(BASE_RULES + S0_ROUTE)
        releases = []

        async def scenario():
            service = QueryService(
                system, workers=1, capacity_bytes=1e9, monitor=Raising()
            )
            real = service._admission.release
            service._admission.release = lambda ticket: (
                releases.append(ticket), real(ticket)
            )
            await service.start()
            outcome = await service.submit(PAIR_QUERY)
            await service.stop()
            return service, outcome

        service, outcome = run(scenario())
        assert outcome.status == "ok"
        assert len(releases) == 1
        assert service._admission.inflight_bytes == 0
        snapshot = service.snapshot()
        assert (snapshot["ok"], snapshot["failed"]) == (1, 0)
        metrics = service.metrics.snapshot()
        completed = metrics["repro_service_completed_total"]["series"]
        assert sum(completed.values()) == 1
        errors = metrics["repro_service_observer_errors_total"]["series"]
        assert sum(errors.values()) == 1


# ---------------------------------------------------------------------------
# Policy churn racing admission: the regression the service must survive
# ---------------------------------------------------------------------------


class TestChurnRacesAdmission:
    def test_revocation_between_admission_and_execution_no_reroute(self):
        """Revoke the only viable rule after admission, before the
        worker runs: the request must resolve infeasible — never ship
        the revoked transfer."""
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            task = asyncio.ensure_future(service.submit(PAIR_QUERY))
            await asyncio.sleep(0)  # admitted + queued; worker not yet run
            service.revoke_authorization(PIVOT_S0_BASE)
            outcome = await task
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.status == "infeasible"
        assert outcome.result is None  # nothing executed, nothing shipped

    def test_revocation_between_admission_and_execution_with_reroute(self):
        """With an alternative route available, the same race must
        reroute — and the audit log proves every shipped transfer is
        authorized under the *post-revocation* policy."""
        system = chain_system(BASE_RULES + S0_ROUTE + S1_ROUTE)
        # Warm the cache so the race also covers the revalidation path.
        tree, assignment, _ = system.plan(PAIR_QUERY)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            task = asyncio.ensure_future(service.submit(PAIR_QUERY))
            await asyncio.sleep(0)
            service.revoke_authorization(PIVOT_S0_BASE)
            outcome = await task
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.ok
        audit = outcome.result.audit
        assert audit is not None
        assert audit.all_authorized()
        assert len(audit.violations) == 0
        # Independent proof: re-authorize every audited transfer against
        # the policy as it stands after the revocation.
        probe = AuditLog(system.policy, enforce=False)
        for transfer in audit.checked:
            allowed, _ = probe.authorize(
                transfer.sender, transfer.receiver, transfer.profile
            )
            assert allowed, (
                f"transfer {transfer.sender}->{transfer.receiver} is not "
                "covered by the post-revocation policy"
            )

    def test_churned_stampede_never_ships_unauthorized(self):
        """A mixed stampede with a mid-stream revocation: every ok
        outcome audits clean, every non-ok outcome is structured."""
        system = chain_system(BASE_RULES + S0_ROUTE + S1_ROUTE)

        async def scenario():
            service = QueryService(system, workers=4)
            await service.start()
            first = [
                asyncio.ensure_future(service.submit(PAIR_QUERY))
                for _ in range(8)
            ]
            await asyncio.sleep(0)
            service.revoke_authorization(PIVOT_S0_BASE)
            second = [
                asyncio.ensure_future(service.submit(PAIR_QUERY))
                for _ in range(8)
            ]
            outcomes = await asyncio.gather(*first, *second)
            await service.stop()
            return outcomes

        outcomes = run(scenario())
        assert len(outcomes) == 16
        for outcome in outcomes:
            if outcome.ok:
                assert outcome.result.audit.all_authorized()
            else:
                assert outcome.status in ("shed", "infeasible")
        # The revocation did not wedge the service: requests submitted
        # after it still complete (PIVOT_S1 keeps the query feasible).
        assert sum(o.ok for o in outcomes[8:]) == 8

    def test_grant_mid_stream_unlocks_queued_requests(self):
        system = chain_system(BASE_RULES)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            before = await service.submit(PAIR_QUERY)
            service.add_authorization(PIVOT_S0_BASE)
            after = await service.submit(PAIR_QUERY)
            await service.stop()
            return before, after

        before, after = run(scenario())
        assert before.status == "infeasible"
        assert after.ok


# ---------------------------------------------------------------------------
# Prepared shapes: literal variants of one shape stay separate queries
# ---------------------------------------------------------------------------


def variant(value: int) -> str:
    return f"{PAIR_QUERY} WHERE a0 = 'v{value}'"


def variant_system(rules) -> DistributedSystem:
    """The chain world with string keys in ``R0.a0``: variant ``n``
    selects the one row ``('v<n>', n)``."""
    system = chain_system(rules)
    system.load_instances({"R0": [{"a0": f"v{i}", "b0": i} for i in range(8)]})
    return system


def served_rows(outcome) -> list:
    table = outcome.result.table
    return [dict(zip(table.attributes, row)) for row in table.rows]


class TestPreparedShapes:
    def test_concurrent_variants_get_their_own_rows_and_only_twins_coalesce(self):
        system = variant_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=8)
            await service.start()
            served = []
            for round_ in range(2):
                # Eight clients at once: clients k and k+4 are twins (the
                # same variant), the other pairs send other variants.
                values = [client % 4 + 4 * round_ for client in range(8)]
                outcomes = await asyncio.gather(
                    *(service.submit(variant(value)) for value in values)
                )
                served += zip(values, outcomes)
            await service.stop()
            return service, served

        service, served = run(scenario())
        assert len(served) == 16
        for value, outcome in served:
            assert outcome.ok
            assert served_rows(outcome) == [{"a0": f"v{value}", "b1": value}]
            assert outcome.result.audit.all_authorized()
        snapshot = service.snapshot()
        # Eight texts of one shape, parsed once: one was planned, seven
        # were bound, and a request shared a run only with its twin
        # (one key for the shape would coalesce seven of every eight).
        assert (snapshot["executions"], snapshot["coalesced"]) == (8, 8)
        runs = {}
        for value, outcome in served:
            runs.setdefault(id(outcome.result), set()).add(value)
        assert len(runs) == 8
        assert all(len(values) == 1 for values in runs.values())
        cache = snapshot["plan_cache"]
        assert (cache["misses"], cache["shape_hits"], cache["hits"]) == (8, 7, 0)
        assert len(system._skeletons) == 1

    def test_revoking_the_shapes_route_reaches_the_very_next_variant(self):
        system = variant_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            outcomes = [await service.submit(variant(0))]
            service.revoke_authorization(PIVOT_S0_BASE)
            outcomes.append(await service.submit(variant(1)))
            service.add_authorization(PIVOT_S0_BASE)
            outcomes.append(await service.submit(variant(2)))
            await service.stop()
            return service, outcomes

        service, (before, revoked, regranted) = run(scenario())
        assert before.ok
        # The shape's decision ships R1 to S0: the next variant is not
        # bound from it once the rule is gone, and nothing executes.
        assert revoked.status == "infeasible"
        assert revoked.result is None
        assert regranted.ok
        assert served_rows(regranted) == [{"a0": "v2", "b1": 2}]
        cache = service.snapshot()["plan_cache"]
        assert (cache["shape_hits"], cache["revalidation_failures"]) == (0, 1)

    def test_a_revoked_route_replans_the_next_variant_onto_the_other(self):
        system = variant_system(BASE_RULES + S0_ROUTE + S1_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            outcomes = [await service.submit(variant(0))]
            # The shape's decision is the semi-join [S1, S0], whose probe
            # S1 -> S0 ships under this rule.
            service.revoke_authorization(PIVOT_S0_BASE)
            outcomes += [await service.submit(variant(value)) for value in (1, 2)]
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        probe = AuditLog(system.policy, enforce=False)
        routes = []
        for value, outcome in enumerate(outcomes):
            assert outcome.ok
            assert served_rows(outcome) == [{"a0": f"v{value}", "b1": value}]
            transfers = outcome.result.audit.checked
            routes.append([(transfer.sender, transfer.receiver) for transfer in transfers])
            if value:
                for transfer in transfers:
                    assert probe.authorize(
                        transfer.sender, transfer.receiver, transfer.profile
                    )[0]
        assert routes == [[("S1", "S0"), ("S0", "S1")], [("S0", "S1")], [("S0", "S1")]]
        # Replanned once, around the revocation; the variant after it is
        # bound from the new decision.
        cache = service.snapshot()["plan_cache"]
        assert (cache["shape_hits"], cache["revalidation_failures"]) == (1, 1)

    @pytest.mark.parametrize("capacity", [None, 1e9])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("SELEC a0 FROM R0", "expected SELECT, found 'SELEC' (at position 0)"),
            ("SELECT nope FROM R0", "SELECT references 'nope'"),
            (f"{PAIR_QUERY} WHERE a0 = 'v1", "unterminated string literal (at position 52)"),
        ],
    )
    def test_a_text_that_does_not_bind_fails_once_and_alike(self, capacity, text, message):
        system = variant_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(
                system, workers=1, capacity_bytes=capacity, breaker_threshold=1
            )
            await service.start()
            outcomes = [await service.submit(variant(1))]
            outcomes += [await service.submit(text, tenant="t") for _ in range(2)]
            outcomes.append(await service.submit(variant(2), tenant="t"))
            await service.stop()
            return service, outcomes

        service, (warm, bad, again, after) = run(scenario())
        assert warm.ok
        for outcome in (bad, again):
            assert outcome.status == "failed"
            assert outcome.error.startswith("invalid query: ")
            assert message in outcome.error
        # A typo is no execution failure: the tenant's breaker
        # (threshold 1) stays closed.
        assert after.ok
        snapshot = service.snapshot()
        assert (snapshot["failed"], snapshot["infeasible"], snapshot["ok"]) == (2, 0, 2)
        assert snapshot["admitted"] == 2
        completed = service.metrics.counter("repro_service_completed_total")
        assert completed.value(tenant="t", status="failed") == 2
        assert completed.value(tenant="t", status="infeasible") == 0
        latency = service.metrics.histogram("repro_service_latency_seconds")
        assert latency.count(tenant="t") == 3


# ---------------------------------------------------------------------------
# The priced spine: what outlives a request is derived once, what
# protects Def. 3.3 runs on every request
# ---------------------------------------------------------------------------

#: The six coalition shapes of the ledger's ``serve_hot`` workload.
COALITION_SHAPES = (
    "SELECT Vessel, Berth, Cargo_class "
    "FROM Arrivals JOIN Declarations ON Vessel = Decl_vessel",
    "SELECT Covered_client, Risk_band, Container_count "
    "FROM Cover JOIN Manifests ON Covered_client = Client",
    "SELECT Client, Container_count, Premium "
    "FROM Manifests JOIN Cover ON Client = Covered_client",
    "SELECT Ship, Container_count, Duty "
    "FROM Manifests JOIN Declarations ON Ship = Decl_vessel",
    "SELECT Berth, Client FROM Arrivals JOIN Manifests ON Vessel = Ship",
    "SELECT Covered_client, Risk_band, Cargo_class "
    "FROM Cover JOIN Manifests ON Covered_client = Client "
    "JOIN Declarations ON Ship = Decl_vessel",
)


class TestPricedSpine:
    def test_600_hot_requests_derive_once_and_check_every_time(self, monkeypatch):
        import repro.distributed.pipeline as pipeline
        import repro.engine.executor as executor
        import repro.obs.metrics as metrics
        from repro.algebra.builder import QuerySpec
        from repro.workloads.coalition import (
            coalition_catalog,
            coalition_policy,
            generate_coalition_instances,
        )

        system = DistributedSystem(coalition_catalog(), coalition_policy())
        system.load_instances(generate_coalition_instances())
        labelsets = _count_calls(monkeypatch, metrics, "_labelset")
        identities = _count_calls(monkeypatch, QuerySpec, "_identity")
        derived = _count_calls(monkeypatch, executor, "derive_join_steps")
        verified = _count_calls(monkeypatch, pipeline, "verify_assignment")
        probed = _count_verifier_probes(monkeypatch)
        audited = _count_calls(monkeypatch, AuditLog, "authorize")

        async def scenario():
            service = QueryService(
                system, tenants=[TenantConfig(f"t{n}") for n in range(3)]
            )
            await service.start()
            outcomes = []

            async def client(k):
                # Clients k and k + 6 walk the shapes in step: identical
                # requests are in flight together and coalesce.
                for i in range(75):
                    n = k + i
                    outcomes.append(
                        await service.submit(
                            COALITION_SHAPES[n % 6], tenant=f"t{n // 6 % 3}"
                        )
                    )

            await asyncio.gather(*(client(k) for k in range(8)))
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        snapshot = service.snapshot()
        statuses = [outcome.status for outcome in outcomes]
        assert statuses.count("ok") + statuses.count("infeasible") == 600
        assert statuses.count("infeasible") >= 90  # berth_client has no safe plan
        # Every served request ran, or was served by its twin's flight.
        executions = snapshot["executions"]
        assert snapshot["coalesced"] > 0
        assert executions + snapshot["coalesced"] == statuses.count("ok")
        assert sum(o.coalesced for o in outcomes) == snapshot["coalesced"]

        # Derived once, on the thing that outlives the request: a series
        # is resolved on its first touch, a text is fingerprinted once,
        # an assignment is read into join steps once.
        series = sum(len(f.labelsets()) for f in service.metrics.families())
        assert len(labelsets) == series
        assert len(identities) == len(COALITION_SHAPES)
        assert len(derived) == len(COALITION_SHAPES) - 1

        # Checked on every request, as at the parent commit (which ran
        # this traffic with 506 verifications and 1 008 probes for the
        # same 501 executions: an adopted plan was verified twice): one
        # verification per execution, each probing CanView as often as
        # a verification of that assignment on its own does, and one
        # authorize per transfer.
        assert len(verified) == executions
        during = len(probed)
        alone = {}
        for _, assignment in verified[:executions]:
            if id(assignment) not in alone:
                before = len(probed)
                pipeline.verify_assignment(system.policy, assignment)
                alone[id(assignment)] = len(probed) - before
        assert during == sum(alone[id(a)] for _, a in verified[:executions])
        transfers = {id(o.result): len(o.result.transfers) for o in outcomes if o.ok}
        assert len(transfers) == executions
        assert len(audited) == sum(transfers.values())
        assert all(o.result.audit.all_authorized() for o in outcomes if o.ok)

    def test_a_reload_by_either_door_is_what_the_next_execution_reads(self):
        from repro.engine.data import Table

        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system)
            await service.start()
            served = [served_rows(await service.submit(PAIR_QUERY))]
            system.load_instances({"R1": [{"a1": 0, "b1": "reloaded"}]})
            served.append(served_rows(await service.submit(PAIR_QUERY)))
            system.server("S1").load_table("R1", Table(["a1", "b1"], [(1, "direct")]))
            served.append(served_rows(await service.submit(PAIR_QUERY)))
            await service.stop()
            return served

        first, reloaded, direct = run(scenario())
        assert len(first) == 8
        assert reloaded == [{"a0": 0, "b1": "reloaded"}]
        assert direct == [{"a0": 1, "b1": "direct"}]
        assert list(system.tables()) == ["R0", "R1", "R2"]


# ---------------------------------------------------------------------------
# One flight per request: only the leader builds a pipeline and plans
# ---------------------------------------------------------------------------

INSPECTION, DUTY = COALITION_SHAPES[0], COALITION_SHAPES[3]


def coalition_system() -> DistributedSystem:
    from repro.workloads.coalition import (
        coalition_catalog,
        coalition_policy,
        generate_coalition_instances,
    )

    system = DistributedSystem(coalition_catalog(), coalition_policy())
    system.load_instances(generate_coalition_instances())
    return system


def audited_under(policy, result) -> bool:
    """Whether every transfer of ``result`` is covered by ``policy`` as
    it stands now (an independent re-probe, not the run's own audit)."""
    probe = AuditLog(policy, enforce=False)
    return result.audit.all_authorized() and all(
        probe.authorize(t.sender, t.receiver, t.profile)[0]
        for t in result.audit.checked
    )


def on_first_flight(action):
    """A monitor that calls ``action(key)`` when the first flight opens:
    after its leader computed the key, before the leader runs."""
    from repro.chaos import InvariantMonitor

    class OnFirstFlight(InvariantMonitor):
        def __init__(self):
            super().__init__()
            self.keys = []

        def flight_lead(self, key):
            super().flight_lead(key)
            self.keys.append(key)
            if len(self.keys) == 1:
                action(key)

    return OnFirstFlight()


class TestOneFlight:
    def test_one_text_to_two_recipients_plans_once_and_runs_twice(self, monkeypatch):
        from repro.core.planner import SafePlanner

        system = coalition_system()
        planned = _count_calls(monkeypatch, SafePlanner, "plan")
        recipients = ("S_port", "S_customs")

        async def scenario():
            service = QueryService(system, workers=4)
            await service.start()
            outcomes = await asyncio.gather(
                *(service.submit(INSPECTION, recipient=r) for r in recipients)
            )
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        assert len(planned) == 1
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["coalesced"]) == (2, 0)
        for recipient, outcome in zip(recipients, outcomes):
            assert outcome.ok and outcome.result.result_server == recipient
            assert audited_under(system.policy, outcome.result)
        # Customs computes the answer; the port's copy is delivered by a
        # closing transfer of its own run, audited like the others.
        assert [
            [(t.sender, t.receiver) for t in outcome.result.audit.checked]
            for outcome in outcomes
        ] == [
            [("S_port", "S_customs"), ("S_customs", "S_port")],
            [("S_port", "S_customs")],
        ]

    @pytest.mark.parametrize(
        "order",
        [("plain", "plain", "prof", "prof"), ("plain", "prof", "plain", "prof")],
    )
    def test_profiled_and_unprofiled_requests_never_share_a_run(self, order):
        system = coalition_system()

        async def scenario():
            service = QueryService(
                system,
                tenants=[TenantConfig("plain"), TenantConfig("prof", profile=True)],
            )
            await service.start()
            outcomes = await asyncio.gather(
                *(service.submit(INSPECTION, tenant=tenant) for tenant in order)
            )
            await service.stop()
            return service, outcomes

        service, outcomes = run(scenario())
        for tenant, outcome in zip(order, outcomes):
            assert outcome.ok
            # A profiled tenant gets a profile; a plain one never
            # receives somebody else's.
            assert (outcome.result.profile is not None) == (tenant == "prof")
        runs = service.metrics.counter("repro_service_profile_runs_total")
        assert runs.value(tenant="prof") >= 1
        assert runs.value(tenant="plain") == 0

    def test_a_revoke_between_key_and_leader_replans_and_splits_the_flight(self):
        system = chain_system(BASE_RULES + S0_ROUTE + S1_ROUTE)
        warm_route = system.plan(PAIR_QUERY)[1].describe()
        service = None
        monitor = on_first_flight(
            lambda key: service.revoke_authorization(PIVOT_S0_BASE)
        )

        async def scenario():
            await service.start()
            outcomes = await asyncio.gather(
                *(service.submit(PAIR_QUERY) for _ in range(2))
            )
            await service.stop()
            return outcomes

        service = QueryService(system, workers=4, monitor=monitor)
        granted = system.policy.epoch
        first, second = run(scenario())
        revoked = system.policy.epoch
        # The first request's key carries the epoch before the revoke;
        # the second computed its key after it and led its own flight.
        assert granted != revoked
        assert [key[-1] for key in monitor.keys] == [granted, revoked]
        assert not first.coalesced and not second.coalesced
        for outcome in (first, second):
            assert outcome.ok
            assert audited_under(system.policy, outcome.result)
        # The leader replanned around the revocation instead of shipping
        # the cached route.
        cache = service.snapshot()["plan_cache"]
        assert cache["revalidation_failures"] == 1
        assert system.plan(PAIR_QUERY)[1].describe() != warm_route
        assert monitor.ok

    def test_a_regranted_route_serves_the_very_next_duty_request(self):
        from repro.workloads.coalition import coalition_authorization

        system = coalition_system()
        rule = coalition_authorization(5)
        service = QueryService(system, workers=4)

        async def scenario():
            await service.start()
            service.revoke_authorization(rule)
            refused = await asyncio.gather(*(service.submit(DUTY) for _ in range(2)))
            service.add_authorization(rule)
            served = await service.submit(DUTY)
            await service.stop()
            return refused, served

        refused, served = run(scenario())
        assert [o.status for o in refused] == ["infeasible", "infeasible"]
        assert served.ok and audited_under(system.policy, served.result)

    def test_a_regrant_inside_an_open_flight_is_what_its_leader_plans_under(self):
        from repro.workloads.coalition import coalition_authorization

        system = coalition_system()
        rule = coalition_authorization(5)
        service = None
        monitor = on_first_flight(lambda key: service.add_authorization(rule))

        async def scenario():
            service.revoke_authorization(rule)
            await service.start()
            outcomes = await asyncio.gather(*(service.submit(DUTY) for _ in range(3)))
            await service.stop()
            return outcomes

        service = QueryService(system, workers=4, monitor=monitor)
        outcomes = run(scenario())
        # Keyed while the rule was revoked, the first flight's leader
        # still plans under the re-grant: nobody is refused.
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert all(audited_under(system.policy, o.result) for o in outcomes)
        assert monitor.ok

    def test_a_revoke_between_a_followers_admission_and_its_leaders_run(self):
        system = chain_system(BASE_RULES + S0_ROUTE + S1_ROUTE)
        warm_route = system.plan(PAIR_QUERY)[1].describe()
        monitor = on_first_flight(lambda key: None)
        service = QueryService(system, workers=1, monitor=monitor)

        async def scenario():
            await service.start()
            admitted = [asyncio.ensure_future(service.submit(PAIR_QUERY)) for _ in range(2)]
            await asyncio.sleep(0)  # a queued leader and its follower
            service.revoke_authorization(PIVOT_S0_BASE)
            twin = asyncio.ensure_future(service.submit(PAIR_QUERY))
            outcomes = await asyncio.gather(*admitted, twin)
            await service.stop()
            return outcomes

        granted = system.policy.epoch
        leader, follower, twin = run(scenario())
        # The follower was admitted before the revoke and shares the run
        # its leader planned after it; the twin, admitted after it,
        # leads a flight of its own.
        assert [key[-1] for key in monitor.keys] == [granted, system.policy.epoch]
        assert [o.coalesced for o in (leader, follower, twin)] == [False, True, False]
        assert follower.result is leader.result and twin.result is not leader.result
        for outcome in (leader, twin):
            assert outcome.ok and audited_under(system.policy, outcome.result)
        assert leader.result.audit.epoch == system.policy.epoch
        assert system.plan(PAIR_QUERY)[1].describe() != warm_route
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["plan_cache"]["revalidation_failures"]) == (2, 1)
        assert monitor.ok

    def test_a_follower_queued_past_its_own_deadline_is_shed_alone(self):
        system = chain_system(BASE_RULES + S0_ROUTE)
        clock = FakeClock()
        service = QueryService(
            system,
            tenants=[TenantConfig("patient"), TenantConfig("hasty", deadline=0.5)],
            workers=1,
            clock=clock,
        )

        async def scenario():
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(PAIR_QUERY, tenant=tenant))
                for tenant in ("patient", "hasty")
            ]
            await asyncio.sleep(0)  # a queued leader and its follower
            clock.advance(1.0)
            outcomes = await asyncio.gather(*tasks)
            await service.stop()
            return outcomes

        patient, hasty = run(scenario())
        # Queue wait is each request's own: the leader's tenant has no
        # deadline and is served; the follower's budget ran out.
        assert patient.ok and not patient.coalesced
        assert hasty.status == "shed" and hasty.rejection.reason == REJECT_DEADLINE
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["coalesced"], snapshot["shed"]) == (1, 0, 1)

    def test_a_queued_leader_inherits_its_most_urgent_followers_priority(self):
        system = chain_system(BASE_RULES + S0_ROUTE)
        service = QueryService(
            system,
            tenants=[
                TenantConfig("low", priority=0),
                TenantConfig("mid", priority=5),
                TenantConfig("high", priority=10),
            ],
            workers=1,
        )
        finished = []

        async def scenario():
            await service.start()
            tasks = []
            for query, tenant in (
                (PAIR_QUERY, "low"),  # opens the flight at priority 0
                ("SELECT a0 FROM R0", "mid"),  # priority-5 work queued ahead of it
                (PAIR_QUERY, "high"),  # attaches at priority 10
            ):
                task = asyncio.ensure_future(service.submit(query, tenant=tenant))
                task.add_done_callback(lambda _, tenant=tenant: finished.append(tenant))
                tasks.append(task)
            await asyncio.sleep(0)  # all admitted, none dequeued
            # Two queued leaders and one follower; the leader's old
            # entry is not a waiting request.
            depth = service.snapshot()["queue_depth"]
            outcomes = await asyncio.gather(*tasks)
            await service.stop()
            return depth, outcomes

        depth, (low, mid, high) = run(scenario())
        assert depth == 3
        # The flight ran at the follower's priority, ahead of the
        # priority-5 work, and its superseded entry ran nothing.
        assert finished == ["low", "high", "mid"]
        assert low.ok and mid.ok and high.ok and high.coalesced
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["coalesced"], snapshot["queue_depth"]) == (2, 1, 0)

    def test_a_refusal_is_never_shared_with_a_request_admitted_after_the_regrant(self):
        """Six clients send the duty shape while its route is revoked and
        re-granted every five outcomes: a request is refused only if a
        revoked policy was in force at some point between its submit
        and its outcome, and served only if a granting one was."""
        from repro.workloads.coalition import coalition_authorization

        system = coalition_system()
        rule = coalition_authorization(5)
        service = QueryService(system, workers=2)

        async def scenario():
            await service.start()
            revoked = [False]  # one entry per policy state, in order
            seen = []

            async def client():
                for _ in range(30):
                    first = len(revoked) - 1
                    outcome = await service.submit(DUTY)
                    seen.append((outcome, revoked[first:]))
                    if len(seen) % 5 == 0:
                        if revoked[-1]:
                            service.add_authorization(rule)
                        else:
                            service.revoke_authorization(rule)
                        revoked.append(not revoked[-1])

            await asyncio.gather(*(client() for _ in range(6)))
            await service.stop()
            return seen

        seen = run(scenario())
        refused = [window for outcome, window in seen if outcome.status == "infeasible"]
        served = [window for outcome, window in seen if outcome.ok]
        assert len(refused) + len(served) == 180
        assert refused and all(any(window) for window in refused)
        assert served and not all(any(window) for window in served)
        assert all(not all(window) for window in served)
        assert service.snapshot()["coalesced"] > 0

    def test_a_hot_closed_loop_shares_flights_without_reprobing(self, monkeypatch):
        """The counting guard, on a closed loop shaped like the ledger's
        ``serve_hot``: 8 clients deal the six coalition shapes over three
        tenants from seeded decks."""
        import random

        from repro.distributed.pipeline import QueryPipeline

        class Flights(ServiceHooks):
            led = 0

            def flight_lead(self, key):
                self.led += 1

        system = coalition_system()
        built = _count_calls(monkeypatch, QueryPipeline, "__init__")
        probed = _count_calls(monkeypatch, DistributedSystem, "_parsed")
        flights = Flights()
        requests = 1200

        async def scenario():
            service = QueryService(
                system, tenants=[TenantConfig(f"t{n}") for n in range(3)], monitor=flights
            )
            await service.start()
            issued = 0

            async def client(k):
                nonlocal issued
                rng = random.Random(k)
                deck = [(shape, f"t{n}") for shape in COALITION_SHAPES for n in range(3)]
                while True:
                    rng.shuffle(deck)
                    for shape, tenant in deck:
                        if issued == requests:
                            return
                        issued += 1
                        await service.submit(shape, tenant=tenant)

            await asyncio.gather(*(client(k) for k in range(8)))
            await service.stop()
            return service.snapshot()

        snapshot = run(scenario())
        assert snapshot["submitted"] == requests
        assert snapshot["executions"] / requests <= 0.52
        assert snapshot["executions"] + snapshot["coalesced"] == snapshot["ok"]
        # Only a flight's leader builds a pipeline (and plans: a refused
        # shape builds one and is no execution), and the flight key is
        # the bound pair submit already holds: one parse-memo probe per
        # request, one more per leader's plan.
        assert len(built) == flights.led
        assert len(probed) == requests + flights.led


# ---------------------------------------------------------------------------
# The scrape endpoint
# ---------------------------------------------------------------------------


class TestMetricsServer:
    @staticmethod
    async def _get(port: int, path: str) -> tuple:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        data = await reader.read()
        writer.close()
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, body.decode()

    def test_metrics_and_healthz(self):
        system = chain_system(BASE_RULES + S0_ROUTE)

        async def scenario():
            service = QueryService(system, workers=1)
            await service.start()
            await service.submit(PAIR_QUERY)
            endpoint = MetricsServer(
                service.metrics, health=lambda: {"queue_depth": 0}
            )
            port = await endpoint.start()
            metrics = await self._get(port, "/metrics")
            health = await self._get(port, "/healthz")
            missing = await self._get(port, "/nope")
            await endpoint.stop()
            await service.stop()
            return metrics, health, missing

        metrics, health, missing = run(scenario())
        assert metrics[0] == 200
        series = parse_prometheus_text(metrics[1])
        assert "repro_service_admitted_total" in series
        assert health[0] == 200 and '"status": "ok"' in health[1]
        assert missing[0] == 404

    def test_non_get_is_rejected(self):
        async def scenario():
            endpoint = MetricsServer(
                QueryService(chain_system(BASE_RULES)).metrics
            )
            port = await endpoint.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /metrics HTTP/1.1\r\n\r\n")
            data = await reader.read()
            writer.close()
            await endpoint.stop()
            return data

        data = run(scenario())
        assert b"405" in data.split(b"\r\n")[0]
