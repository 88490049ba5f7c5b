"""Tests for the service-layer chaos harness (repro.chaos).

Covers the seeded chaos schedule (validation, determinism, kill
windows), the write-ahead service journal and its JSON round-trip, the
online invariant monitor (termination, authorized-transfer re-probe,
single-execution, breaker/degrade/epoch legality), flight promotion
after a leader's own fate and the requeue that keeps a flight open,
fault-injector argument
validation, and the crown jewels: crash-consistent kill/recover through
the service path — a worker dies mid-query, the journal survives a
process boundary, and the resumed execution reuses checkpointed
subtrees without one duplicated or unauthorized transfer.
"""

from __future__ import annotations

import asyncio
import json
import os
from types import SimpleNamespace

import pytest

from repro.chaos import (
    ChaosError,
    ChaosInterrupt,
    ChaosReport,
    ChaosRunConfig,
    ChaosSchedule,
    INV_AUTHORIZED_TRANSFER,
    INV_BREAKER_TRANSITION,
    INV_EPOCH_MONOTONIC,
    INV_SINGLE_EXECUTION,
    INV_TERMINATION,
    InvariantMonitor,
    ServiceJournal,
    replay_artifact,
    run_chaos,
)
from repro.chaos.journal import ADMITTED, COMPLETED, JournalError
from repro.chaos.replay import write_run_artifact
from repro.chaos.schedule import chaos_event_key
from repro.core.authorization import Policy
from repro.distributed.faults import FaultInjector
from repro.distributed.system import DistributedSystem
from repro.engine.audit import AuditLog
from repro.exceptions import ExecutionError, FaultConfigError, ReproError
from repro.io.serialize import (
    service_journal_from_dict,
    service_journal_to_dict,
)
from repro.service import (
    FAILED,
    OK,
    REJECT_DEADLINE,
    REJECT_RECOVERY,
    SHED,
    QueryOutcome,
    QueryService,
    ServiceError,
    TenantConfig,
)
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

# ---------------------------------------------------------------------------
# Fixtures
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
S0_ROUTE = (grant("S0", "a1 b1"), grant("S0", "a0 b0 a1 b1", "b0 = a1"))

PAIR_QUERY = "SELECT a0, b1 FROM R0 JOIN R1 ON b0 = a1"

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def chain_system(rules=BASE_RULES + S0_ROUTE, **kwargs) -> DistributedSystem:
    system = DistributedSystem(make_catalog(), Policy(list(rules)), **kwargs)
    system.load_instances(
        {
            "R0": [{"a0": i, "b0": i} for i in range(8)],
            "R1": [{"a1": i, "b1": i} for i in range(8)],
            "R2": [{"a2": i, "b2": i} for i in range(8)],
        }
    )
    return system


def medical_system(citizens: int = 6) -> DistributedSystem:
    system = DistributedSystem(
        medical_catalog(), medical_policy(), plan_cache=True
    )
    system.load_instances(generate_instances(seed=7, citizens=citizens))
    return system


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30))


class DieOnce(ChaosSchedule):
    """A scripted schedule: exactly one worker death at the given
    execute stage, everything else quiet."""

    def __init__(self, stage: str = "post", **kwargs) -> None:
        super().__init__(**kwargs)
        self.die_stage = stage
        self.died = False

    def fire(self, point, **info):
        if point == "execute":
            stage = info.get("stage", "pre")
            if stage == self.die_stage and not self.died:
                self.died = True
                raise ChaosInterrupt(
                    f"scripted death ({stage})", point=point, stage=stage
                )
            return {}
        return super().fire(point, **info)


class CrashLeaderOnce(ChaosSchedule):
    """A scripted schedule: the first ``crashes`` flight-leader run
    attempts crash."""

    def __init__(self, crashes: int = 1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.crashes = crashes

    def fire(self, point, **info):
        if point == "leader" and self.crashes:
            self.crashes -= 1
            error = asyncio.CancelledError("scripted leader crash")
            error.chaos = {"point": point}
            raise error
        if point == "leader":
            return {}
        return super().fire(point, **info)


# ---------------------------------------------------------------------------
# ChaosSchedule
# ---------------------------------------------------------------------------


class TestChaosSchedule:
    def test_is_a_fault_injector(self):
        assert isinstance(ChaosSchedule(seed=1), FaultInjector)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cancel_probability": -0.1},
            {"leader_crash_probability": 1.5},
            {"stall_probability": 2.0},
            {"storm_probability": 0.5},  # storm without rules
            {"clock_jump_probability": -1.0},
            {"stall_ticks": -1},
            {"clock_jump": -2.0},
            {"kill_every": 0},
            {"max_kills": -1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ChaosError):
            ChaosSchedule(seed=0, **kwargs)

    def test_unknown_point_refused(self):
        with pytest.raises(ChaosError):
            ChaosSchedule(seed=0).fire("nonsense")

    def test_same_seed_same_events(self):
        def drive(schedule):
            for _ in range(50):
                schedule.fire("submit")
                schedule.fire("worker")
            return schedule.event_log()

        kwargs = dict(
            seed=11, stall_probability=0.4, clock_jump_probability=0.3,
            clock_jump=2.0, storm_probability=0.5,
            storm_rules=(grant("S0", "a1 b1"),),
        )
        a = drive(ChaosSchedule(**kwargs))
        b = drive(ChaosSchedule(**kwargs))
        assert a == b
        assert chaos_event_key(a) == chaos_event_key(b)
        c = drive(ChaosSchedule(**{**kwargs, "seed": 12}))
        assert chaos_event_key(a) != chaos_event_key(c)

    def test_chaos_draws_leave_base_drops_untouched(self):
        """Service-level chaos must not perturb the wire-drop sequence."""
        plain = FaultInjector(seed=5, drop_probability=0.5)
        chaotic = ChaosSchedule(
            seed=5, drop_probability=0.5, stall_probability=0.9,
            clock_jump_probability=0.9, clock_jump=1.0,
        )
        for _ in range(30):
            chaotic.fire("submit")
            chaotic.fire("worker")
        drops_plain = [plain._rng.random() for _ in range(20)]
        drops_chaotic = [chaotic._rng.random() for _ in range(20)]
        assert drops_plain == drops_chaotic

    def test_storm_toggles_alternate(self):
        rule = grant("S0", "a1 b1")
        schedule = ChaosSchedule(
            seed=2, storm_probability=1.0, storm_rules=(rule,)
        )
        ops = []
        for _ in range(4):
            for op, fired_rule in schedule.fire("submit").get("storm", ()):
                assert fired_rule is rule
                ops.append(op)
        assert ops == ["grant", "revoke", "grant", "revoke"]

    def test_kill_windows(self):
        schedule = ChaosSchedule(seed=0, kill_every=3, max_kills=2)
        kills = []
        for i in range(12):
            schedule.fire("submit")
            kills.append(schedule.kill_due())
        assert kills.count(True) == 2
        assert kills[2] and kills[5]  # one kill per 3-submission window
        assert schedule.kills == 2

    def test_worker_death_raises_with_stage(self):
        schedule = ChaosSchedule(seed=0, cancel_probability=1.0)
        with pytest.raises(ChaosInterrupt) as info:
            schedule.fire("execute", stage="post")
        assert info.value.stage == "post"
        assert info.value.point == "execute"

    def test_leader_crash_is_tagged(self):
        schedule = ChaosSchedule(seed=0, leader_crash_probability=1.0)
        with pytest.raises(asyncio.CancelledError) as info:
            schedule.fire("leader")
        assert getattr(info.value, "chaos", None) is not None

    def test_config_round_trip(self):
        schedule = ChaosSchedule(
            seed=9, cancel_probability=0.2, kill_every=10,
            storm_probability=0.1, storm_rules=(grant("S0", "a1 b1"),),
        )
        config = schedule.config_dict()
        assert config["seed"] == 9
        json.dumps(config)  # JSON-safe


# ---------------------------------------------------------------------------
# ServiceJournal
# ---------------------------------------------------------------------------


class TestServiceJournal:
    def test_write_ahead_lifecycle(self):
        journal = ServiceJournal()
        rid = journal.admit("gold", PAIR_QUERY, None, 3)
        assert rid == 1
        entry = journal.get(rid)
        assert entry.state == ADMITTED and not entry.complete
        assert journal.incomplete() == [entry]
        journal.resolve(rid, QueryOutcome(OK, "gold"))
        assert entry.state == COMPLETED and entry.outcome_status == OK
        assert journal.incomplete() == []
        assert journal.counts() == {
            "admitted": 1, "completed": 1, "incomplete": 0,
        }

    def test_unknown_id_refused(self):
        with pytest.raises(JournalError):
            ServiceJournal().resolve(7, QueryOutcome(OK, "gold"))

    def test_restore_rejects_collisions(self):
        journal = ServiceJournal()
        rid = journal.admit("gold", PAIR_QUERY, None, 0)
        with pytest.raises(JournalError):
            journal.restore(journal.get(rid))

    def test_attempts_and_checkpoint_parking(self):
        journal = ServiceJournal()
        rid = journal.admit("gold", PAIR_QUERY, None, 0)
        journal.requeue(rid, "parked")
        assert journal.get(rid).attempts == 1
        journal.requeue(rid, None)  # a refused checkpoint is dropped
        assert journal.get(rid).attempts == 2
        assert journal.get(rid).checkpoint is None

    def test_json_round_trip(self):
        journal = ServiceJournal()
        first = journal.admit("gold", PAIR_QUERY, "S2", 4)
        second = journal.admit("silver", PAIR_QUERY, None, 5)
        journal.resolve(second, QueryOutcome(SHED, "silver"))
        journal.requeue(first, None)
        data = service_journal_to_dict(journal)
        data = json.loads(json.dumps(data))  # a real process boundary
        again = service_journal_from_dict(data)
        assert len(again) == 2
        mine = again.get(first)
        assert mine.tenant == "gold"
        assert mine.recipient == "S2"
        assert mine.admitted_epoch == 4
        assert mine.attempts == 1
        assert not mine.complete
        assert again.get(second).outcome_status == SHED
        assert [e.request_id for e in again.incomplete()] == [first]
        # Restored ids never collide with fresh admissions.
        assert again.admit("bronze", PAIR_QUERY, None, 6) == 3


# ---------------------------------------------------------------------------
# InvariantMonitor
# ---------------------------------------------------------------------------


class TestInvariantMonitor:
    def test_clean_lifecycle(self):
        monitor = InvariantMonitor()
        monitor.on_admitted(1, "gold")
        monitor.on_outcome(1, OK)
        monitor.assert_quiescent()
        assert monitor.ok
        assert monitor.checks >= 3

    def test_double_admit_and_double_resolve(self):
        monitor = InvariantMonitor()
        monitor.on_admitted(1, "gold")
        monitor.on_admitted(1, "gold")
        monitor.on_outcome(1, OK)
        monitor.on_outcome(1, OK)
        kinds = [v.invariant for v in monitor.violations]
        assert kinds == [INV_TERMINATION, INV_TERMINATION]

    def test_resolve_without_admission(self):
        monitor = InvariantMonitor()
        monitor.on_outcome(9, OK)
        assert [v.invariant for v in monitor.violations] == [INV_TERMINATION]

    def test_unresolved_admission_caught_at_quiescence(self):
        monitor = InvariantMonitor()
        monitor.on_admitted(1, "gold")
        monitor.assert_quiescent()
        assert [v.invariant for v in monitor.violations] == [INV_TERMINATION]
        assert "never" in monitor.violations[0].detail

    def test_adopt_is_idempotent(self):
        monitor = InvariantMonitor()
        monitor.on_admitted(1, "gold")
        monitor.adopt(1, "gold")  # same monitor across restart: no-op
        monitor.on_outcome(1, OK)
        fresh = InvariantMonitor()
        fresh.adopt(2, "gold")  # fresh monitor: registers the obligation
        fresh.on_outcome(2, OK)
        monitor.assert_quiescent()
        fresh.assert_quiescent()
        assert monitor.ok and fresh.ok

    def test_issue_id_is_monotonic(self):
        monitor = InvariantMonitor()
        assert [
            monitor.admit("gold", PAIR_QUERY, None, 0, None) for _ in range(3)
        ] == [1, 2, 3]
        # Behind a journal the monitor checks the journal's id instead.
        assert monitor.admit("gold", PAIR_QUERY, None, 0, None, request_id=9) == 9
        assert monitor.pending() == [1, 2, 3, 9]

    def test_authorized_transfer_probe_accepts_real_run(self):
        system = chain_system()
        result = system.execute(PAIR_QUERY)
        monitor = InvariantMonitor()
        monitor.on_result(1, result)
        assert monitor.ok
        assert monitor.report()["transfers_probed"] == len(
            result.audit.checked
        )

    def test_authorized_transfer_probe_catches_uncovered(self):
        """An audit whose transfers the policy does not cover trips the
        independent re-probe even if the executor flagged nothing."""
        system = chain_system()
        result = system.execute(PAIR_QUERY)
        rogue = AuditLog(Policy([]), enforce=False)
        for transfer in result.audit.checked:
            rogue.record(transfer)
        monitor = InvariantMonitor()
        monitor.on_result(1, SimpleNamespace(audit=rogue))
        assert any(
            v.invariant == INV_AUTHORIZED_TRANSFER for v in monitor.violations
        )

    def test_late_sharer_after_in_place_revoke_is_not_reprobed(self):
        """Policies are updated in place, so a result delivered to a late
        sharer after a revoke carries an audit whose policy has moved on;
        the transfers were authorized at their epoch (the run's own
        delivery re-probed them there) and must not be re-judged against
        the narrowed policy."""
        system = chain_system()
        result = system.execute(PAIR_QUERY)
        assert result.audit.checked
        system.revoke_authorization(S0_ROUTE[0])
        assert result.audit.policy is system.policy
        assert result.audit.epoch != system.policy.epoch
        monitor = InvariantMonitor()
        monitor.on_result(1, result)
        assert monitor.ok
        # The same transfers audited *now* are what the probe exists to
        # catch: the revoke did withdraw their cover.
        replayed = AuditLog(system.policy, enforce=False)
        for transfer in result.audit.checked:
            replayed.record(transfer)
        monitor.on_result(2, SimpleNamespace(audit=replayed))
        assert [v.invariant for v in monitor.violations] == [
            INV_AUTHORIZED_TRANSFER
        ]

    def test_unaudited_result_is_a_violation(self):
        monitor = InvariantMonitor()
        monitor.on_result(1, SimpleNamespace(audit=None))
        assert [v.invariant for v in monitor.violations] == [
            INV_AUTHORIZED_TRANSFER
        ]

    def test_concurrent_duplicate_execution(self):
        monitor = InvariantMonitor()
        monitor.execution_begin(("k", None, 0))
        monitor.execution_begin(("k", None, 0))  # concurrent duplicate
        monitor.execution_end(("k", None, 0))
        monitor.execution_end(("k", None, 0))
        assert [v.invariant for v in monitor.violations] == [
            INV_SINGLE_EXECUTION
        ]

    def test_sequential_reexecution_is_legal(self):
        monitor = InvariantMonitor()
        for _ in range(2):
            monitor.execution_begin(("k", None, 0))
            monitor.execution_end(("k", None, 0))
        assert monitor.ok

    def test_breaker_edges(self):
        monitor = InvariantMonitor()
        monitor.breaker("gold", "closed", "open")
        monitor.breaker("gold", "open", "half-open")
        monitor.breaker("gold", "half-open", "closed")
        assert monitor.ok
        monitor.breaker("gold", "closed", "half-open")
        assert [v.invariant for v in monitor.violations] == [
            INV_BREAKER_TRANSITION
        ]

    def test_epoch_must_not_regress(self):
        monitor = InvariantMonitor()
        monitor.epoch(0, 1)
        monitor.epoch(1, 2)
        assert monitor.ok
        monitor.epoch(2, 1)
        assert [v.invariant for v in monitor.violations] == [
            INV_EPOCH_MONOTONIC
        ]

    def test_violations_carry_the_seed(self):
        monitor = InvariantMonitor()
        monitor.bind_chaos(ChaosSchedule(seed=42))
        monitor.on_outcome(1, OK)
        assert monitor.violations[0].seed == 42

    def test_artifact_round_trip(self, tmp_path):
        monitor = InvariantMonitor()
        monitor.bind_chaos(ChaosSchedule(seed=7, cancel_probability=0.5))
        monitor.on_outcome(1, OK)  # one violation
        path = str(tmp_path / "violation.json")
        monitor.write_artifact(path, extra={"requests": 10})
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["report"]["violations"]
        assert payload["chaos"]["config"]["seed"] == 7
        assert "replay" in payload
        assert payload["run"]["requests"] == 10


# ---------------------------------------------------------------------------
# Flights: promotion is for the leader's own fate
# ---------------------------------------------------------------------------


class _FlightObserver(InvariantMonitor):
    def __init__(self):
        super().__init__()
        self.events = []

    def flight_lead(self, key):
        super().flight_lead(key)
        self.events.append(("lead", key))

    def flight_promote(self, key):
        super().flight_promote(key)
        self.events.append(("promoted", key))


def serve_together(service, requests):
    """Submit ``(query, tenant)`` requests at once to ``service``; the
    outcomes once it has stopped."""

    async def scenario():
        await service.start()
        outcomes = await asyncio.gather(
            *(service.submit(query, tenant=tenant) for query, tenant in requests)
        )
        await service.stop()
        return outcomes

    return run(scenario())


class TestSingleFlightPromotion:
    def test_follower_promoted_after_leader_cancellation(self):
        """A crashed leader whose chaos budget is spent hands the flight
        to its first follower, which has attempts left, and waits on it:
        the promoted follower leads, and every request shares its run."""
        observer = _FlightObserver()
        service = QueryService(
            chain_system(plan_cache=True), workers=4, chaos=CrashLeaderOnce(seed=0),
            monitor=observer, max_chaos_retries=0,
        )
        leader, promoted, follower = serve_together(
            service, [(PAIR_QUERY, "default")] * 3
        )
        assert promoted.status == OK and not promoted.coalesced
        for outcome in (leader, follower):
            assert outcome.coalesced and outcome.result is promoted.result
        key = observer.events[0][1]
        assert observer.events == [("lead", key), ("promoted", key)]
        snapshot = service.snapshot()
        assert (snapshot["result_promotions"], snapshot["executions"], snapshot["failed"]) == (1, 1, 0)
        observer.assert_quiescent()
        assert observer.ok, [v.detail for v in observer.violations]

    def test_a_leader_no_follower_can_relieve_gives_up(self):
        """The give-up needs a follower with attempts left: a crashed
        leader that is alone fails, and so does a promoted one whose only
        follower is the spent leader it relieved — which then leads the
        flight once more and is served."""
        alone = QueryService(
            chain_system(plan_cache=True), chaos=CrashLeaderOnce(seed=0), max_chaos_retries=0
        )
        (outcome,) = serve_together(alone, [(PAIR_QUERY, "default")])
        assert outcome.status == FAILED and "gave up after 1" in outcome.error

        relieved = QueryService(
            chain_system(plan_cache=True), chaos=CrashLeaderOnce(crashes=2, seed=0),
            max_chaos_retries=0,
        )
        first, second = serve_together(relieved, [(PAIR_QUERY, "default")] * 2)
        assert second.status == FAILED and "gave up after 1" in second.error
        assert first.status == OK and not first.coalesced
        snapshot = relieved.snapshot()
        assert (snapshot["result_promotions"], snapshot["executions"]) == (2, 1)

    def test_leader_failure_still_fails_followers(self):
        """Promotion is for the leader's own fate only — an execution
        failure is what the computation came to, and it is shared."""
        # No instances loaded: the run itself fails.
        system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES + S0_ROUTE)))
        service = QueryService(system, workers=2, breaker_threshold=None)
        outcomes = serve_together(service, [(PAIR_QUERY, "default")] * 3)
        assert [o.status for o in outcomes] == [FAILED] * 3
        assert len({o.error for o in outcomes}) == 1
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["result_promotions"]) == (1, 0)

    def test_promotion_through_the_service(self):
        """A leader shed by its own deadline hands the flight over: the
        follower, whose tenant has no deadline, leads and is served."""
        now = [0.0]
        service = QueryService(
            chain_system(plan_cache=True),
            tenants=[TenantConfig("hasty", deadline=0.5), TenantConfig("patient")],
            workers=1,
            clock=lambda: now[0],
        )

        async def scenario():
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(PAIR_QUERY, tenant=tenant))
                for tenant in ("hasty", "patient")
            ]
            await asyncio.sleep(0)  # one queued leader, one follower
            now[0] = 1.0  # the leader's queue wait outruns its deadline
            outcomes = await asyncio.gather(*tasks)
            await service.stop()
            return outcomes

        hasty, patient = run(scenario())
        assert hasty.status == SHED and hasty.rejection.reason == REJECT_DEADLINE
        assert patient.status == OK and not patient.coalesced
        snapshot = service.snapshot()
        assert (snapshot["result_promotions"], snapshot["executions"]) == (1, 1)

    def test_a_chaos_requeue_keeps_followers_attached(self):
        """A crash within the chaos budget requeues the leader with its
        flight still open: nobody is promoted and one run serves all."""
        observer = _FlightObserver()
        service = QueryService(
            chain_system(plan_cache=True), workers=4, chaos=CrashLeaderOnce(seed=0),
            monitor=observer,
        )
        outcomes = serve_together(service, [(PAIR_QUERY, "default")] * 3)
        assert [o.status for o in outcomes] == [OK] * 3
        assert [o.coalesced for o in outcomes] == [False, True, True]
        assert [event for event, _ in observer.events] == ["lead"]
        snapshot = service.snapshot()
        assert (snapshot["executions"], snapshot["result_promotions"]) == (1, 0)
        requeues = service.metrics.counter("repro_service_chaos_requeues_total")
        assert requeues.value() == 1
        observer.assert_quiescent()
        assert observer.ok, [v.detail for v in observer.violations]


# ---------------------------------------------------------------------------
# Satellite: fault-injector argument validation
# ---------------------------------------------------------------------------


class TestFaultArgumentValidation:
    def test_config_error_is_both_hierarchies(self):
        """Callers may catch either ValueError (stdlib idiom) or
        ExecutionError (repro idiom)."""
        assert issubclass(FaultConfigError, ValueError)
        assert issubclass(FaultConfigError, ExecutionError)

    def test_crash_rejects_negative_and_backwards_windows(self):
        faults = FaultInjector(seed=0)
        with pytest.raises(ValueError):
            faults.crash("S0", start=-1.0)
        with pytest.raises(ValueError):
            faults.crash("S0", start=5.0, end=2.0)

    def test_crash_rejects_overlapping_windows_per_server(self):
        faults = FaultInjector(seed=0)
        faults.crash("S0", start=0.0, end=5.0)
        with pytest.raises(FaultConfigError) as info:
            faults.crash("S0", start=3.0, end=8.0)
        assert "overlaps" in str(info.value)
        # Disjoint windows and other servers stay fine.
        faults.crash("S0", start=5.0, end=6.0)
        faults.crash("S1", start=3.0, end=8.0)

    def test_crash_open_ended_overlap(self):
        faults = FaultInjector(seed=0)
        faults.crash("S0", start=10.0)  # down forever
        with pytest.raises(FaultConfigError):
            faults.crash("S0", start=50.0, end=60.0)

    def test_flap_rejects_bad_arguments(self):
        faults = FaultInjector(seed=0)
        with pytest.raises(ValueError):
            faults.flap("S0", up=1.0, down=1.0, until=10.0, start=-1.0)
        with pytest.raises(ValueError):
            faults.flap("S0", up=0.0, down=1.0, until=10.0)
        with pytest.raises(ValueError):
            faults.flap("S0", up=1.0, down=-1.0, until=10.0)

    def test_degrade_link_rejects_bad_factor(self):
        faults = FaultInjector(seed=0)
        with pytest.raises(ValueError):
            faults.degrade_link("S0", "S1", factor=0.5)
        with pytest.raises(ValueError):
            faults.degrade_link("S0", "S1", factor=-2.0)


# ---------------------------------------------------------------------------
# Crash-consistent recovery through the service path
# ---------------------------------------------------------------------------


def make_chaos_service(system, *, chaos=None, journal=None, monitor=None,
                       workers=2, **kwargs):
    return QueryService(
        system,
        tenants=(TenantConfig("gold", priority=1, rate=1e6, burst=1e6),),
        workers=workers,
        chaos=chaos,
        journal=journal,
        monitor=monitor,
        **kwargs,
    )


class TestServiceCrashRecovery:
    def test_worker_death_mid_query_resumes_from_checkpoint(self):
        """Satellite 3: a worker dies after executing (the completion
        was never recorded), the retry resumes from the journaled
        checkpoint, and the audit shows no duplicated or unauthorized
        transfer."""
        system = medical_system()
        baseline = system.execute(MEDICAL_QUERY)
        chaos = DieOnce(stage="post", seed=0)
        journal = ServiceJournal()
        monitor = InvariantMonitor()
        service = make_chaos_service(
            system, chaos=chaos, journal=journal, monitor=monitor
        )

        async def scenario():
            await service.start()
            outcome = await service.submit(MEDICAL_QUERY, tenant="gold")
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.status == OK
        assert chaos.died
        entry = journal.entries()[0]
        assert entry.complete and entry.outcome_status == OK
        assert entry.attempts == 1
        assert entry.checkpoint is not None and len(entry.checkpoint) >= 1
        # The resumed run re-shipped strictly less than a from-scratch
        # execution: parked subtrees were reused, not recomputed.
        assert len(outcome.result.audit.checked) < len(
            baseline.audit.checked
        )
        assert outcome.result.audit.all_authorized()
        assert not outcome.result.audit.violations
        # And the answer is the answer.
        assert sorted(map(str, outcome.result.table)) == sorted(
            map(str, baseline.table)
        )
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]

    def test_a_profiled_leader_parks_nothing_and_its_retry_is_observed(self):
        """A post-stage death of a profiled flight's only run: resumed
        from a parked whole result the retry would observe nothing, so
        the leader parked nothing and reruns from scratch — every
        request is served and the run is harvested."""
        from repro.profiling import StatsStore

        system = medical_system()
        baseline = system.execute(MEDICAL_QUERY)
        chaos = DieOnce(stage="post", seed=0)
        journal = ServiceJournal()
        store = StatsStore()
        service = QueryService(
            system,
            tenants=(TenantConfig("prof", rate=1e6, burst=1e6, profile=True),),
            chaos=chaos,
            journal=journal,
            stats_store=store,
        )
        outcomes = serve_together(service, [(MEDICAL_QUERY, "prof")] * 3)
        assert chaos.died
        assert [o.status for o in outcomes] == [OK] * 3
        assert [o.coalesced for o in outcomes] == [False, True, True]
        leader = journal.entries()[0]
        assert leader.attempts == 1 and leader.checkpoint is None
        assert len(outcomes[0].result.audit.checked) == len(baseline.audit.checked)
        assert store.harvests == 1 and len(store) > 0

    def test_kill_then_recover_resolves_pending_futures(self):
        """kill() leaves journaled futures pending; a successor service
        over the same journal resolves every one."""
        system = medical_system()
        journal = ServiceJournal()
        monitor = InvariantMonitor()
        first = make_chaos_service(
            system, chaos=ChaosSchedule(seed=1), journal=journal,
            monitor=monitor,
        )

        async def scenario():
            await first.start()
            tasks = [
                asyncio.ensure_future(
                    first.submit(MEDICAL_QUERY, tenant="gold")
                )
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # admit + queue, workers not yet run
            await first.kill()
            assert all(not task.done() for task in tasks)
            assert journal.counts()["incomplete"] == 3
            successor = make_chaos_service(
                system, chaos=ChaosSchedule(seed=1), journal=journal,
                monitor=monitor,
            )
            await successor.start()
            recovered = await successor.recover()
            outcomes = await asyncio.gather(*tasks)
            await successor.stop()
            return recovered, outcomes

        recovered, outcomes = run(scenario())
        assert len(recovered) == 3
        assert [o.status for o in outcomes] == [OK, OK, OK]
        assert journal.counts()["incomplete"] == 0
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]

    def test_kill_leaves_followers_pending_and_recover_resolves_each(self):
        """Followers attached to a killed leader's flight are journaled
        requests like any other: kill() leaves them pending, and a
        successor resolves each from its own entry, with its own run."""
        system = medical_system()
        journal = ServiceJournal()
        monitor = InvariantMonitor()
        first = make_chaos_service(system, journal=journal, monitor=monitor)

        async def scenario():
            await first.start()
            tasks = [
                asyncio.ensure_future(first.submit(MEDICAL_QUERY, tenant="gold"))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # one queued leader, two followers
            waiting = first.snapshot()["queue_depth"]
            await first.kill()
            assert not any(task.done() for task in tasks)
            successor = make_chaos_service(system, journal=journal, monitor=monitor)
            await successor.start()
            recovered = await successor.recover()
            await successor.stop()
            return waiting, successor, recovered, await asyncio.gather(*tasks)

        waiting, successor, recovered, outcomes = run(scenario())
        assert waiting == 3
        assert first.snapshot()["executions"] == 0
        assert [o.status for o in outcomes] == [OK] * 3
        assert all(o is r for o, r in zip(outcomes, recovered))
        assert len({id(o.result) for o in outcomes}) == 3
        assert successor.snapshot()["executions"] == 3
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]

    def test_recovered_outcomes_count_like_served_ones(self):
        """Recovery's terminal outcomes reach the same counters a live
        outcome does: ``completed_total`` and the latency histogram
        agree with ``snapshot()``."""
        system = chain_system(plan_cache=True)
        journal = ServiceJournal()
        refused = "SELECT a1, b2 FROM R1 JOIN R2 ON b1 = a2"

        async def scenario():
            first = make_chaos_service(system, journal=journal)
            await first.start()
            tasks = [
                asyncio.ensure_future(first.submit(query, tenant="gold"))
                for query in (PAIR_QUERY, PAIR_QUERY, refused)
            ]
            await asyncio.sleep(0)
            await first.kill()
            successor = make_chaos_service(system, journal=journal)
            await successor.start()
            await successor.recover()
            await successor.stop()
            return successor, await asyncio.gather(*tasks)

        successor, outcomes = run(scenario())
        assert [o.status for o in outcomes] == [OK, OK, "infeasible"]
        snapshot = successor.snapshot()
        assert (snapshot["ok"], snapshot["infeasible"], snapshot["recovered"]) == (2, 1, 3)
        completed = successor.metrics.counter("repro_service_completed_total")
        for status in (OK, "infeasible", FAILED):
            assert completed.value(tenant="gold", status=status) == snapshot[status]
        latency = successor.metrics.histogram("repro_service_latency_seconds")
        assert latency.count(tenant="gold") == 3

    def test_kill_without_journal_sheds_instead_of_hanging(self):
        system = medical_system()
        service = make_chaos_service(system, chaos=ChaosSchedule(seed=1))

        async def scenario():
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(MEDICAL_QUERY, tenant="gold")
                )
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            await service.kill()
            return await asyncio.gather(*tasks)

        outcomes = run(scenario())
        assert all(o.status == SHED for o in outcomes)

    def test_journal_survives_a_process_boundary(self):
        """Kill mid-attempt with a parked checkpoint, serialize the
        journal to JSON, recover from the deserialized copy: the resumed
        execution reuses the checkpoint and stays fully audited."""
        system = medical_system()
        baseline = system.execute(MEDICAL_QUERY)
        chaos = DieOnce(stage="post", seed=0)
        journal = ServiceJournal()
        service = make_chaos_service(system, chaos=chaos, journal=journal)

        async def crash_phase():
            await service.start()
            task = asyncio.ensure_future(
                service.submit(MEDICAL_QUERY, tenant="gold")
            )
            # Spin until the scripted death parked a checkpoint, then
            # crash the service before the giving-up path resolves it.
            for _ in range(200):
                await asyncio.sleep(0)
                entry = journal.entries()[0] if len(journal) else None
                if entry is not None and entry.checkpoint is not None:
                    break
            await service.kill()
            task.cancel()
            return journal

        run(crash_phase())
        entry = journal.entries()[0]
        assert entry.checkpoint is not None
        assert entry.attempts == 1
        assert not entry.complete
        # The process boundary: everything through JSON and back.
        data = json.loads(json.dumps(service_journal_to_dict(journal)))
        restored = service_journal_from_dict(data)
        entry = restored.entries()[0]
        assert entry.checkpoint is not None
        assert entry.future is None  # futures never serialize

        fresh_system = medical_system()
        monitor = InvariantMonitor()
        successor = make_chaos_service(
            fresh_system, journal=restored, monitor=monitor
        )

        async def recover_phase():
            await successor.start()
            outcomes = await successor.recover()
            await successor.stop()
            return outcomes

        outcomes = run(recover_phase())
        assert [o.status for o in outcomes] == [OK]
        result = outcomes[0].result
        assert result.audit.all_authorized()
        assert len(result.audit.checked) < len(baseline.audit.checked)
        assert sorted(map(str, result.table)) == sorted(
            map(str, baseline.table)
        )
        assert restored.counts()["incomplete"] == 0
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]

    def test_recovery_structurally_rejects_revoked_checkpoint(self):
        """A parked checkpoint the current policy no longer covers is
        refused — a ``recovery-rejected`` outcome, not an unaudited
        replay and not a hang."""
        from repro.engine.checkpoint import CheckpointJournal

        granting = chain_system()
        tree, assignment, _ = granting.plan(PAIR_QUERY)
        checkpoint = CheckpointJournal.for_plan(tree)
        join_id = tree.root.node_id
        result = granting.execute(PAIR_QUERY)
        checkpoint.record(
            join_id, "S0", assignment.profile(join_id), result.table
        )
        journal = ServiceJournal()
        rid = journal.admit("gold", PAIR_QUERY, None, 0)
        journal.requeue(rid, checkpoint)
        # The same federation with S0's join grants revoked.
        revoked = chain_system(rules=BASE_RULES + (
            grant("S1", "a0 b0"),
            grant("S1", "a0 b0 a1 b1", "b0 = a1"),
        ))
        monitor = InvariantMonitor()
        service = make_chaos_service(revoked, journal=journal, monitor=monitor)

        async def scenario():
            await service.start()
            outcomes = await service.recover()
            await service.stop()
            return outcomes

        outcomes = run(scenario())
        assert [o.status for o in outcomes] == [SHED]
        assert outcomes[0].rejection.reason == REJECT_RECOVERY
        assert journal.get(rid).outcome_status == SHED
        monitor.assert_quiescent()
        assert monitor.ok

    def test_recovery_never_replays_completed_entries(self):
        system = medical_system()
        journal = ServiceJournal()
        rid = journal.admit("gold", MEDICAL_QUERY, None, 0)
        journal.resolve(rid, QueryOutcome(OK, "gold"))
        service = make_chaos_service(system, journal=journal)

        async def scenario():
            await service.start()
            outcomes = await service.recover()
            await service.stop()
            return outcomes

        assert run(scenario()) == []
        assert service.snapshot()["recovered"] == 0

    def test_recover_requires_journal_and_start(self):
        system = medical_system()
        service = make_chaos_service(system)
        with pytest.raises(ServiceError):
            run(service.recover())
        journaled = make_chaos_service(system, journal=ServiceJournal())
        with pytest.raises(ServiceError):
            run(journaled.recover())

    def test_a_recovered_profiled_request_carries_its_profile(self):
        """Recovery runs the live leader's body: a profiled tenant's
        recovered request is profiled and harvested once."""
        from repro.profiling import QueryProfile

        system = medical_system()
        journal = ServiceJournal()
        tenants = (TenantConfig("prof", rate=1e6, burst=1e6, profile=True),)

        async def scenario():
            first = QueryService(system, tenants=tenants, journal=journal)
            await first.start()
            task = asyncio.ensure_future(first.submit(MEDICAL_QUERY, tenant="prof"))
            await asyncio.sleep(0)
            await first.kill()
            successor = QueryService(system, tenants=tenants, journal=journal)
            await successor.start()
            (recovered,) = await successor.recover()
            await successor.stop()
            return successor, recovered, await task

        successor, recovered, outcome = run(scenario())
        assert outcome is recovered and outcome.status == OK
        assert isinstance(outcome.result.profile, QueryProfile)
        runs = successor.metrics.counter("repro_service_profile_runs_total")
        assert runs.value(tenant="prof") == 1

    def test_a_recovered_request_refused_by_a_newer_policy_is_no_execution(self):
        """A refusal at recovery raises while planning, as on the live
        path: it is not counted, and the monitor sees no run."""
        system = chain_system(plan_cache=True)
        journal = ServiceJournal()
        monitor = InvariantMonitor()

        async def scenario():
            first = make_chaos_service(system, journal=journal, monitor=monitor)
            await first.start()
            task = asyncio.ensure_future(first.submit(PAIR_QUERY, tenant="gold"))
            await asyncio.sleep(0)
            await first.kill()
            for rule in S0_ROUTE:
                system.revoke_authorization(rule)
                if not system.is_feasible(PAIR_QUERY):
                    break
            assert not system.is_feasible(PAIR_QUERY)
            successor = make_chaos_service(system, journal=journal, monitor=monitor)
            await successor.start()
            await successor.recover()
            await successor.stop()
            return successor, await task

        successor, outcome = run(scenario())
        assert outcome.status == "infeasible"
        assert successor.snapshot()["executions"] == 0
        assert monitor.report()["distinct_exec_keys"] == 0
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]

    def test_chaos_retry_budget_gives_up_cleanly(self):
        """Endless injected deaths must terminate in a failed outcome,
        not an infinite requeue loop."""
        system = medical_system()
        chaos = ChaosSchedule(seed=0, cancel_probability=1.0)
        monitor = InvariantMonitor()
        service = make_chaos_service(
            system, chaos=chaos, monitor=monitor, max_chaos_retries=2
        )

        async def scenario():
            await service.start()
            outcome = await service.submit(MEDICAL_QUERY, tenant="gold")
            await service.stop()
            return outcome

        outcome = run(scenario())
        assert outcome.status == FAILED
        assert "gave up" in outcome.error
        monitor.assert_quiescent()
        assert monitor.ok, [v.detail for v in monitor.violations]


# ---------------------------------------------------------------------------
# The seeded end-to-end harness
# ---------------------------------------------------------------------------


def small_config(**overrides):
    kwargs = dict(
        seed=5, requests=30, workers=4,
        cancel_probability=0.15, leader_crash_probability=0.1,
        stall_probability=0.2, storm_probability=0.2,
        clock_jump_probability=0.1, clock_jump=5.0,
        kill_every=12, max_kills=2, spins=2,
    )
    kwargs.update(overrides)
    return ChaosRunConfig(**kwargs)


def small_factory():
    return medical_system(citizens=3)


class TestRunChaos:
    def test_validates_config(self):
        with pytest.raises(ChaosError):
            ChaosRunConfig(requests=0)
        with pytest.raises(ChaosError):
            ChaosRunConfig(spins=-1)

    def test_config_round_trip(self):
        config = small_config()
        again = ChaosRunConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert again.to_dict() == config.to_dict()

    def test_chaotic_run_terminates_clean(self):
        report = run_chaos(small_config(), system_factory=small_factory)
        assert isinstance(report, ChaosReport)
        assert len(report.statuses) == 30
        assert report.kills == 2
        assert report.invariant_violations == 0
        assert report.audit_violations == 0
        assert report.ok_count == 30  # recovery resumes everything
        json.dumps(report.to_dict())  # JSON-safe

    def test_recovery_off_sheds_killed_work(self):
        on = run_chaos(small_config(), system_factory=small_factory)
        off = run_chaos(
            small_config(recovery=False), system_factory=small_factory
        )
        assert off.invariant_violations == 0
        assert off.audit_violations == 0
        assert on.ok_count >= off.ok_count
        assert off.status_counts().get(SHED, 0) >= 1

    def test_same_seed_same_digest(self):
        a = run_chaos(small_config(), system_factory=small_factory)
        b = run_chaos(small_config(), system_factory=small_factory)
        assert a.digest() == b.digest()
        assert a.events == b.events
        assert a.statuses == b.statuses

    def test_different_seed_different_digest(self):
        a = run_chaos(small_config(), system_factory=small_factory)
        b = run_chaos(small_config(seed=6), system_factory=small_factory)
        assert a.digest() != b.digest()

    def test_replay_artifact_reproduces(self, tmp_path):
        config = small_config()
        monitor = InvariantMonitor()
        report = run_chaos(
            config, system_factory=small_factory, monitor=monitor
        )
        path = str(tmp_path / "artifact.json")
        write_run_artifact(report, path, monitor)
        replayed, matched = replay_artifact(
            path, system_factory=small_factory
        )
        assert matched
        assert replayed.digest() == report.digest()

    @pytest.mark.parametrize(
        ("seed", "recovery", "digest"),
        # Each id names the config, not its digest: a re-pin keeps it.
        [
            pytest.param(0, True, "0feac7391917ea2c7932491727833656cf106d57b555fcec2fab836694f036f0", id="0-True"),
            pytest.param(0, False, "6cae471cf59b6fa1d12f313d31dd7833f2981d8b9992d974d8dae7633f515518", id="0-False"),
            pytest.param(1, True, "9eab69c218c7e61e567a4c1226d2517273ba22e89fe441ec158c3655c6bcfa34", id="1-True"),
            pytest.param(1, False, "998b5b41c547d0e0e506b7a71cb1a3e1d8199b2a517ae8240a9e5da48ea18864", id="1-False"),
            pytest.param(2, True, "f79d382522f14362a7aacb321274f6c6b187c17be01cd73d76cde7fb516df326", id="2-True"),
            pytest.param(2, False, "846a08c403af1c6a867335560111fc12d7c8e0f9251f87e7092bb6f5cbca4b79", id="2-False"),
            pytest.param(5, True, "73e840fa4bc9043cf239e824c4789eca0794ef0c0bfdc6ad5b9e2f7b7c989a41", id="5-True"),
            pytest.param(5, False, "0364887191bbe9746625fcb4c08127c0bc1354989cba08291e63cedb642e2cce", id="5-False"),
        ],
    )
    def test_pinned_digest(self, seed, recovery, digest):
        """Leader crashes, worker deaths, stalls, storms, clock jumps and
        kills in a fixed order: the service's event order is pinned."""
        report = run_chaos(
            small_config(seed=seed, recovery=recovery), system_factory=small_factory
        )
        assert report.digest() == digest

    def test_pinned_digest_of_the_default_config(self):
        report = run_chaos(ChaosRunConfig(seed=0))
        assert report.digest() == (
            "d55e0efd4b3a8da5b6bfc6a476290ac64f7602bb196d64fa120db87537bd442e"
        )

    def test_replay_requires_a_config(self, tmp_path):
        path = str(tmp_path / "empty.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"report": {}}, handle)
        with pytest.raises(ReproError):
            replay_artifact(path)


class TestChaosCLI:
    """The ``chaos`` subcommand: seeded runs and one-command replay."""

    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_clean_run_exits_0_and_writes_artifact(self, tmp_path):
        artifact = str(tmp_path / "artifact.json")
        code, output = self.run_cli(
            "chaos", "--seed", "16", "--requests", "60",
            "--kill-every", "20", "--artifact-out", artifact,
        )
        assert code == 0
        assert "invariants clean" in output
        assert "60/60 ok" in output
        assert os.path.exists(artifact)

    def test_replay_matches_recorded_digest(self, tmp_path):
        artifact = str(tmp_path / "artifact.json")
        code, output = self.run_cli(
            "chaos", "--seed", "16", "--requests", "60",
            "--kill-every", "20", "--artifact-out", artifact,
        )
        assert code == 0
        code, output = self.run_cli("chaos", "--replay", artifact)
        assert code == 0
        assert "matched the recorded digest" in output

    def test_replay_missing_artifact_exits_2(self, tmp_path):
        code, output = self.run_cli(
            "chaos", "--replay", str(tmp_path / "missing.json")
        )
        assert code == 2
        assert "cannot replay" in output

    def test_bad_config_exits_2(self):
        code, output = self.run_cli("chaos", "--requests", "0")
        assert code == 2
        assert "requests must be >= 1" in output

    def test_no_recovery_flag_sheds_on_kill(self):
        code, output = self.run_cli(
            "chaos", "--seed", "16", "--requests", "60",
            "--kill-every", "10", "--no-recovery",
        )
        assert code == 0  # shed outcomes are structured, not violations
        assert "recovered 0" in output
