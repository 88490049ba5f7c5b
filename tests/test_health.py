"""Health tracking, circuit breakers and health-aware planning.

Covers the breaker state machine (closed -> open -> half-open and both
ways back), the rolling per-resource statistics, outcome attribution,
the fail-fast path in the shipment retry loop, quarantine-aware
planning with its availability-preserving fallback.  The load-bearing
invariants:

* everything is driven by the injector's logical clock — two identical
  runs produce identical breaker histories;
* quarantine is advisory: an open breaker may cost a replan, never a
  query that still has a safe plan, and never a policy relaxation;
* health never touches authorization — audited runs stay audit-clean
  whatever the breakers do.
"""

from __future__ import annotations

import pytest

from repro.core.authorization import Policy
from repro.distributed.faults import (
    STATUS_DROP,
    STATUS_OK,
    STATUS_RECEIVER_DOWN,
    STATUS_SENDER_DOWN,
    FaultInjector,
)
from repro.distributed.health import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    HealthTracker,
    RollingStats,
)
from repro.distributed.system import DistributedSystem
from repro.engine.resilience import (
    STATUS_BREAKER_OPEN,
    RetryPolicy,
    attempt_shipment,
)
from repro.exceptions import ResilienceConfigError
from repro.testing import grant, quick_catalog
from repro.workloads import generate_instances, medical_catalog, medical_policy

QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)

COALITION_QUERY = "SELECT a, b, c, d FROM R JOIN T ON a = c"


def medical_system() -> DistributedSystem:
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7))
    return system


def two_party_system(third_parties=("TP1", "TP2")) -> DistributedSystem:
    """R @ S1 join T @ S2 where only third parties may coordinate."""
    catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
    rules = []
    for party in third_parties:
        rules += [
            grant(party, "a b"),
            grant(party, "c d"),
            grant(party, "a b c d", "a = c"),
        ]
    system = DistributedSystem(
        catalog, Policy(rules), apply_closure=True, third_parties=list(third_parties)
    )
    system.load_instances(
        {
            "R": [{"a": i % 5, "b": i} for i in range(40)],
            "T": [{"c": i % 5, "d": i * 3} for i in range(40)],
        }
    )
    return system


class TestRollingStats:
    def test_empty_window_is_optimistic(self):
        stats = RollingStats()
        assert stats.success_rate == 1.0
        assert stats.mean_latency == 0.0
        assert stats.observations == 0

    def test_counts_and_mean(self):
        stats = RollingStats(window=8)
        stats.record(True, 2.0)
        stats.record(False, 4.0)
        assert (stats.successes, stats.failures) == (1, 1)
        assert stats.success_rate == 0.5
        assert stats.mean_latency == 3.0

    def test_eviction_beyond_window(self):
        stats = RollingStats(window=2)
        stats.record(False, 10.0)
        stats.record(True, 1.0)
        stats.record(True, 1.0)
        assert stats.observations == 2
        assert stats.failures == 0
        assert stats.success_rate == 1.0
        assert stats.mean_latency == 1.0

    def test_window_validated(self):
        with pytest.raises(ResilienceConfigError):
            RollingStats(window=0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state(1.0) == STATE_CLOSED
        breaker.record_failure(2.0)
        assert breaker.state(2.0) == STATE_OPEN
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state(2.0) == STATE_CLOSED

    def test_open_refuses_until_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.state(5.0) == STATE_OPEN

    def test_cooldown_elapses_into_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        # state() is pure; allow() commits the transition.
        assert breaker.state(10.0) == STATE_HALF_OPEN
        assert breaker.allow(10.0)
        breaker.record_success(10.5)
        assert breaker.state(10.5) == STATE_CLOSED

    def test_failed_probe_reopens_with_escalated_cooldown(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, cooldown_factor=3.0,
            max_cooldown=1000.0,
        )
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)
        assert breaker.trips == 2
        # Escalated cooldown: closed only after 10 * 3 more units.
        assert not breaker.allow(30.0)
        assert breaker.allow(40.0)

    def test_cooldown_escalation_caps(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, cooldown_factor=10.0,
            max_cooldown=50.0,
        )
        now = 0.0
        breaker.record_failure(now)
        for _ in range(4):
            now += 1000.0
            assert breaker.allow(now)
            breaker.record_failure(now)
        # Cooldown is capped at 50, so 60 units later a probe is due.
        assert breaker.allow(now + 60.0)

    def test_success_after_recovery_resets_base_cooldown(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, cooldown_factor=4.0,
            max_cooldown=1000.0,
        )
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)  # cooldown now 40
        assert breaker.allow(50.0)
        breaker.record_success(50.0)  # closed, cooldown back to 10
        breaker.record_failure(60.0)
        assert not breaker.allow(65.0)
        assert breaker.allow(70.0)

    def test_multiple_probes_required_when_configured(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, half_open_probes=2
        )
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_success(10.0)
        assert breaker.state(10.0) == STATE_HALF_OPEN
        breaker.record_success(11.0)
        assert breaker.state(11.0) == STATE_CLOSED

    def test_parameters_validated(self):
        with pytest.raises(ResilienceConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ResilienceConfigError):
            CircuitBreaker(cooldown=0.0)
        with pytest.raises(ResilienceConfigError):
            CircuitBreaker(cooldown=10.0, max_cooldown=0.0)
        # A cap below the base cooldown is floored, not rejected.
        assert CircuitBreaker(cooldown=10.0, max_cooldown=5.0).max_cooldown == 10.0
        with pytest.raises(ResilienceConfigError):
            CircuitBreaker(cooldown_factor=0.5)
        with pytest.raises(ResilienceConfigError):
            CircuitBreaker(half_open_probes=0)
        # Misconfiguration is an ordinary bad argument too.
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestHealthTracker:
    def test_ok_feeds_link_and_both_endpoints(self):
        tracker = HealthTracker()
        tracker.observe_attempt("A", "B", STATUS_OK, 2.0, 1.0)
        assert tracker.link("A", "B").stats.successes == 1
        assert tracker.server("A").stats.successes == 1
        assert tracker.server("B").stats.successes == 1

    def test_receiver_down_blames_receiver_and_link(self):
        tracker = HealthTracker(failure_threshold=1)
        tracker.observe_attempt("A", "B", STATUS_RECEIVER_DOWN, 0.0, 1.0)
        assert tracker.server("B").breaker.state(1.0) == STATE_OPEN
        assert tracker.link("A", "B").breaker.state(1.0) == STATE_OPEN
        assert tracker.server("A").breaker.state(1.0) == STATE_CLOSED

    def test_sender_down_blames_sender_only(self):
        tracker = HealthTracker(failure_threshold=1)
        tracker.observe_attempt("A", "B", STATUS_SENDER_DOWN, 0.0, 1.0)
        assert tracker.server("A").breaker.state(1.0) == STATE_OPEN
        assert tracker.server("B").breaker.state(1.0) == STATE_CLOSED
        assert tracker.link("A", "B").breaker.state(1.0) == STATE_CLOSED

    def test_drop_blames_the_link_only(self):
        tracker = HealthTracker(failure_threshold=1)
        tracker.observe_attempt("A", "B", STATUS_DROP, 1.0, 1.0)
        assert tracker.link("A", "B").breaker.state(1.0) == STATE_OPEN
        assert tracker.server("A").breaker.state(1.0) == STATE_CLOSED
        assert tracker.server("B").breaker.state(1.0) == STATE_CLOSED
        assert tracker.quarantined_links() == (("A", "B"),)
        assert tracker.quarantined_servers() == ()

    def test_allow_consults_link_and_endpoints(self):
        tracker = HealthTracker(failure_threshold=1, cooldown=100.0)
        tracker.observe_attempt("A", "B", STATUS_RECEIVER_DOWN, 0.0, 1.0)
        assert not tracker.allow("A", "B", 2.0)
        # The receiver breaker is open, so other routes into B refuse too.
        assert not tracker.allow("C", "B", 2.0)
        # B as a sender is also gated by its server breaker.
        assert not tracker.allow("B", "C", 2.0)
        assert tracker.allow("C", "D", 2.0)

    def test_quarantine_lists_only_open_not_half_open(self):
        tracker = HealthTracker(failure_threshold=1, cooldown=10.0)
        tracker.observe_attempt("A", "B", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        assert tracker.quarantined_servers() == ("B",)
        tracker.observe_attempt("C", "D", STATUS_OK, 1.0, 20.0)  # advance clock
        assert tracker.quarantined_servers() == ()  # B is due a probe

    def test_breaker_trips_totals_servers_and_links(self):
        tracker = HealthTracker(failure_threshold=1)
        tracker.observe_attempt("A", "B", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        assert tracker.breaker_trips() == 2  # server B + link A->B

    def test_observe_report_replays_attempts(self):
        faults = FaultInjector(seed=3, drop_probability=1.0)
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0)
        report = attempt_shipment(faults, retry, "A", "B", 100.0)
        tracker = HealthTracker(failure_threshold=3)
        tracker.observe_report("A", "B", report, now=faults.clock)
        assert tracker.link("A", "B").stats.failures == 3
        assert tracker.link("A", "B").breaker.state(faults.clock) == STATE_OPEN

    def test_describe_lists_resources(self):
        tracker = HealthTracker(failure_threshold=1)
        assert tracker.describe() == "(no observations)"
        tracker.observe_attempt("A", "B", STATUS_OK, 1.0, 0.0)
        text = tracker.describe()
        assert "server A" in text and "link A->B" in text

    def test_determinism_identical_runs_identical_histories(self):
        def run():
            faults = FaultInjector(seed=9, drop_probability=0.4)
            tracker = HealthTracker(failure_threshold=2, cooldown=5.0)
            retry = RetryPolicy(max_attempts=3, base_delay=0.5)
            outcomes = []
            for _ in range(10):
                report = attempt_shipment(
                    faults, retry, "A", "B", 50.0, health=tracker
                )
                outcomes.append(report.outcomes)
            return outcomes, tracker.breaker_trips(), tracker.describe()

        assert run() == run()


class TestBreakerInShipmentLoop:
    def test_open_breaker_fails_fast_without_attempts(self):
        faults = FaultInjector(seed=0)
        tracker = HealthTracker(failure_threshold=1, cooldown=1000.0)
        tracker.observe_attempt("A", "B", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        clock_before = faults.clock
        report = attempt_shipment(
            faults, RetryPolicy(max_attempts=4), "A", "B", 100.0, health=tracker
        )
        assert not report.delivered
        assert report.outcomes == (STATUS_BREAKER_OPEN,)
        assert faults.clock == clock_before  # no time burned

    def test_breaker_opens_mid_loop_and_stops_retrying(self):
        faults = FaultInjector(seed=0, drop_probability=1.0)
        tracker = HealthTracker(failure_threshold=2, cooldown=1000.0)
        retry = RetryPolicy(max_attempts=5, base_delay=0.5, jitter=0.0)
        report = attempt_shipment(faults, retry, "A", "B", 100.0, health=tracker)
        # Two real failures trip the link breaker; the third slot is the
        # fail-fast record, the remaining two attempts are never made.
        assert report.outcomes[:2] == ("drop", "drop")
        assert report.outcomes[2] == STATUS_BREAKER_OPEN
        assert report.attempt_count == 3

    def test_half_open_probe_success_closes_and_delivers(self):
        faults = FaultInjector(seed=0)
        tracker = HealthTracker(failure_threshold=1, cooldown=5.0)
        tracker.observe_attempt("A", "B", STATUS_DROP, 1.0, 0.0)
        faults.wait(10.0)  # past the cooldown
        report = attempt_shipment(
            faults, RetryPolicy(max_attempts=2), "A", "B", 100.0, health=tracker
        )
        assert report.delivered
        assert tracker.link("A", "B").breaker.state(faults.clock) == STATE_CLOSED


class TestFlappingServer:
    def test_flap_registers_alternating_windows(self):
        faults = FaultInjector(seed=0)
        faults.flap("B", up=5.0, down=5.0, until=30.0)
        assert not faults.is_down("B", at=2.0)
        assert faults.is_down("B", at=7.0)
        assert not faults.is_down("B", at=12.0)
        assert faults.is_down("B", at=17.0)
        assert not faults.is_down("B", at=40.0)  # past `until`

    def test_flap_validation(self):
        faults = FaultInjector(seed=0)
        from repro.exceptions import ExecutionError

        with pytest.raises(ExecutionError):
            faults.flap("B", up=0.0, down=1.0, until=10.0)
        with pytest.raises(ExecutionError):
            faults.flap("B", up=1.0, down=1.0, until=0.0, start=5.0)

    def test_breaker_rides_out_a_flap_and_recovers(self):
        """During the down phase the breaker trips and fails fast; once
        the cooldown lands in an up phase, the half-open probe succeeds
        and traffic resumes — all on the logical clock."""
        faults = FaultInjector(seed=0)
        faults.flap("B", up=10.0, down=10.0, until=200.0)
        tracker = HealthTracker(failure_threshold=2, cooldown=15.0)
        retry = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        delivered_after_trip = False
        for _ in range(100):
            report = attempt_shipment(
                faults, retry, "A", "B", 1.0, health=tracker
            )
            if tracker.breaker_trips() and report.delivered:
                delivered_after_trip = True
                break
            if not report.delivered:
                # Fail-fast burns no simulated time; model the caller
                # doing other work before coming back to this link.
                faults.wait(2.0)
            if faults.clock > 200.0:
                break
        assert tracker.breaker_trips() >= 1
        assert delivered_after_trip
        assert tracker.server("B").breaker.state(faults.clock) == STATE_CLOSED


class TestHealthAwareExecution:
    def test_quarantined_coordinator_avoided_at_planning_time(self):
        system = two_party_system()
        faults = FaultInjector(seed=0)
        health = HealthTracker(failure_threshold=1, cooldown=10_000.0)
        # Teach the tracker that TP1 is down before planning.
        health.observe_attempt("S1", "TP1", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        result = system.execute(
            COALITION_QUERY, faults=faults, health=health,
            retry=RetryPolicy(jitter=0.0),
        )
        assert all(
            t.receiver != "TP1" and t.sender != "TP1" for t in result.transfers
        )
        assert result.audit is not None and result.audit.all_authorized()

    def test_all_coordinators_quarantined_still_completes(self):
        """Quarantine is advisory: with every coordinator quarantined the
        planner falls back to the full server set instead of degrading."""
        system = two_party_system()
        faults = FaultInjector(seed=0)
        health = HealthTracker(failure_threshold=1, cooldown=10_000.0)
        health.observe_attempt("S1", "TP1", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        health.observe_attempt("S1", "TP2", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        # Both coordinators (and even S1/S2) quarantined server-side
        # would leave nothing; the ladder must still find a plan.
        health.observe_attempt("TP1", "S1", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        health.observe_attempt("TP1", "S2", STATUS_RECEIVER_DOWN, 0.0, 0.0)
        baseline = system.execute(COALITION_QUERY)
        result = system.execute(
            COALITION_QUERY, faults=faults, health=health,
            retry=RetryPolicy(jitter=0.0),
        )
        assert result.table == baseline.table
        assert result.audit is not None and result.audit.all_authorized()

    def test_flapping_coordinator_tripped_then_avoided(self):
        """First query trips the breaker on the flapping coordinator;
        later queries route around it proactively."""
        system = two_party_system()
        faults = FaultInjector(seed=0)
        faults.crash("TP1", start=1.0, end=10_000.0)
        health = HealthTracker(failure_threshold=2, cooldown=50_000.0)
        retry = RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.0)
        first = system.execute(
            COALITION_QUERY, faults=faults, health=health, retry=retry
        )
        assert first.failovers >= 1
        assert health.breaker_trips() >= 1
        assert "TP1" in health.quarantined_servers()
        second = system.execute(
            COALITION_QUERY, faults=faults, health=health, retry=retry
        )
        assert second.failovers == 0
        assert all(
            "TP1" not in (t.sender, t.receiver) for t in second.transfers
        )

    def test_health_result_reports_breaker_trips(self):
        system = two_party_system()
        faults = FaultInjector(seed=0)
        faults.crash("TP1", start=1.0, end=10_000.0)
        health = HealthTracker(failure_threshold=2, cooldown=50_000.0)
        result = system.execute(
            COALITION_QUERY, faults=faults, health=health,
            retry=RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.0),
        )
        assert result.breaker_trips == health.breaker_trips() > 0
        assert "breaker trips" in result.summary()

    def test_health_requires_fault_injector(self):
        system = medical_system()
        with pytest.raises(ResilienceConfigError):
            system.execute(QUERY, health=HealthTracker())

    def test_health_never_relaxes_authorization(self):
        """Under heavy flapping, every completed run is audit-clean and
        exact — health changes routing, never what may be seen."""
        system = two_party_system()
        baseline = system.execute(COALITION_QUERY)
        faults = FaultInjector(seed=5, drop_probability=0.3)
        health = HealthTracker(failure_threshold=2, cooldown=20.0)
        retry = RetryPolicy(max_attempts=4, base_delay=0.5)
        for _ in range(5):
            result = system.execute(
                COALITION_QUERY, faults=faults, health=health, retry=retry
            )
            assert result.table == baseline.table
            assert result.audit is not None and result.audit.all_authorized()
