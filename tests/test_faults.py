"""Fault injection, retry/backoff and authorization-safe failover.

Covers the robustness subsystem end to end: the deterministic
:class:`FaultInjector`, the :class:`RetryPolicy` math, the shipment
retry loop, attempt bookkeeping on :class:`Transfer`, executor
behavior under faults, the restricted re-planner with pinned
(materialized) subtrees, system-level failover and degradation, and
the simulator's downtime/retry accounting.

The load-bearing invariants:

* with ``faults=None`` (or a fault-free injector) every output is
  identical to the seed behavior;
* the same seed always reproduces the same fault schedule;
* failover never relaxes safety — every re-planned assignment passes
  the independent verifier, and when no safe alternative exists the
  query degrades (raises) instead of running unsafely.
"""

from __future__ import annotations

import pytest

from repro.algebra.builder import build_plan
from repro.core.authorization import Policy
from repro.core.planner import SafePlanner
from repro.core.safety import verify_assignment
from repro.core.thirdparty import ThirdPartyPlanner
from repro.distributed.faults import (
    STATUS_DROP,
    STATUS_OK,
    STATUS_PARTITIONED,
    STATUS_RECEIVER_DOWN,
    STATUS_SENDER_DOWN,
    FaultInjector,
    fault_free,
)
from repro.distributed.network import NetworkModel
from repro.distributed.system import DistributedSystem
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
from repro.engine.resilience import (
    STATUS_TIMEOUT,
    RetryPolicy,
    attempt_shipment,
)
from repro.core.profile import RelationProfile
from repro.engine.transfers import Transfer, TransferLog
from repro.exceptions import (
    DegradedExecutionError,
    ExecutionError,
    InfeasiblePlanError,
    PlanError,
    TransferFailedError,
)
from repro.testing import grant, quick_catalog
from repro.workloads import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


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
            "R": [{"a": i % 5, "b": i} for i in range(20)],
            "T": [{"c": i % 5, "d": i * 10} for i in range(20)],
        }
    )
    return system


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_fault_free_always_delivers(self):
        injector = fault_free()
        for _ in range(50):
            assert injector.attempt("A", "B", 100).ok
        assert injector.failure_count == 0
        assert injector.attempt_count == 50

    def test_same_seed_same_outcomes(self):
        def run(seed):
            injector = FaultInjector(seed=seed, drop_probability=0.5)
            return [injector.attempt("A", "B", 10).status for _ in range(40)]

        assert run(3) == run(3)
        assert run(3) != run(4)  # astronomically unlikely to collide

    def test_drop_probability_validated(self):
        with pytest.raises(ExecutionError):
            FaultInjector(drop_probability=1.5)
        injector = FaultInjector()
        with pytest.raises(ExecutionError):
            injector.set_drop_probability(-0.1)

    def test_per_link_drop_override(self):
        injector = FaultInjector(seed=0, drop_probability=0.0)
        injector.set_drop_probability(1.0, sender="A", receiver="B")
        assert injector.attempt("A", "B", 10).status == STATUS_DROP
        assert injector.attempt("B", "A", 10).status == STATUS_OK
        assert injector.attempt("A", "C", 10).status == STATUS_OK

    def test_crash_window_and_recovery(self):
        network = NetworkModel(default_latency=0.0, default_bandwidth=1.0)
        injector = FaultInjector(seed=0, network=network)
        injector.crash("B", start=0.0, end=25.0)
        assert injector.is_down("B")
        assert injector.down_servers() == ("B",)
        # Each 10-byte attempt advances the clock by 10 units.
        assert injector.attempt("A", "B", 10).status == STATUS_RECEIVER_DOWN
        assert injector.attempt("B", "A", 10).status == STATUS_SENDER_DOWN
        assert injector.attempt("A", "B", 10).status == STATUS_RECEIVER_DOWN
        # clock is now 30 — past the window, B has recovered
        assert injector.clock == pytest.approx(30.0)
        assert not injector.is_down("B")
        assert injector.attempt("A", "B", 10).ok

    def test_open_ended_crash_never_recovers(self):
        injector = FaultInjector(seed=0)
        injector.crash("B")
        injector.wait(10_000.0)
        assert injector.is_down("B")

    def test_window_validation(self):
        injector = FaultInjector()
        with pytest.raises(ExecutionError):
            injector.crash("B", start=-1.0)
        with pytest.raises(ExecutionError):
            injector.crash("B", start=5.0, end=5.0)

    def test_partition_symmetric_and_directed(self):
        injector = FaultInjector(seed=0)
        injector.partition("A", "B", start=0.0)
        assert injector.attempt("A", "B", 1).status == STATUS_PARTITIONED
        assert injector.attempt("B", "A", 1).status == STATUS_PARTITIONED
        directed = FaultInjector(seed=0)
        directed.partition("A", "B", start=0.0, symmetric=False)
        assert directed.attempt("A", "B", 1).status == STATUS_PARTITIONED
        assert directed.attempt("B", "A", 1).ok

    def test_slow_link_degrades_duration_not_expected_cost(self):
        network = NetworkModel(default_latency=0.0, default_bandwidth=1.0)
        injector = FaultInjector(seed=0, network=network)
        injector.degrade_link("A", "B", factor=3.0)
        assert injector.expected_cost("A", "B", 10) == pytest.approx(10.0)
        assert injector.attempt("A", "B", 10).duration == pytest.approx(30.0)
        with pytest.raises(ExecutionError):
            injector.degrade_link("A", "B", factor=0.5)

    def test_downtime_windows_export(self):
        injector = FaultInjector()
        injector.crash("B", start=5.0, end=9.0)
        injector.crash("B", start=20.0)
        assert injector.downtime_windows() == {"B": ((5.0, 9.0), (20.0, None))}


# ---------------------------------------------------------------------------
# RetryPolicy / attempt_shipment
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=1.0, backoff_factor=2.0, max_delay=5.0, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(1.0)
        assert policy.delay(2) == pytest.approx(2.0)
        assert policy.delay(3) == pytest.approx(4.0)
        assert policy.delay(4) == pytest.approx(5.0)  # capped
        with pytest.raises(ExecutionError):
            policy.delay(0)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=1.0, jitter=0.2)
        first = policy.delay(1, key="A->B")
        assert first == policy.delay(1, key="A->B")
        assert 1.0 <= first <= 1.2
        assert policy.delay(1, key="A->B") != policy.delay(1, key="B->A")

    def test_timeout_floor(self):
        policy = RetryPolicy(timeout_factor=4.0, min_timeout=2.0)
        assert policy.timeout_for(0.1) == pytest.approx(2.0)
        assert policy.timeout_for(10.0) == pytest.approx(40.0)

    def test_parameter_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError):
            RetryPolicy(jitter=-0.5)

    def test_invalid_parameters_raise_value_error_with_clear_message(self):
        """Regression: misconfiguration must surface as ValueError with the
        offending knob named — not as a downstream arithmetic error."""
        cases = [
            (dict(max_attempts=0), "max_attempts"),
            (dict(max_attempts=-3), "max_attempts"),
            (dict(base_delay=-1.0), "base_delay"),
            (dict(backoff_factor=0.5), "backoff_factor"),
            (dict(max_delay=-2.0), "max_delay"),
            (dict(jitter=-0.5), "jitter"),
            (dict(timeout_factor=0.0), "timeout_factor"),
            (dict(min_timeout=-1.0), "min_timeout"),
        ]
        for kwargs, knob in cases:
            with pytest.raises(ValueError) as info:
                RetryPolicy(**kwargs)
            assert knob in str(info.value), kwargs


class TestAttemptShipment:
    def test_first_try_delivery_waits_nothing(self):
        report = attempt_shipment(fault_free(), RetryPolicy(), "A", "B", 100)
        assert report.delivered
        assert report.attempt_count == 1
        assert report.outcomes == (STATUS_OK,)
        assert report.retry_delay == 0.0

    def test_retries_until_delivery(self):
        injector = FaultInjector(seed=0)
        injector.set_drop_probability(1.0, sender="A", receiver="B")
        partial = attempt_shipment(
            injector, RetryPolicy(max_attempts=3, base_delay=1.0), "A", "B", 10
        )
        assert not partial.delivered
        assert partial.outcomes == (STATUS_DROP,) * 3
        assert partial.retry_delay > 0.0  # two backoff waits
        injector.set_drop_probability(0.0, sender="A", receiver="B")
        retry = attempt_shipment(injector, RetryPolicy(), "A", "B", 10)
        assert retry.delivered and retry.attempt_count == 1

    def test_slow_attempt_times_out(self):
        network = NetworkModel(default_latency=0.0, default_bandwidth=1.0)
        injector = FaultInjector(seed=0, network=network)
        injector.degrade_link("A", "B", factor=100.0)
        report = attempt_shipment(
            injector,
            RetryPolicy(max_attempts=2, timeout_factor=4.0, min_timeout=0.1),
            "A",
            "B",
            10,
        )
        assert not report.delivered
        assert set(report.outcomes) == {STATUS_TIMEOUT}


# ---------------------------------------------------------------------------
# Transfer bookkeeping
# ---------------------------------------------------------------------------


class TestTransferBookkeeping:
    PROFILE = RelationProfile({"a"})

    def test_defaults_match_seed_semantics(self):
        transfer = Transfer("S1", "S2", self.PROFILE, 2, 16, "relation", 7)
        assert transfer.attempts == 1
        assert transfer.outcomes == ("ok",)
        assert transfer.retry_delay == 0.0
        log = TransferLog()
        log.record(transfer)
        assert "attempts" not in log.describe()
        assert log.total_retries() == 0
        assert log.total_retry_delay() == 0.0

    def test_describe_mentions_retries(self):
        log = TransferLog()
        log.record(
            Transfer(
                "S1",
                "S2",
                self.PROFILE,
                2,
                16,
                "relation",
                7,
                attempts=3,
                outcomes=("drop", "drop", "ok"),
                retry_delay=3.5,
            )
        )
        assert "[3 attempts]" in log.describe()
        assert log.total_retries() == 2
        assert log.total_retry_delay() == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# Executor under faults
# ---------------------------------------------------------------------------


class TestExecutorUnderFaults:
    def test_fault_free_run_identical_to_plain(self):
        plain = medical_system().execute(QUERY)
        injected = medical_system().execute(QUERY, faults=fault_free())
        assert injected.table == plain.table

        def key(transfer):
            return (
                transfer.sender,
                transfer.receiver,
                transfer.row_count,
                transfer.byte_size,
                transfer.description,
                transfer.attempts,
                transfer.outcomes,
                transfer.retry_delay,
            )

        assert [key(t) for t in injected.transfers] == [
            key(t) for t in plain.transfers
        ]
        assert injected.failovers == 0

    def test_drops_absorbed_by_retries(self):
        faults = FaultInjector(seed=3, drop_probability=0.4)
        result = medical_system().execute(
            QUERY, faults=faults, retry=RetryPolicy(base_delay=0.5)
        )
        assert result.table == medical_system().execute(QUERY).table
        assert result.transfers.total_retries() > 0
        assert result.transfers.total_retry_delay() > 0.0
        assert result.audit is not None and result.audit.all_authorized()
        assert max(t.attempts for t in result.transfers) > 1

    def test_exhausted_retries_raise_transfer_failed(self):
        system = medical_system()
        tree, assignment, _ = system.plan(QUERY)
        faults = FaultInjector(seed=0, drop_probability=1.0)
        executor = DistributedExecutor(
            assignment,
            system.tables(),
            policy=system._policy,
            faults=faults,
            retry=RetryPolicy(max_attempts=2, base_delay=0.1),
        )
        with pytest.raises(TransferFailedError) as exc:
            executor.run()
        assert not exc.value.report.delivered
        assert exc.value.report.attempt_count == 2

    def test_audit_precedes_fault_layer(self):
        """Unauthorized shipments are rejected before any attempt —
        the injector never sees bytes the policy forbids."""
        system = medical_system()
        _, assignment, _ = system.plan(QUERY)
        faults = fault_free()
        executor = DistributedExecutor(
            assignment,
            system.tables(),
            policy=Policy([]),  # nothing is authorized
            faults=faults,
            retry=RetryPolicy(),
        )
        from repro.exceptions import AuditViolationError

        with pytest.raises(AuditViolationError):
            executor.run()
        assert faults.attempt_count == 0


# ---------------------------------------------------------------------------
# Restricted planning and pinned subtrees
# ---------------------------------------------------------------------------


class TestRestrictedPlanning:
    def test_excluded_server_never_assigned(self):
        system = two_party_system()
        tree, assignment, _ = system.plan("SELECT a, b, c, d FROM R JOIN T ON a = c")
        root_server = assignment.executor(tree.root.node_id).master
        planner = ThirdPartyPlanner(
            system._policy, ("TP1", "TP2"), excluded_servers=(root_server,)
        )
        replanned, _ = planner.plan(tree)
        assert replanned.executor(tree.root.node_id).master != root_server
        verify_assignment(system._policy, replanned)

    def test_exclusion_can_make_plan_infeasible(self):
        system = two_party_system(third_parties=("TP1",))
        tree, _, _ = system.plan("SELECT a, b, c, d FROM R JOIN T ON a = c")
        planner = ThirdPartyPlanner(
            system._policy, ("TP1",), excluded_servers=("TP1",)
        )
        with pytest.raises(InfeasiblePlanError) as exc:
            planner.plan(tree)
        assert "excluded servers" in str(exc.value)

    def test_pinned_conflicts_with_exclusion(self):
        policy = medical_policy()
        with pytest.raises(PlanError):
            SafePlanner(policy, excluded_servers=("S_H",), pinned={3: "S_H"})

    def test_pinned_subtree_is_materialized_and_reused(self):
        system = medical_system()
        tree, assignment, _ = system.plan(QUERY)
        baseline = system.execute(QUERY)
        # Pin the first join at the server that actually computed it.
        first_join = tree.root.left
        join_server = assignment.executor(first_join.node_id).master
        planner = system._make_planner(pinned={first_join.node_id: join_server})
        pinned_assignment, _ = planner.plan(tree)
        assert pinned_assignment.is_materialized(first_join.node_id)
        assert pinned_assignment.materialized_server(first_join.node_id) == join_server
        skipped = pinned_assignment.skipped_node_ids()
        assert first_join.node_id not in skipped
        assert first_join.left.node_id in skipped
        verify_assignment(system._policy, pinned_assignment)
        # A fault-aware scratch run records completed subtree results...
        scratch = DistributedExecutor(
            assignment,
            system.tables(),
            policy=system._policy,
            faults=fault_free(),
            retry=RetryPolicy(),
        )
        scratch.run()
        server, table = scratch.completed_subtrees()[first_join.node_id]
        assert server == join_server
        # ...which the pinned executor reuses without recomputation.
        result = DistributedExecutor(
            pinned_assignment,
            system.tables(),
            policy=system._policy,
            faults=fault_free(),
            retry=RetryPolicy(),
            reuse={first_join.node_id: table},
        ).run()
        assert result.table == baseline.table
        assert result.audit is not None and result.audit.all_authorized()
        # Nothing below the pinned node is re-shipped.
        assert len(result.transfers) < len(baseline.transfers)


# ---------------------------------------------------------------------------
# System-level failover
# ---------------------------------------------------------------------------


class TestFailover:
    def test_crashed_coordinator_fails_over_to_alternate(self):
        """A coordinator the injector already reports down when the run
        plans is planned around: no attempt is wasted on it."""
        system = two_party_system()
        baseline = system.execute("SELECT a, b, c, d FROM R JOIN T ON a = c")
        assert baseline.result_server == "TP1"
        faults = FaultInjector(seed=1)
        faults.crash("TP1")
        result = system.execute(
            "SELECT a, b, c, d FROM R JOIN T ON a = c",
            faults=faults,
            retry=RetryPolicy(max_attempts=2, base_delay=0.1),
        )
        assert result.result_server == "TP2"
        assert result.table == baseline.table
        assert result.failovers == 0
        assert result.audit is not None and result.audit.all_authorized()

    def test_coordinator_crashing_mid_run_fails_over_to_alternate(self):
        """A coordinator that goes down after the run planned (from
        t = 1) is failed over from."""
        system = two_party_system()
        baseline = system.execute("SELECT a, b, c, d FROM R JOIN T ON a = c")
        faults = FaultInjector(seed=1)
        faults.crash("TP1", start=1.0)
        result = system.execute(
            "SELECT a, b, c, d FROM R JOIN T ON a = c",
            faults=faults,
            retry=RetryPolicy(max_attempts=2, base_delay=0.1),
        )
        assert result.result_server == "TP2"
        assert result.table == baseline.table
        assert result.failovers == 1
        assert result.audit is not None and result.audit.all_authorized()

    def test_no_safe_alternative_degrades(self):
        system = two_party_system()
        faults = FaultInjector(seed=1)
        faults.crash("TP1")
        faults.crash("TP2")
        with pytest.raises(DegradedExecutionError) as exc:
            system.execute(
                "SELECT a, b, c, d FROM R JOIN T ON a = c",
                faults=faults,
                retry=RetryPolicy(max_attempts=2, base_delay=0.1),
            )
        assert exc.value.excluded_servers == ("TP1", "TP2")

    def test_persistent_drops_exhaust_failover_budget(self):
        system = medical_system()
        faults = FaultInjector(seed=0, drop_probability=1.0)
        with pytest.raises(DegradedExecutionError) as exc:
            system.execute(
                QUERY,
                faults=faults,
                retry=RetryPolicy(max_attempts=2, base_delay=0.1),
                max_failovers=2,
            )
        assert exc.value.failovers == 2

    def test_transient_crash_heals_without_replanning(self):
        """A crash window shorter than the retry budget is absorbed by
        backoff alone — no failover round is consumed."""
        system = medical_system()
        faults = FaultInjector(seed=0)
        faults.crash("S_N", start=0.0, end=1.0)
        result = system.execute(
            QUERY,
            faults=faults,
            retry=RetryPolicy(max_attempts=4, base_delay=2.0),
        )
        assert result.failovers == 0
        assert result.table == medical_system().execute(QUERY).table


# ---------------------------------------------------------------------------
# Satellites: network validation, summary line, simulation accounting
# ---------------------------------------------------------------------------


class TestSatellites:
    def test_negative_byte_size_rejected(self):
        network = NetworkModel()
        with pytest.raises(ExecutionError, match="negative"):
            network.transfer_cost("A", "B", -1)
        assert network.transfer_cost("A", "A", 0) == 0.0

    def test_execution_result_summary(self):
        result = medical_system().execute(QUERY)
        line = result.summary()
        assert "\n" not in line
        assert f"{len(result.table)} rows" in line
        assert f"{len(result.transfers)} transfers" in line
        assert "0 retries" in line
        assert "0 failovers" in line
        assert "audit clean" in line

    def test_summary_counts_retries(self):
        faults = FaultInjector(seed=3, drop_probability=0.4)
        result = medical_system().execute(
            QUERY, faults=faults, retry=RetryPolicy(base_delay=0.5)
        )
        retries = result.transfers.total_retries()
        assert retries > 0
        assert f"{retries} retries" in result.summary()

    def test_simulation_counts_retry_time(self):
        from repro.distributed.simulation import MultiQuerySimulator

        system = medical_system()
        _, assignment, _ = system.plan(QUERY)
        baseline = system.execute(QUERY)
        faults = FaultInjector(seed=3, drop_probability=0.4)
        degraded = system.execute(
            QUERY, faults=faults, retry=RetryPolicy(base_delay=0.5)
        )
        assert degraded.transfers.total_retries() > 0
        simulator = MultiQuerySimulator()
        plain_run = simulator.run([(assignment, baseline.transfers)])
        degraded_run = simulator.run([(assignment, degraded.transfers)])
        assert degraded_run.makespan > plain_run.makespan

    def test_simulation_downtime_shifts_makespan(self):
        system = medical_system()
        plain = system.simulate_concurrent([QUERY])
        downtime = {
            server: ((0.0, 50.0),) for server in ("S_I", "S_N", "S_H")
        }
        delayed = system.simulate_concurrent([QUERY], downtime=downtime)
        assert delayed.makespan >= plain.makespan + 50.0

    def test_simulation_rejects_eternal_downtime(self):
        system = medical_system()
        with pytest.raises(ExecutionError):
            system.simulate_concurrent(
                [QUERY], downtime={"S_I": ((0.0, None),)}
            )
