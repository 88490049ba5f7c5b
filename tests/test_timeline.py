"""Unit tests for the latency timeline simulation."""

import math

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.core.planner import SafePlanner
from repro.distributed.faults import FaultInjector
from repro.distributed.network import NetworkModel
from repro.distributed.simulation import MultiQuerySimulator, simulate_timeline
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.resilience import RetryPolicy
from repro.exceptions import ExecutionError
from repro.workloads.medical import generate_instances


@pytest.fixture()
def tables(instances, catalog):
    return {
        name: Table.from_rows(catalog.relation(name).attributes, rows)
        for name, rows in instances.items()
    }


@pytest.fixture()
def executed(planner, plan, tables):
    assignment, _ = planner.plan(plan)
    result = DistributedExecutor(assignment, tables).run()
    return assignment, result


class TestTimelineStructure:
    def test_event_count_matches_transfers(self, executed):
        assignment, result = executed
        timeline = simulate_timeline(assignment, result.transfers)
        assert len(timeline.events) == len(result.transfers)

    def test_makespan_positive(self, executed):
        assignment, result = executed
        timeline = simulate_timeline(assignment, result.transfers)
        assert timeline.makespan > 0

    def test_semi_join_legs_serialized(self, executed):
        """The probe must complete before the return leg starts."""
        assignment, result = executed
        timeline = simulate_timeline(assignment, result.transfers)
        probe = next(
            e for e in timeline.events if "probe" in e.transfer.description
        )
        back = next(
            e for e in timeline.events if "join -> master" in e.transfer.description
        )
        assert back.start >= probe.finish

    def test_zero_latency_unit_bandwidth_makespan_is_critical_path_bytes(
        self, executed
    ):
        assignment, result = executed
        timeline = simulate_timeline(assignment, result.transfers)
        # With cost == bytes, the makespan is at most the total bytes and
        # at least the largest single transfer.
        total = result.transfers.total_bytes()
        largest = max(t.byte_size for t in result.transfers)
        assert largest <= timeline.makespan <= total

    def test_latency_shifts_makespan(self, executed):
        assignment, result = executed
        flat = simulate_timeline(assignment, result.transfers)
        laggy = simulate_timeline(
            assignment, result.transfers, NetworkModel(default_latency=100.0)
        )
        # Three transfers, two serialized on the semi-join: the critical
        # path gains at least two latencies.
        assert laggy.makespan >= flat.makespan + 200.0

    def test_recipient_delivery_extends_makespan(self, planner, plan, tables, policy):
        assignment, _ = planner.plan(plan)
        result = DistributedExecutor(assignment, tables, policy=policy).run(
            recipient="S_H"
        )
        # Delivery to the holder itself is local: no extra event.
        timeline = simulate_timeline(assignment, result.transfers)
        assert all(
            not e.transfer.description.startswith("result") for e in timeline.events
        )

    def test_describe(self, executed):
        assignment, result = executed
        text = simulate_timeline(assignment, result.transfers).describe()
        assert "makespan" in text

    def test_foreign_log_rejected(self, executed, planner, catalog, tables):
        """A log from a different plan lacks this plan's transfers."""
        assignment, _ = executed
        other_spec = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Plan", "HealthAid"}),
        )
        other_plan = build_plan(catalog, other_spec)
        other_assignment, _ = planner.plan(other_plan)
        other_result = DistributedExecutor(other_assignment, tables).run()
        with pytest.raises(ExecutionError):
            simulate_timeline(assignment, other_result.transfers)


class TestCoordinatorTimeline:
    def test_coordinator_join_scheduled(self):
        """Third-party joins: both inbound shipments run in parallel and
        the node is ready at the later arrival."""
        from repro.algebra.builder import QuerySpec, build_plan
        from repro.algebra.schema import Catalog, RelationSchema
        from repro.core.authorization import Authorization, Policy
        from repro.core.thirdparty import ThirdPartyPlanner

        catalog = Catalog()
        catalog.add_relation(RelationSchema("R", ["a", "b"], server="S1"))
        catalog.add_relation(RelationSchema("T", ["c", "d"], server="S2"))
        catalog.add_join_edge("a", "c")
        spec = QuerySpec(
            ["R", "T"], [JoinPath.of(("a", "c"))], frozenset({"a", "b", "c", "d"})
        )
        plan = build_plan(catalog, spec)
        policy = Policy(
            [
                Authorization({"a", "b"}, None, "S9"),
                Authorization({"c", "d"}, None, "S9"),
            ]
        )
        assignment, _ = ThirdPartyPlanner(policy, ["S9"]).plan(plan)
        tables = {
            "R": Table(["a", "b"], [(1, "xxxx"), (2, "yyyy")]),
            "T": Table(["c", "d"], [(1, "z")]),
        }
        result = DistributedExecutor(assignment, tables).run()
        timeline = simulate_timeline(assignment, result.transfers)
        assert len(timeline.events) == 2
        starts = {e.start for e in timeline.events}
        assert starts == {0.0}
        assert timeline.makespan == max(e.finish for e in timeline.events)


class TestLatencyCrossover:
    """The classic distributed-DB result: semi-joins win on bandwidth,
    regular joins win on latency-dominated links."""

    @pytest.fixture()
    def modes(self, catalog, tables):
        from repro.baselines.exhaustive import enumerate_structural_assignments

        spec = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Holder", "Plan", "Citizen", "HealthAid"}),
        )
        plan = build_plan(catalog, spec)
        outcomes = {}
        for assignment in enumerate_structural_assignments(plan):
            result = DistributedExecutor(assignment, tables).run()
            join = plan.joins()[0]
            outcomes[str(assignment.executor(join.node_id))] = (
                assignment,
                result.transfers,
            )
        return outcomes

    def test_crossover(self, modes):
        semi = modes["[S_N, S_I]"]
        regular = modes["[S_N, NULL]"]
        # Bandwidth-bound: unit bandwidth, no latency.
        fast_net = NetworkModel()
        semi_fast = simulate_timeline(*semi, fast_net).makespan
        regular_fast = simulate_timeline(*regular, fast_net).makespan
        # Latency-bound: enormous per-shipment cost, infinite-ish pipe.
        slow_net = NetworkModel(default_latency=1e6, default_bandwidth=1e9)
        semi_slow = simulate_timeline(*semi, slow_net).makespan
        regular_slow = simulate_timeline(*regular, slow_net).makespan
        # One leg vs two serialized legs.
        assert regular_slow < semi_slow
        # And the byte ordering still favours whichever ships less.
        assert (semi_fast < regular_fast) == (
            sum(t.byte_size for t in semi[1])
            < sum(t.byte_size for t in regular[1])
        )


def _free_compute(assignment, log):
    """The contention simulator's completion time with free compute."""
    simulator = MultiQuerySimulator(compute_rate=math.inf)
    return simulator.run([(assignment, log)]).completion_times[0]


class TestTimelineIsTheSimulatorAtFreeCompute:
    """The timeline is the contention simulator's schedule with free
    compute, so logs the simulator reads the timeline reads too, and the
    two agree on every one of them."""

    def test_reused_subtree_is_scheduled(self, policy, planner, plan, tables):
        assignment, _ = planner.plan(plan)
        quiet = DistributedExecutor(assignment, tables, faults=FaultInjector(seed=0))
        quiet.run()
        _, joined = quiet.completed_subtrees()[2]
        pinned, _ = SafePlanner(policy, pinned={2: "S_N"}).plan(plan)
        log = DistributedExecutor(pinned, tables, reuse={2: joined}).run().transfers
        timeline = simulate_timeline(pinned, log)
        assert len(timeline.events) == len(log)
        # Only the two serialized semi-join legs of n5 remain.
        assert timeline.makespan == log.total_bytes() == _free_compute(pinned, log)

    def test_retries_lengthen_the_makespan(self, planner, plan, tables):
        assignment, _ = planner.plan(plan)
        plain = DistributedExecutor(assignment, tables).run().transfers
        retried = DistributedExecutor(
            assignment,
            tables,
            faults=FaultInjector(seed=3, drop_probability=0.4),
            retry=RetryPolicy(base_delay=0.5),
        ).run().transfers
        assert retried.total_retries() > 0
        slow = simulate_timeline(assignment, retried).makespan
        assert slow > simulate_timeline(assignment, plain).makespan
        assert slow == _free_compute(assignment, retried)

    def test_delivery_is_on_both_critical_paths(self, planner, plan, tables):
        assignment, _ = planner.plan(plan)
        plain = DistributedExecutor(assignment, tables).run().transfers
        delivered = DistributedExecutor(assignment, tables).run(recipient="S_D").transfers
        timeline = simulate_timeline(assignment, delivered)
        assert timeline.events[-1].transfer.description.startswith("result")
        assert timeline.makespan > simulate_timeline(assignment, plain).makespan
        assert timeline.makespan == _free_compute(assignment, delivered)
