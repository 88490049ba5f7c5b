"""Unit tests for the discrete-event multi-query simulator."""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.distributed.network import NetworkModel
from repro.distributed.simulation import MultiQuerySimulator, build_query_tasks
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
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
    return assignment, result.transfers


class TestTaskGraph:
    def test_tasks_cover_transfers(self, executed):
        assignment, log = executed
        tasks, sink = build_query_tasks(0, assignment, log, 100.0, NetworkModel())
        transfer_tasks = [t for t in tasks if t.kind == "transfer"]
        assert len(transfer_tasks) == len(log)
        assert sink in {t.task_id for t in tasks}

    def test_tasks_cover_the_delivery(self, executed, tables):
        """The result's delivery to its recipient is a transfer task
        after the root, and the query completes when it arrives."""
        assignment, _ = executed
        log = DistributedExecutor(assignment, tables).run(recipient="S_D").transfers
        tasks, sink = build_query_tasks(0, assignment, log, 100.0, NetworkModel())
        transfer_tasks = [t for t in tasks if t.kind == "transfer"]
        assert len(transfer_tasks) == len(log)
        (delivery,) = [t for t in tasks if t.task_id == sink]
        assert delivery.kind == "transfer"
        assert delivery.transfer.description == "result -> recipient"

    def test_compute_tasks_on_masters_only(self, executed):
        assignment, log = executed
        tasks, _ = build_query_tasks(0, assignment, log, 100.0, NetworkModel())
        servers = {t.resource for t in tasks if t.kind == "compute"}
        assert servers <= {"S_I", "S_H", "S_N"}

    def test_positive_rate_required(self, executed):
        assignment, log = executed
        with pytest.raises(ExecutionError):
            build_query_tasks(0, assignment, log, 0.0, NetworkModel())

    def test_deterministic_ids(self, executed):
        assignment, log = executed
        first, _ = build_query_tasks(0, assignment, log, 100.0, NetworkModel())
        second, _ = build_query_tasks(0, assignment, log, 100.0, NetworkModel())
        assert [t.task_id for t in first] == [t.task_id for t in second]


class TestSingleQuery:
    def test_single_query_completes(self, executed):
        result = MultiQuerySimulator(compute_rate=100.0).run([executed])
        assert len(result.completion_times) == 1
        assert result.completion_times[0] == result.makespan > 0

    def test_fast_compute_approaches_timeline(self, executed):
        """With near-infinite compute, only transfers cost time; the
        simulated completion approaches the timeline's makespan."""
        from repro.distributed.simulation import simulate_timeline

        assignment, log = executed
        simulated = MultiQuerySimulator(compute_rate=1e12).run([(assignment, log)])
        analytic = simulate_timeline(assignment, log)
        assert simulated.completion_times[0] == pytest.approx(
            analytic.makespan, rel=1e-6
        )

    def test_slower_compute_longer_completion(self, executed):
        fast = MultiQuerySimulator(compute_rate=1000.0).run([executed])
        slow = MultiQuerySimulator(compute_rate=10.0).run([executed])
        assert slow.completion_times[0] > fast.completion_times[0]

    def test_busy_time_accounted(self, executed):
        result = MultiQuerySimulator(compute_rate=50.0).run([executed])
        assert result.max_busy_server() is not None
        assert all(v >= 0 for v in result.busy_time.values())


class TestConcurrency:
    def test_identical_queries_contend(self, executed):
        """Two copies of the same query on the same servers take longer
        than one (the shared masters serialize compute)."""
        simulator = MultiQuerySimulator(compute_rate=20.0)
        one = simulator.run([executed])
        two = simulator.run([executed, executed])
        assert two.makespan > one.makespan
        assert two.mean_completion() >= one.mean_completion()

    def test_disjoint_queries_do_not_contend(self, catalog, policy, tables, planner):
        """A query on S_I/S_N and a local S_D query share no server, so
        running them together costs no more than the slower alone."""
        spec_a = QuerySpec(
            ["Insurance", "Nat_registry"],
            [JoinPath.of(("Holder", "Citizen"))],
            frozenset({"Plan", "HealthAid"}),
        )
        spec_b = QuerySpec(["Disease_list"], [], frozenset({"Treatment"}))
        runs = []
        for spec in (spec_a, spec_b):
            plan = build_plan(catalog, spec)
            assignment, _ = planner.plan(plan)
            result = DistributedExecutor(assignment, tables).run()
            runs.append((assignment, result.transfers))
        simulator = MultiQuerySimulator(compute_rate=20.0)
        together = simulator.run(runs)
        alone = [simulator.run([r]).makespan for r in runs]
        assert together.makespan == pytest.approx(max(alone))

    def test_arrival_times_shift_completion(self, executed):
        simulator = MultiQuerySimulator(compute_rate=50.0)
        staggered = simulator.run([executed, executed], arrival_times=[0.0, 1000.0])
        burst = simulator.run([executed, executed], arrival_times=[0.0, 0.0])
        assert staggered.completion_times[1] >= 1000.0
        assert staggered.completion_times[0] <= burst.completion_times[1]

    def test_arrival_length_mismatch(self, executed):
        with pytest.raises(ExecutionError):
            MultiQuerySimulator().run([executed], arrival_times=[0.0, 1.0])

    def test_describe(self, executed):
        text = MultiQuerySimulator().run([executed]).describe()
        assert "makespan" in text and "query 0" in text

    def test_deterministic(self, executed):
        simulator = MultiQuerySimulator(compute_rate=33.0)
        first = simulator.run([executed, executed])
        second = simulator.run([executed, executed])
        assert first.completion_times == second.completion_times
        assert first.busy_time == second.busy_time
