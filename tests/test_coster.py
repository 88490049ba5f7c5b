"""Unit tests for cost accounting and static estimation."""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.distributed.network import NetworkModel
from repro.engine.coster import (
    CostModel,
    TableStats,
    estimate_assignment_cost,
)
from repro.engine.data import Table
from repro.engine.transfers import TransferLog
from repro.exceptions import ExecutionError


class TestTableStats:
    def test_of_table(self):
        table = Table(["a", "b"], [(1, "xx"), (2, "yy"), (2, "zz")])
        stats = TableStats.of_table(table)
        assert stats.rows == 3
        assert stats.distinct_of("a") == 2
        assert stats.distinct_of("b") == 3
        assert stats.width_of("b") == 2.0

    def test_distinct_bounded_by_rows(self):
        stats = TableStats(5, {"a": 100})
        assert stats.distinct_of("a") == 5

    def test_unknown_attribute_defaults(self):
        stats = TableStats(10, {})
        assert stats.distinct_of("a") == 10
        assert stats.width_of("a") == 8.0

    def test_bytes_for(self):
        stats = TableStats(10, {"a": 5}, {"a": 4.0})
        assert stats.bytes_for(["a"]) == 40.0

    def test_empty_table_stats(self):
        stats = TableStats.of_table(Table.empty(["a"]))
        assert stats.rows == 0
        assert stats.widths == {}


class TestCostModel:
    def test_uniform_cost_is_bytes(self):
        model = CostModel()
        assert model.transfer_cost("A", "B", 123) == 123.0

    def test_network_model_applied(self):
        network = NetworkModel(default_latency=10.0, default_bandwidth=2.0)
        model = CostModel(network)
        assert model.transfer_cost("A", "B", 100) == 10.0 + 50.0

    def test_wraps_a_base_model(self):
        class Doubling(CostModel):
            def transfer_cost(self, sender, receiver, byte_size):
                return 2.0 * byte_size

        model = CostModel(network=Doubling())
        assert model.transfer_cost("A", "B", 10.0) == 20.0

    def test_log_cost(self):
        from repro.core.profile import RelationProfile
        from repro.engine.transfers import Transfer

        log = TransferLog()
        for size in (10, 20):
            log.record(
                Transfer("A", "B", RelationProfile({"x"}), 1, size, "d", 0)
            )
        assert CostModel().log_cost(log) == 30.0


class TestEstimateAssignmentCost:
    @pytest.fixture()
    def setup(self, catalog, policy, planner, plan):
        assignment, _ = planner.plan(plan)
        stats = {
            "Insurance": TableStats(100, {"Holder": 100, "Plan": 4}),
            "Nat_registry": TableStats(200, {"Citizen": 200, "HealthAid": 3}),
            "Hospital": TableStats(80, {"Patient": 60, "Disease": 12, "Physician": 10}),
            "Disease_list": TableStats(12, {"Illness": 12, "Treatment": 12}),
        }
        return assignment, stats

    def test_positive_cost(self, setup):
        assignment, stats = setup
        assert estimate_assignment_cost(assignment, stats) > 0

    def test_network_model_scales_cost(self, setup):
        assignment, stats = setup
        fast = estimate_assignment_cost(
            assignment, stats, CostModel(NetworkModel(default_bandwidth=10.0))
        )
        slow = estimate_assignment_cost(
            assignment, stats, CostModel(NetworkModel(default_bandwidth=1.0))
        )
        assert slow > fast

    def test_missing_stats_rejected(self, setup):
        assignment, stats = setup
        del stats["Insurance"]
        with pytest.raises(ExecutionError):
            estimate_assignment_cost(assignment, stats)

    def test_semi_join_estimated_cheaper_than_regular(self, catalog, policy):
        """For a selective join, the semi-join estimate must come out
        below the regular-join estimate on the same operands."""
        from repro.baselines.exhaustive import enumerate_structural_assignments

        spec = QuerySpec(
            ["Insurance", "Hospital"],
            [JoinPath.of(("Holder", "Patient"))],
            frozenset({"Holder", "Plan", "Patient", "Disease", "Physician"}),
        )
        plan = build_plan(catalog, spec)
        stats = {
            "Insurance": TableStats(
                1000, {"Holder": 1000, "Plan": 4}, {"Holder": 6, "Plan": 6}
            ),
            "Hospital": TableStats(
                50,
                {"Patient": 40, "Disease": 12, "Physician": 10},
                {"Patient": 6, "Disease": 4, "Physician": 5},
            ),
        }
        costs = {}
        for assignment in enumerate_structural_assignments(plan):
            join = plan.joins()[0]
            executor = assignment.executor(join.node_id)
            key = (executor.master, executor.slave)
            costs[key] = estimate_assignment_cost(assignment, stats)
        # Semi-join mastered at S_H (small side probes with Patient)
        # beats shipping all of Insurance to S_H.
        assert costs[("S_H", "S_I")] < costs[("S_H", None)]
