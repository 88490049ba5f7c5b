"""The exact safe-assignment search against its enumeration oracle.

:func:`~repro.baselines.exhaustive.optimal_safe_assignment` is a dynamic
program over ``(plan node, holder)``.  The oracle here is the search it
replaced: list every safe assignment, price each one with the
estimator, keep the first minimum.  The DP must pick the same executor
on every node and report the same cost, under the default
:class:`CostModel`, a per-link :class:`NetworkModel` and observed join
selectivities, and on an open policy with flat statistics, where ties are
common and the rank decides.
"""

import random

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.baselines.exhaustive import enumerate_safe_assignments, optimal_safe_assignment
from repro.core.openpolicy import OpenPolicy
from repro.core.planner import SafePlanner
from repro.distributed.network import NetworkModel
from repro.engine.coster import CostModel, TableStats, estimate_assignment_cost
from repro.exceptions import InfeasiblePlanError, ReproError
from repro.testing import quick_catalog
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig


def _enumerated_optimum(policy, plan, base_stats, cost_model=None, selectivities=None):
    """Enumerate-and-price: the first cheapest safe assignment, or ``None``."""
    best = None
    for assignment in enumerate_safe_assignments(policy, plan):
        cost = estimate_assignment_cost(assignment, base_stats, cost_model, selectivities)
        if best is None or cost < best[1]:
            best = (assignment, cost)
    return best


def _executors(plan, assignment):
    return [str(assignment.executor(node.node_id)) for node in plan]


class _ObservedSelectivities:
    """A fake stats store: a seeded observed selectivity (or none) per path."""

    def __init__(self, rng):
        self._rng = rng
        self._seen = {}

    def selectivity(self, key):
        if key not in self._seen:
            self._seen[key] = self._rng.choice([None, 0.001, 0.01, 0.1, 0.5])
        return self._seen[key]


def _random_case(seed):
    """A synthetic world (2-6 servers), a 2-6 relation query and random
    stats, or ``None`` when the generator finds no connected query."""
    rng = random.Random(seed)
    servers, relations = rng.randint(2, 6), rng.randint(2, 6)
    workload = SyntheticWorkload(
        seed=seed,
        config=WorkloadConfig(
            servers=servers,
            relations=max(relations, servers),
            grant_probability=0.5,
            join_grant_probability=0.5,
            path_grant_probability=0.3,
        ),
    )
    try:
        spec = workload.random_query(relations=relations)
    except ReproError:
        return None
    stats = {
        r.name: TableStats(
            rng.choice([10, 100, 1000]),
            {a: rng.choice([5, 50, 500]) for a in r.attributes},
            {a: rng.choice([2, 6, 20]) for a in r.attributes},
        )
        for r in workload.catalog.relations()
    }
    return rng, workload, build_plan(workload.catalog, spec), stats


def _network(rng, plan):
    network = NetworkModel(default_latency=rng.choice([0.0, 5.0]))
    servers = sorted({leaf.server for leaf in plan.leaves()})
    for sender in servers:
        for receiver in servers:
            if sender != receiver and rng.random() < 0.5:
                network.set_link(
                    sender, receiver,
                    latency=rng.choice([0.0, 1.0, 10.0]),
                    bandwidth=rng.choice([0.1, 1.0, 10.0]),
                )
    return CostModel(network)


@pytest.mark.parametrize("pricing", ["uniform", "network", "observed", "ties"])
def test_dp_matches_enumeration(pricing):
    compared = feasible = 0
    for seed in range(120):
        case = _random_case(seed)
        if case is None:
            continue
        rng, workload, plan, stats = case
        policy = workload.policy
        cost_model = _network(rng, plan) if pricing == "network" else None
        selectivities = _ObservedSelectivities(rng) if pricing == "observed" else None
        if pricing == "ties":
            policy = OpenPolicy()
            stats = {
                name: TableStats(100.0, {a: 50.0 for a in table.distinct})
                for name, table in stats.items()
            }
        found = optimal_safe_assignment(policy, plan, stats, cost_model, selectivities)
        oracle = _enumerated_optimum(policy, plan, stats, cost_model, selectivities)
        compared += 1
        assert (found is None) == (oracle is None), seed
        if oracle is None:
            continue
        feasible += 1
        assert _executors(plan, found[0]) == _executors(plan, oracle[0]), seed
        assert found[1] == oracle[1], seed
    assert compared >= 100 and feasible >= 30


class _FreeLocalHandOffs(CostModel):
    """Prices a local hand-off at 0 instead of the estimator's full size."""

    def transfer_cost(self, sender, receiver, byte_size):
        return 0.0 if sender == receiver else float(byte_size)


def test_local_hand_off_price_decides_the_optimum():
    # A and B share S1, C sits at S2; the order A, C, B makes the second
    # join local whenever the first one runs at S1.  That local hand-off
    # ships B (100 rows) at full size, so the optimum moves the first
    # join to S2; a search pricing it at 0 keeps everything at S1.
    catalog = quick_catalog(
        "A(a, x) @ S1", "B(b, y) @ S1", "C(c, z) @ S2", edges=["a = c", "x = b"]
    )
    spec = QuerySpec(
        ["A", "C", "B"],
        [JoinPath.of(("a", "c")), JoinPath.of(("x", "b"))],
        frozenset({"a", "x", "b", "y", "c", "z"}),
    )
    plan = build_plan(catalog, spec)
    stats = {
        "A": TableStats(10, {"a": 10, "x": 10}),
        "B": TableStats(100, {"b": 100, "y": 100}),
        "C": TableStats(10, {"c": 10, "z": 10}),
    }
    policy = OpenPolicy()
    found = optimal_safe_assignment(policy, plan, stats)
    oracle = _enumerated_optimum(policy, plan, stats)
    assert _executors(plan, found[0]) == _executors(plan, oracle[0])
    assert found[1] == oracle[1] == 480.0
    free = _enumerated_optimum(policy, plan, stats, _FreeLocalHandOffs())
    assert _executors(plan, free[0]) != _executors(plan, oracle[0])
    first_join = plan.joins()[0]
    assert found[0].master(first_join.node_id) == "S2"
    assert free[0].master(first_join.node_id) == "S1"


def test_figure6_feasible_exactly_when_dp_is():
    compared = feasible = 0
    for seed in range(200):
        rng = random.Random(seed)
        relations = rng.randint(3, 12)
        workload = SyntheticWorkload(
            seed=seed,
            config=WorkloadConfig(
                servers=rng.randint(2, 8),
                relations=relations + 1,
                grant_probability=0.7,
                join_grant_probability=0.7,
                path_grant_probability=0.3,
            ),
        )
        try:
            spec = workload.random_query(relations=relations)
        except ReproError:
            continue
        plan = build_plan(workload.catalog, spec)
        stats = {
            r.name: TableStats(100.0, {a: 50.0 for a in r.attributes})
            for r in workload.catalog.relations()
        }
        try:
            SafePlanner(workload.policy).plan(plan)
            figure6 = True
        except InfeasiblePlanError:
            figure6 = False
        exact = optimal_safe_assignment(workload.policy, plan, stats) is not None
        assert figure6 == exact, seed
        compared += 1
        feasible += exact
    assert compared >= 150 and 0 < feasible < compared
