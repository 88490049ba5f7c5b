"""ABL3 — feasibility rate vs authorization density.

How much sharing a policy must grant before collaborative queries
become executable: over synthetic systems with growing grant
probabilities, the fraction of random queries admitting a safe
assignment, with and without the chase closure.  The series should be
monotone in density, and closure should never reduce it.

A second table measures Figure 6's completeness gap at 8-12 relations:
on the same plans, how many Figure 6 finds feasible and how many the
exact search (:func:`~repro.baselines.exhaustive.optimal_safe_assignment`)
does.  Figure 6 feasible must imply exactly feasible.
"""

import pytest

from repro.algebra.builder import build_plan
from repro.analysis.reporting import ascii_table
from repro.baselines.exhaustive import optimal_safe_assignment
from repro.core.closure import close_policy
from repro.core.planner import SafePlanner
from repro.engine.coster import TableStats
from repro.exceptions import InfeasiblePlanError, ReproError
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

DENSITIES = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
SYSTEMS_PER_DENSITY = 6
QUERIES_PER_SYSTEM = 4
SCALE_RELATIONS = [8, 9, 10, 11, 12]
SCALE_DENSITY = 0.8
SCALE_SYSTEMS = 10
SCALE_QUERIES = 3


def feasibility_at(density, use_closure):
    feasible = 0
    total = 0
    for seed in range(SYSTEMS_PER_DENSITY):
        workload = SyntheticWorkload(
            seed=seed * 1000 + int(density * 10),
            config=WorkloadConfig(
                servers=3,
                relations=5,
                grant_probability=density,
                join_grant_probability=density,
                path_grant_probability=density / 2,
            ),
        )
        policy = workload.policy
        if use_closure:
            policy = close_policy(policy, workload.catalog)
        planner = SafePlanner(policy)
        for query_index in range(QUERIES_PER_SYSTEM):
            try:
                spec = workload.random_query(relations=3)
            except ReproError:
                continue
            plan = build_plan(workload.catalog, spec)
            total += 1
            try:
                planner.plan(plan)
                feasible += 1
            except InfeasiblePlanError:
                pass
    return feasible, total


def test_abl3_feasibility_vs_density(benchmark):
    def sweep():
        series = []
        for density in DENSITIES:
            plain = feasibility_at(density, use_closure=False)
            closed = feasibility_at(density, use_closure=True)
            series.append((density, plain, closed))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for density, (plain_ok, plain_total), (closed_ok, closed_total) in series:
        rows.append(
            [
                f"{density:.1f}",
                f"{plain_ok}/{plain_total} ({plain_ok / max(1, plain_total):.0%})",
                f"{closed_ok}/{closed_total} ({closed_ok / max(1, closed_total):.0%})",
            ]
        )
    print()
    print(ascii_table(["grant density", "feasible (explicit)", "feasible (closed)"], rows))

    # Shape assertions: zero sharing -> (almost) nothing feasible beyond
    # colocated queries; full sharing -> everything feasible; closure
    # never hurts.
    first_density = series[0]
    last_density = series[-1]
    assert last_density[1][0] == last_density[1][1], "full density must be 100% feasible"
    assert first_density[1][0] <= last_density[1][0]
    for _, (plain_ok, _), (closed_ok, _) in series:
        assert closed_ok >= plain_ok


def completeness_at(relations):
    """``(figure6_feasible, exact_feasible, plans)`` over random
    ``relations``-way queries; asserts the gap only ever favours the
    exact search."""
    figure6 = exact = total = 0
    for seed in range(SCALE_SYSTEMS):
        workload = SyntheticWorkload(
            seed=seed * 100 + relations,
            config=WorkloadConfig(
                servers=4,
                relations=relations + 2,
                grant_probability=SCALE_DENSITY,
                join_grant_probability=SCALE_DENSITY,
                path_grant_probability=0.3,
            ),
        )
        stats = {
            r.name: TableStats(100.0, {a: 50.0 for a in r.attributes})
            for r in workload.catalog.relations()
        }
        planner = SafePlanner(workload.policy)
        for _ in range(SCALE_QUERIES):
            try:
                spec = workload.random_query(relations=relations)
            except ReproError:
                continue
            plan = build_plan(workload.catalog, spec)
            total += 1
            try:
                planner.plan(plan)
                found = True
            except InfeasiblePlanError:
                found = False
            exists = optimal_safe_assignment(workload.policy, plan, stats) is not None
            assert exists or not found, "Figure 6 feasible, exact search not"
            figure6 += found
            exact += exists
    return figure6, exact, total


def test_abl3_completeness_gap_at_scale(benchmark):
    series = benchmark.pedantic(
        lambda: [(n, completeness_at(n)) for n in SCALE_RELATIONS],
        rounds=1,
        iterations=1,
    )
    rows = [
        [str(n), str(total), f"{figure6}/{total}", f"{exact}/{total}", str(exact - figure6)]
        for n, (figure6, exact, total) in series
    ]
    print()
    print(
        ascii_table(
            ["relations", "plans", "feasible (Figure 6)", "feasible (exact)", "gap"],
            rows,
        )
    )
