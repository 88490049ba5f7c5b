"""ABL6 — two-step optimization (Section 5's closing note), measured.

The paper says its algorithm "nicely fits" the standard two-step
optimizer structure.  This bench quantifies the fit: on random
synthetic systems, the estimated communication cost and runtime of

* the plain Figure 6 planner on the user's join order,
* Figure 6 run on every connected left-deep join order, the cheapest
  kept (a loop over :func:`~repro.algebra.optimizer.enumerate_join_orders`
  here),
* :func:`~repro.baselines.exhaustive.cheapest_safe_plan`: the exact
  optimum per order, over every order.

Search should only ever improve cost, and the improvements concentrate
where the user's order forces an expensive shipment.
"""

import pytest

from repro.algebra.builder import build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.analysis.reporting import ascii_table
from repro.baselines.exhaustive import cheapest_safe_plan
from repro.core.planner import SafePlanner
from repro.core.safety import verify_assignment
from repro.engine.coster import TableStats, estimate_assignment_cost
from repro.exceptions import InfeasiblePlanError
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig


def make_cases(count=12):
    cases = []
    for seed in range(count):
        workload = SyntheticWorkload(
            seed=seed + 100,
            config=WorkloadConfig(
                servers=3,
                relations=5,
                grant_probability=0.55,
                join_grant_probability=0.5,
            ),
        )
        spec = workload.random_query(relations=3)
        stats = {
            r.name: TableStats(
                50.0 * (1 + (seed + i) % 4),
                {a: 25.0 for a in r.attributes},
                {a: 6.0 for a in r.attributes},
            )
            for i, r in enumerate(workload.catalog.relations())
        }
        cases.append((workload, spec, stats))
    return cases


def figure6_per_order(policy, catalog, spec, stats):
    """Figure 6 on every connected left-deep order of ``spec``, priced:
    the cheapest ``(assignment, cost)`` (the earlier order on ties), or
    ``None`` when no order is feasible."""
    planner = SafePlanner(policy)
    best = None
    for candidate in enumerate_join_orders(catalog, spec):
        try:
            assignment, _ = planner.plan(build_plan(catalog, candidate))
        except InfeasiblePlanError:
            continue
        cost = estimate_assignment_cost(assignment, stats)
        if best is None or cost < best[1]:
            best = (assignment, cost)
    return best


def test_abl6_cost_aware_vs_plain(benchmark):
    cases = make_cases()

    def run_cost_aware():
        return [
            figure6_per_order(workload.policy, workload.catalog, spec, stats)
            for workload, spec, stats in cases
        ]

    aware_outcomes = benchmark(run_cost_aware)

    rows = []
    improved = 0
    compared = 0
    for (workload, spec, stats), aware in zip(cases, aware_outcomes):
        plain_cost = None
        try:
            plain, _ = SafePlanner(workload.policy).plan(
                build_plan(workload.catalog, spec)
            )
            plain_cost = estimate_assignment_cost(plain, stats)
        except InfeasiblePlanError:
            pass
        try:
            _, _, best_cost = cheapest_safe_plan(
                workload.policy, workload.catalog, spec, stats
            )
        except InfeasiblePlanError:
            best_cost = None
        aware_cost = aware[1] if aware else None
        rows.append(
            [
                f"{plain_cost:.0f}" if plain_cost is not None else "infeasible",
                f"{aware_cost:.0f}" if aware_cost is not None else "infeasible",
                f"{best_cost:.0f}" if best_cost is not None else "infeasible",
            ]
        )
        if plain_cost is not None and aware_cost is not None:
            compared += 1
            if aware_cost < plain_cost - 1e-9:
                improved += 1
            # Order search can only improve on the user's order.
            assert aware_cost <= plain_cost + 1e-9
        if aware is not None:
            verify_assignment(workload.policy, aware[0])
        if best_cost is not None and aware_cost is not None:
            assert best_cost <= aware_cost + 1e-9
        # Completeness: order search never loses feasibility.
        if plain_cost is not None:
            assert aware_cost is not None
    print()
    print(ascii_table(["plain planner", "order search", "order x exhaustive"], rows))
    print(f"order search improved {improved}/{compared} feasible queries")
