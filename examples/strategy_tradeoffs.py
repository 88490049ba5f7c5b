"""Strategy trade-offs: exposure, bytes, and latency are different axes.

For one query this example enumerates *every* safe strategy and scores
each three ways:

* **exposure** — which servers learn which foreign attributes
  (`repro.analysis.exposure`);
* **bytes** — measured communication volume of a tuple-level run;
* **latency** — simulated makespan on a high-latency network
  (`repro.distributed.simulation`).

The rankings disagree — the byte-cheapest strategy serializes two
semi-join legs that a latency-bound deployment cannot afford — and the
cheapest safe plan search (`repro.baselines.exhaustive.cheapest_safe_plan`)
is shown picking the right strategy for each network.

Run:  python examples/strategy_tradeoffs.py
"""

from repro.analysis.exposure import exposure_of_assignment
from repro.analysis.reporting import ascii_table
from repro.baselines.exhaustive import cheapest_safe_plan, enumerate_safe_assignments
from repro.distributed.network import NetworkModel
from repro.distributed.simulation import simulate_timeline
from repro.engine.coster import CostModel, TableStats
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.sql import parse_query
from repro.algebra.builder import build_plan
from repro.core.closure import close_policy
from repro.workloads import generate_instances, medical_catalog, medical_policy

# Under Figure 3 this query admits exactly two safe strategies: a
# regular join at S_N (rule 10 lets it absorb the projected Hospital
# data) and a semi-join mastered by S_H (rule 6 covers the returned
# view, rule 10 covers the probe) — a genuine trade-off.
QUERY = (
    "SELECT Citizen, HealthAid, Patient, Disease "
    "FROM Hospital JOIN Nat_registry ON Patient = Citizen"
)


def main() -> None:
    catalog = medical_catalog()
    policy = close_policy(medical_policy(), catalog)
    instances = generate_instances(seed=13, citizens=250)
    tables = {
        name: Table.from_rows(catalog.relation(name).attributes, rows)
        for name, rows in instances.items()
    }
    plan = build_plan(catalog, parse_query(QUERY, catalog))
    # An asymmetric network: the hospital's uplink toward the registry
    # is congested (say, a saturated site-to-site VPN), while the
    # registry's downlink back is fast.  The regular join must push all
    # its data through the congested link; the semi-join pushes only the
    # small probe through it and receives the bulk over the fast link.
    slow_network = NetworkModel(default_latency=10.0, default_bandwidth=100.0)
    slow_network.set_link("S_H", "S_N", latency=10.0, bandwidth=0.05)

    print("=== Every safe strategy, scored three ways ===")
    rows = []
    strategies = []
    for assignment in enumerate_safe_assignments(policy, plan):
        result = DistributedExecutor(assignment, tables).run()
        join = plan.joins()[0]
        executor = str(assignment.executor(join.node_id))
        exposure = exposure_of_assignment(assignment, catalog)
        makespan = simulate_timeline(
            assignment, result.transfers, slow_network
        ).makespan
        rows.append(
            [
                executor,
                exposure.total_exposure_score(),
                result.transfers.total_bytes(),
                f"{makespan:.0f}",
            ]
        )
        strategies.append((executor, result.transfers.total_bytes(), makespan))
    print(
        ascii_table(
            ["join executor", "exposure score", "bytes", "makespan (congested net)"],
            rows,
        )
    )
    cheapest_bytes = min(strategies, key=lambda s: s[1])
    fastest = min(strategies, key=lambda s: s[2])
    print(f"\nbyte-cheapest strategy  : {cheapest_bytes[0]}")
    print(f"latency-fastest strategy: {fastest[0]}")
    if cheapest_bytes[0] != fastest[0]:
        print("-> the two objectives pick different strategies")

    print("\n=== The cost-aware planner adapts to the network ===")
    stats = {name: TableStats.of_table(table) for name, table in tables.items()}
    spec = parse_query(QUERY, catalog)
    for label, model in (
        ("uniform network (cost = bytes)", None),
        ("congested S_H -> S_N uplink", CostModel(slow_network)),
    ):
        tree, assignment, cost = cheapest_safe_plan(
            policy, catalog, spec, stats, cost_model=model
        )
        join = tree.joins()[0]
        print(
            f"{label}: join runs as "
            f"{assignment.executor(join.node_id)} "
            f"(estimated cost {cost:.0f})"
        )


if __name__ == "__main__":
    main()
