"""ABL7 — semi-join vs regular join response time: the latency crossover.

Byte counts (ABL1) favour the semi-join; *latency* need not: the
semi-join serializes two transfers where the regular join needs one.
This bench executes Insurance |x| Nat_registry in both modes, then
sweeps per-link latency and reports the simulated makespan of each —
locating the crossover the distributed-DB literature predicts.  The
shape assertions: at zero latency the byte ordering decides; at high
latency the regular join's single leg always wins.
"""

import pytest

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.analysis.reporting import ascii_table
from repro.baselines.exhaustive import enumerate_structural_assignments
from repro.distributed.network import NetworkModel
from repro.engine.executor import DistributedExecutor
from repro.distributed.simulation import simulate_timeline

LATENCIES = [0.0, 100.0, 1_000.0, 10_000.0, 100_000.0]


@pytest.fixture(scope="module")
def executions():
    """All four modes of a join where semi-joins genuinely pay: two
    large, wide relations whose join is selective (50 of 500 orders
    match), so shipping either relation wholesale is expensive while
    the probe and the reduced result are cheap."""
    from repro.algebra.schema import Catalog, RelationSchema
    from repro.engine.data import Table

    catalog = Catalog()
    catalog.add_relation(
        RelationSchema(
            "Orders",
            ["Order_id", "Order_notes", "Order_status"],
            server="S_sales",
        )
    )
    catalog.add_relation(
        RelationSchema(
            "Shipments",
            ["Shipped_order", "Shipment_manifest", "Carrier"],
            server="S_logistics",
        )
    )
    catalog.add_join_edge("Order_id", "Shipped_order")
    tables = {
        "Orders": Table(
            ["Order_id", "Order_notes", "Order_status"],
            [
                (f"o{i:04d}", f"note-{'x' * 40}-{i}", "open" if i % 3 else "closed")
                for i in range(500)
            ],
        ),
        "Shipments": Table(
            ["Shipped_order", "Shipment_manifest", "Carrier"],
            [
                # Only the first 50 shipments reference live orders; the
                # rest point at archived ones — selective on both sides.
                (
                    f"o{i * 10:04d}" if i < 50 else f"a{i:04d}",
                    f"manifest-{'y' * 40}-{i}",
                    f"carrier{i % 5}",
                )
                for i in range(400)
            ],
        ),
    }
    spec = QuerySpec(
        ["Orders", "Shipments"],
        [JoinPath.of(("Order_id", "Shipped_order"))],
        frozenset(
            {
                "Order_id",
                "Order_notes",
                "Order_status",
                "Shipped_order",
                "Shipment_manifest",
                "Carrier",
            }
        ),
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


def _bytes(execution):
    return sum(t.byte_size for t in execution[1])


def test_abl7_latency_crossover(benchmark, executions):
    # Compare the byte-cheapest semi mode with the byte-cheapest
    # regular mode — the choice a byte-driven optimizer would face.
    semi = min(
        (e for k, e in executions.items() if "NULL" not in k), key=_bytes
    )
    regular = min(
        (e for k, e in executions.items() if "NULL" in k), key=_bytes
    )

    def sweep():
        series = []
        for latency in LATENCIES:
            network = NetworkModel(default_latency=latency, default_bandwidth=1.0)
            series.append(
                (
                    latency,
                    simulate_timeline(*semi, network).makespan,
                    simulate_timeline(*regular, network).makespan,
                )
            )
        return series

    series = benchmark(sweep)
    rows = [
        [f"{lat:.0f}", f"{s:.0f}", f"{r:.0f}", "semi" if s < r else "regular"]
        for lat, s, r in series
    ]
    print()
    print(ascii_table(["latency", "semi-join makespan", "regular makespan", "winner"], rows))

    zero_lat = series[0]
    semi_bytes = sum(t.byte_size for t in semi[1])
    regular_bytes = sum(t.byte_size for t in regular[1])
    # At zero latency the byte totals decide the winner.
    assert (zero_lat[1] < zero_lat[2]) == (semi_bytes < regular_bytes)
    # At dominating latency, one leg beats two serialized legs.
    high_lat = series[-1]
    assert high_lat[2] < high_lat[1]
    # A crossover exists when the orderings at the extremes differ.
    if (zero_lat[1] < zero_lat[2]) and (high_lat[2] < high_lat[1]):
        winners = ["semi" if s < r else "regular" for _, s, r in series]
        assert "semi" in winners and "regular" in winners


def test_abl7_paper_query_makespan(benchmark, planner, plan, tables):
    """Makespan of the full Example 2.2 strategy under a realistic
    WAN-ish network (latency 50, bandwidth 10)."""
    assignment, _ = planner.plan(plan)
    result = DistributedExecutor(assignment, tables).run()
    network = NetworkModel(default_latency=50.0, default_bandwidth=10.0)
    timeline = benchmark(simulate_timeline, assignment, result.transfers, network)
    print()
    print(timeline.describe())
    # Two of the three transfers (the semi-join legs) are serialized.
    assert timeline.makespan >= 2 * 50.0
