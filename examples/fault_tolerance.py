"""Fault injection, retries and authorization-safe failover, end to end.

A seeded fault matrix over two planning strategies:

* the Figure 6 safe planner on the medical workload, where retries
  absorb lossy links;
* the third-party planner on a two-coordinator federation, where a
  crashed coordinator forces a failover re-plan onto the alternate —
  re-verified and re-audited, never relaxed.

Each cell runs 3 seeds x a fault scenario and asserts the invariants
the robustness subsystem guarantees: completed runs return the exact
fault-free result with a clean audit, the same seed reproduces the
same schedule, and when nothing safe survives the query degrades
loudly instead of running unsafely.

Run:  python examples/fault_tolerance.py
"""

from repro import (
    DegradedExecutionError,
    DistributedSystem,
    FaultInjector,
    Policy,
    RetryPolicy,
)
from repro.testing import grant, quick_catalog
from repro.workloads import generate_instances, medical_catalog, medical_policy

SEEDS = (1, 2, 3)
RETRY = RetryPolicy(max_attempts=4, base_delay=0.5)

MEDICAL_SQL = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)
COALITION_SQL = "SELECT a, b, c, d FROM R JOIN T ON a = c"


def medical_system() -> DistributedSystem:
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7))
    return system


def coordinator_system() -> DistributedSystem:
    """Mutually-distrusting owners; joins must run at TP1 or TP2."""
    catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
    rules = []
    for party in ("TP1", "TP2"):
        rules += [
            grant(party, "a b"),
            grant(party, "c d"),
            grant(party, "a b c d", "a = c"),
        ]
    system = DistributedSystem(
        catalog, Policy(rules), apply_closure=True, third_parties=["TP1", "TP2"]
    )
    system.load_instances(
        {
            "R": [{"a": i % 5, "b": i} for i in range(30)],
            "T": [{"c": i % 5, "d": i * 2} for i in range(30)],
        }
    )
    return system


def lossy_links(system: DistributedSystem, sql: str, label: str) -> None:
    """Strategy x seeds: drops absorbed by retry/backoff."""
    baseline = system.execute(sql)
    print(f"[{label}] fault-free: {baseline.summary()}")
    for seed in SEEDS:
        faults = FaultInjector(seed=seed, drop_probability=0.3)
        result = system.execute(sql, faults=faults, retry=RETRY)
        assert result.table == baseline.table, "retries changed the result"
        assert result.audit is not None and result.audit.all_authorized()
        replay = FaultInjector(seed=seed, drop_probability=0.3)
        again = system.execute(sql, faults=replay, retry=RETRY)
        assert again.transfers.total_retries() == result.transfers.total_retries()
        assert replay.clock == faults.clock, "same seed must replay identically"
        print(f"[{label}] seed {seed}, 30% drops: {result.summary()}")


def crashed_coordinator(system: DistributedSystem) -> None:
    """Strategy x seeds: failover re-plans around a dead coordinator."""
    baseline = system.execute(COALITION_SQL)
    primary = baseline.result_server
    print(f"[coordinator] fault-free at {primary}: {baseline.summary()}")
    for seed in SEEDS:
        faults = FaultInjector(seed=seed)
        # Down from t = 1: after the run planned onto it (a coordinator
        # already down at planning time is planned around, no failover).
        faults.crash(primary, start=1.0)
        result = system.execute(COALITION_SQL, faults=faults, retry=RETRY)
        assert result.failovers == 1 and result.result_server != primary
        assert result.table == baseline.table
        assert result.audit is not None and result.audit.all_authorized()
        print(
            f"[coordinator] seed {seed}, {primary} down: rescued at "
            f"{result.result_server} — {result.summary()}"
        )
    # Both coordinators gone: availability degrades, confidentiality holds.
    faults = FaultInjector(seed=SEEDS[0])
    faults.crash("TP1")
    faults.crash("TP2")
    try:
        system.execute(COALITION_SQL, faults=faults, retry=RETRY)
    except DegradedExecutionError as error:
        print(f"[coordinator] both down: degraded as required ({error})")
    else:
        raise AssertionError("expected DegradedExecutionError")


def main() -> None:
    lossy_links(medical_system(), MEDICAL_SQL, "medical")
    crashed_coordinator(coordinator_system())
    print("fault matrix complete: 3 seeds x 2 strategies, all invariants held")


if __name__ == "__main__":
    main()
