"""ABL4 — chase closure growth and cost.

Section 3.2 assumes policies closed under derivation but never measures
the closure.  This bench does: derived-rule counts and closure runtime
on the paper's policy and on synthetic policies of growing size, plus
the effect of post-closure minimization, and a federation-scale record
(8/10/12 servers, seed-drawn policies) — the scale axis the end-to-end
benchmark pins away.
"""

import time

import pytest

from repro.analysis.reporting import ascii_table
from repro.core.closure import close_policy, minimize_policy
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig


def test_abl4_closure_on_paper_policy(benchmark, catalog, policy):
    closed = benchmark(close_policy, policy, catalog)
    minimized = minimize_policy(closed)
    print(
        f"\nexplicit {len(policy)} -> closed {len(closed)} -> "
        f"minimized {len(minimized)}"
    )
    assert len(closed) > len(policy)
    assert len(minimized) <= len(closed)


@pytest.mark.parametrize("relations", [4, 6, 8])
def test_abl4_closure_scaling(benchmark, relations):
    workload = SyntheticWorkload(
        seed=relations,
        config=WorkloadConfig(
            servers=3,
            relations=relations,
            grant_probability=0.6,
            join_grant_probability=0.4,
            extra_join_edges=2,
        ),
    )
    closed = benchmark(close_policy, workload.policy, workload.catalog, 50_000)
    print(
        f"\nrelations={relations}: explicit {len(workload.policy)} -> "
        f"closed {len(closed)}"
    )
    assert len(closed) >= len(workload.policy)


def test_abl4_growth_table(benchmark):
    """One-shot table: closure growth across densities."""

    def sweep():
        rows = []
        for density in (0.2, 0.5, 0.8):
            workload = SyntheticWorkload(
                seed=17,
                config=WorkloadConfig(
                    servers=3,
                    relations=6,
                    grant_probability=density,
                    join_grant_probability=density,
                ),
            )
            closed = close_policy(workload.policy, workload.catalog, 50_000)
            minimized = minimize_policy(closed)
            rows.append(
                [f"{density:.1f}", len(workload.policy), len(closed), len(minimized)]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(ascii_table(["density", "explicit", "closed", "minimized"], rows))
    explicit_counts = [r[1] for r in rows]
    closed_counts = [r[2] for r in rows]
    assert all(c >= e for e, c in zip(explicit_counts, closed_counts))


def test_abl4_federation_scale(benchmark):
    """One-shot record, no ratio gate: explicit -> closed rule counts and
    wall seconds of one ``close_policy`` per seed-drawn policy at 8, 10
    and 12 servers (one relation per server), seeds 0-5."""

    def sweep():
        rows = []
        for servers in (8, 10, 12):
            for seed in range(6):
                workload = SyntheticWorkload(
                    seed, WorkloadConfig(servers=servers, relations=servers)
                )
                started = time.perf_counter()
                closed = close_policy(workload.policy, workload.catalog, 1_000_000)
                seconds = time.perf_counter() - started
                rows.append(
                    [servers, seed, len(workload.policy), len(closed), f"{seconds:.3f}"]
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(ascii_table(["servers", "seed", "explicit", "closed", "seconds"], rows))
    assert all(closed >= explicit for _, _, explicit, closed, _ in rows)
