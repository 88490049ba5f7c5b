"""bench_e2e — the repo's end-to-end + per-layer performance ledger.

Every number here comes from seeded request mixes driven through the
real ``QueryService.submit`` path in a closed loop; see ``README.md``
in this directory for the metric catalogue and the workload rationale.
"""
