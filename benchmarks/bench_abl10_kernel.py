"""ABL10 — the interned bitset kernel, measured.

The representation kernel (interned ``AttrSet`` masks, interned join
paths, the indexed/memoized ``Policy.can_view``) claims three wins:
``CanView`` micro-throughput, chase-closure runtime, and end-to-end
planner runtime.  This bench measures each and *asserts* the headline
one — per-probe ``CanView`` must beat a faithful inline transcription
of the seed implementation by at least 3x on a realistic probe trace
(the exact probes a planner run issues, replayed).

The legacy lane is the seed's ``can_view`` path transcribed verbatim —
the module-level dispatch (``getattr`` for ``permits``), a profile
whose ``exposed_attributes`` property unions two plain frozensets on
every access, a ``rules_for_path`` method returning a fresh tuple of
the bucket, and per-rule frozenset subset scans — no masks, no
interning, no memo.  The probe trace is real: every ``CanView`` call a
planner run issues on the paper's example plus synthetic workload
queries, recorded and replayed through both lanes.
"""

import time

import pytest

from repro.algebra.builder import build_plan
from repro.analysis.reporting import write_bench_json
from repro.core.closure import close_policy, minimize_policy
from repro.core.planner import SafePlanner
from repro.workloads.medical import medical_catalog, medical_policy, paper_plan
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

#: the acceptance floor for the kernel's CanView speedup.
MIN_CAN_VIEW_SPEEDUP = 3.0


class _RecordingPolicy:
    """A ``can_view`` wrapper that records every probe the planner
    issues, so the throughput bench replays a real trace."""

    def __init__(self, inner):
        self._inner = inner
        self.probes = []

    def can_view(self, profile, server):
        self.probes.append((profile, server))
        return self._inner.can_view(profile, server)


def _planner_probe_trace(closed, trees):
    recorder = _RecordingPolicy(closed)
    planner = SafePlanner(recorder)
    for tree in trees:
        try:
            planner.plan(tree)
        except Exception:
            continue
    return recorder.probes


# --- verbatim transcription of the seed implementation ----------------


class _LegacyRule:
    __slots__ = ("attributes",)

    def __init__(self, attributes):
        self.attributes = attributes


class _LegacyProfile:
    """Seed profile: plain frozensets, exposure unioned per access."""

    __slots__ = ("attributes", "selection_attributes", "join_path")

    def __init__(self, profile):
        self.attributes = frozenset(profile.attributes)
        self.selection_attributes = frozenset(profile.selection_attributes)
        self.join_path = profile.join_path

    @property
    def exposed_attributes(self):
        return self.attributes | self.selection_attributes


class _LegacyPolicy:
    """Seed policy: structural ``(server, path)`` probe, fresh bucket
    tuple per call, plain frozenset attribute sets."""

    def __init__(self, policy):
        self._by_server_path = {}
        for rule in policy:
            self._by_server_path.setdefault(
                (rule.server, rule.join_path), []
            ).append(_LegacyRule(frozenset(rule.attributes)))

    def rules_for_path(self, server, join_path):
        return tuple(self._by_server_path.get((server, join_path), ()))


def _legacy_can_view(policy, profile, server):
    permits = getattr(policy, "permits", None)
    if permits is not None:
        return bool(permits(profile, server))
    exposed = profile.exposed_attributes
    return any(
        exposed <= rule.attributes
        for rule in policy.rules_for_path(server, profile.join_path)
    )


def _time_best(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _throughput_trees(catalog, plan):
    workload = SyntheticWorkload(
        seed=12,
        config=WorkloadConfig(
            servers=4,
            relations=8,
            attributes_per_relation=(3, 5),
            grant_probability=0.6,
            join_grant_probability=0.4,
            extra_join_edges=2,
        ),
    )
    closed = close_policy(workload.policy, workload.catalog, 50_000)
    trees = []
    for _ in range(6):
        try:
            trees.append(build_plan(workload.catalog, workload.random_query(4)))
        except Exception:
            continue
    return closed, trees


def test_abl10_can_view_throughput(benchmark, catalog, closed_policy, plan):
    synth_closed, synth_trees = _throughput_trees(catalog, plan)
    probes = [
        (synth_closed, profile, server)
        for profile, server in _planner_probe_trace(synth_closed, synth_trees)
    ]
    probes.extend(
        (closed_policy, profile, server)
        for profile, server in _planner_probe_trace(closed_policy, [plan])
    )
    assert probes, "planners issued no CanView probes"
    legacy_policies = {
        id(policy): _LegacyPolicy(policy) for policy, _, _ in probes
    }
    legacy_probes = [
        (legacy_policies[id(policy)], _LegacyProfile(profile), server)
        for policy, profile, server in probes
    ]
    # The planner binds ``policy.can_view`` once per run (see
    # ``SafePlanner.__init__``), so the kernel lane replays bound
    # methods; the seed went through the module-level ``can_view``
    # dispatcher, which the legacy lane reproduces.
    kernel_probes = [
        (policy.can_view, profile, server) for policy, profile, server in probes
    ]
    # Replay the trace many times per timed call so per-call overhead
    # drowns in probe work.
    rounds = 50

    def legacy_lane():
        hits = 0
        for _ in range(rounds):
            for policy, profile, server in legacy_probes:
                if _legacy_can_view(policy, profile, server):
                    hits += 1
        return hits

    def kernel_lane():
        hits = 0
        for _ in range(rounds):
            for can_view, profile, server in kernel_probes:
                if can_view(profile, server):
                    hits += 1
        return hits

    assert legacy_lane() == kernel_lane(), "lanes disagree on verdicts"
    benchmark(kernel_lane)
    # The speedup ratio is taken over identical hand-rolled timings of
    # both lanes (best-of-7), not mixed benchmark-fixture statistics.
    legacy_time = _time_best(legacy_lane)
    kernel_time = _time_best(kernel_lane)
    speedup = legacy_time / kernel_time
    total = rounds * len(probes)
    print(
        f"\n{total} probes: legacy {legacy_time * 1e6 / total:.2f} us/probe, "
        f"kernel {kernel_time * 1e6 / total:.2f} us/probe -> {speedup:.1f}x"
    )
    write_bench_json(
        "ABL10",
        {
            "can_view_throughput": {
                "probes": total,
                "legacy_us_per_probe": round(legacy_time * 1e6 / total, 4),
                "kernel_us_per_probe": round(kernel_time * 1e6 / total, 4),
                "probes_per_second": round(total / kernel_time, 1),
                "speedup": round(speedup, 2),
                "acceptance_floor": MIN_CAN_VIEW_SPEEDUP,
            }
        },
    )
    assert speedup >= MIN_CAN_VIEW_SPEEDUP, (
        f"CanView kernel speedup {speedup:.2f}x below the "
        f"{MIN_CAN_VIEW_SPEEDUP}x acceptance floor"
    )


def test_abl10_closure_fixpoint(benchmark):
    """Chase closure runtime on a dense synthetic policy — the FIFO
    frontier + interned derivation path."""
    workload = SyntheticWorkload(
        seed=10,
        config=WorkloadConfig(
            servers=4,
            relations=8,
            grant_probability=0.5,
            join_grant_probability=0.4,
            extra_join_edges=2,
        ),
    )
    closed = benchmark.pedantic(
        close_policy,
        args=(workload.policy, workload.catalog, 50_000),
        rounds=3,
        iterations=1,
    )
    assert len(closed) >= len(workload.policy)
    minimized = minimize_policy(closed)
    assert len(minimized) <= len(closed)


def test_abl10_planner_end_to_end(benchmark):
    """Full plan-every-query runs on the large synthetic workload: the
    kernel's aggregate effect on realistic planning, not a micro-loop."""
    workload = SyntheticWorkload(
        seed=11,
        config=WorkloadConfig(
            servers=5,
            relations=10,
            grant_probability=0.5,
            join_grant_probability=0.3,
            extra_join_edges=2,
        ),
    )
    closed = close_policy(workload.policy, workload.catalog, 50_000)
    specs = [workload.random_query(relations=4) for _ in range(8)]
    trees = []
    for spec in specs:
        try:
            trees.append(build_plan(workload.catalog, spec))
        except Exception:
            continue
    assert trees, "no buildable synthetic queries"
    planner = SafePlanner(closed)

    def plan_all():
        planned = 0
        for tree in trees:
            try:
                planner.plan(tree)
                planned += 1
            except Exception:
                continue
        return planned

    planned = benchmark(plan_all)
    print(f"\nplanned {planned}/{len(trees)} buildable queries")


def test_abl10_paper_plan_kernel_parity(benchmark, catalog, closed_policy, plan):
    """Guard: the kernel-backed planner still reproduces the paper's
    assignment on the worked example (no planner-quality regression)."""
    planner = SafePlanner(closed_policy)
    assignment, _ = benchmark(planner.plan, plan)
    assert assignment.is_complete()
    assert assignment.result_server() == "S_H"
