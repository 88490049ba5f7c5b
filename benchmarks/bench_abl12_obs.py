"""ABL12 — the observability layer's cost, measured and gated.

The tracing/metrics layer promises to be *near-free when off*: the
planner reports its phases and candidate enumerations to one listener
(:mod:`repro.obs.hooks`) whose null object answers every event with a
no-op, its CanView callable is only wrapped when a context is installed,
and the closure falls through to the raw chase.  This bench prices that
promise on the ABL10 planner workload (the kernel bench's synthetic
plan-every-query loop) and **asserts** it: the tracer-off lane must stay
within 5% of a faithful transcription of the pre-instrumentation
planner (the PR-3 hot path with no listener calls at all).

Two companion lanes are reported, not gated:

* the tracer-**on** overhead on the same workload, so the cost of
  actually collecting spans/counters is on record;
* a traced flapping-coordinator execution (the ABL11 scenario) whose
  exports must round-trip the validators — the Chrome document passes
  :func:`~repro.obs.export.validate_chrome_trace` and the Prometheus
  page parses under the strict line-format checker.

Results land in ``BENCH_ABL12.json``, metrics snapshot included.
"""

import gc
import time

from repro.algebra.builder import build_plan
from repro.analysis.reporting import write_bench_json
from repro.core.assignment import Assignment
from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.core.planner import PlannerTrace, SafePlanner
from repro.core.candidates import MODE_REGULAR, MODE_SEMI
from repro.algebra.tree import JoinNode, LeafNode, UnaryNode
from repro.distributed.faults import FaultInjector
from repro.distributed.health import HealthTracker
from repro.distributed.system import DistributedSystem
from repro.engine.resilience import RetryPolicy
from repro.exceptions import InfeasiblePlanError, PlanError, ReproError
from repro.obs import (
    TraceContext,
    chrome_trace,
    parse_prometheus_text,
    validate_chrome_trace,
)
from repro.testing import grant, quick_catalog
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

#: tracer-off planning may cost at most this factor over the PR-3 lane.
MAX_OFF_OVERHEAD = 1.05


class _Pr3Planner(SafePlanner):
    """Faithful transcription of the planner before instrumentation.

    Overrides exactly the three methods that report to the listener
    (``plan``, ``_find_candidates``, ``_admit_master``) with their PR-3
    bodies, so the off-lane comparison isolates the null listener's cost.
    """

    def plan(self, tree):
        trace = PlannerTrace()
        assignment = Assignment(tree)
        self._find_candidates(tree.root, assignment, trace)
        self._assign_ex(tree.root, None, assignment, trace)
        return assignment, trace

    def _find_candidates(self, node, assignment, trace):
        if node.node_id in self._pinned:
            self._fill_profiles(node, assignment)
            trace.find_order.append(node.node_id)
            return
        for child in node.children():
            self._find_candidates(child, assignment, trace)
        trace.find_order.append(node.node_id)
        decision = trace.decision(node.node_id)
        if isinstance(node, LeafNode):
            self._visit_leaf(node, assignment, decision)
        elif isinstance(node, UnaryNode):
            self._visit_unary(node, assignment, trace, decision)
        elif isinstance(node, JoinNode):
            self._visit_join(node, assignment, trace, decision)
        else:  # pragma: no cover
            raise PlanError(f"unknown node kind: {type(node).__name__}")
        if decision.candidates.is_empty():
            raise InfeasiblePlanError(
                f"node n{node.node_id} admits no candidate executor",
                node_id=node.node_id,
            )

    def _admit_master(
        self, decision, candidate, from_child, slave_found, master_view, full_view
    ):
        if candidate.server in self._excluded:
            return
        if slave_found and self._can_view(master_view, candidate.server):
            mode = MODE_SEMI
        elif self._can_view(full_view, candidate.server):
            mode = MODE_REGULAR
        else:
            return
        decision.candidates.add(
            candidate.propagated(from_child, candidate.count + 1, mode)
        )


def _abl10_workload():
    """The ABL10 end-to-end planner workload: one closed synthetic
    policy, eight buildable four-relation queries."""
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
    trees = []
    for _ in range(8):
        try:
            trees.append(build_plan(workload.catalog, workload.random_query(4)))
        except Exception:
            continue
    assert trees, "no buildable synthetic queries"
    return closed, trees


def _plan_all(planner, trees):
    planned = 0
    for tree in trees:
        try:
            planner.plan(tree)
            planned += 1
        except InfeasiblePlanError:
            continue
    return planned


def _time_best(fn, repeats=9, rounds=30):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / rounds


def _time_interleaved(fn_a, fn_b, repeats=21, rounds=30):
    """Best-of-N for two lanes, measured alternately.

    Interleaving means frequency scaling, cache state and background
    load drift hit both lanes equally; taking each lane's minimum then
    compares their true costs rather than whichever lane drew the
    noisier timeslice.
    """
    for _ in range(3):  # warm caches and the allocator on both lanes
        fn_a()
        fn_b()
    best_a = best_b = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses land on one lane, skewing the ratio
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(rounds):
                fn_a()
            best_a = min(best_a, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(rounds):
                fn_b()
            best_b = min(best_b, time.perf_counter() - start)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_a / rounds, best_b / rounds


def test_abl12_tracer_off_overhead(benchmark):
    closed, trees = _abl10_workload()
    baseline_planner = _Pr3Planner(closed)
    off_planner = SafePlanner(closed)  # the null listener

    assert _plan_all(baseline_planner, trees) == _plan_all(off_planner, trees)
    benchmark(lambda: _plan_all(off_planner, trees))
    baseline, off = _time_interleaved(
        lambda: _plan_all(baseline_planner, trees),
        lambda: _plan_all(off_planner, trees),
    )

    # The on-lane is informational: what collecting actually costs.
    trace = TraceContext(clock=lambda: 0.0)
    on_planner = SafePlanner(closed, obs=trace)
    on = _time_best(lambda: _plan_all(on_planner, trees), repeats=5, rounds=10)

    overhead = off / baseline
    print(
        f"\nplan-all: pr3 {baseline * 1e3:.3f} ms, off {off * 1e3:.3f} ms "
        f"({overhead:.3f}x), on {on * 1e3:.3f} ms ({on / baseline:.2f}x)"
    )
    write_bench_json(
        "ABL12",
        {
            "tracer_off_overhead": {
                "pr3_ms_per_planall": round(baseline * 1e3, 4),
                "off_ms_per_planall": round(off * 1e3, 4),
                "on_ms_per_planall": round(on * 1e3, 4),
                "off_overhead": round(overhead, 4),
                "on_overhead": round(on / baseline, 4),
                "acceptance_ceiling": MAX_OFF_OVERHEAD,
            }
        },
    )
    assert overhead <= MAX_OFF_OVERHEAD, (
        f"tracer-off planning costs {overhead:.3f}x the PR-3 transcription, "
        f"over the {MAX_OFF_OVERHEAD}x ceiling"
    )


def test_abl12_traced_flapping_run_exports_cleanly(benchmark):
    """The ABL11 flapping-coordinator scenario, traced end-to-end: the
    exports must survive both format validators."""
    catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
    rules = []
    for party in ("TP1", "TP2"):
        rules += [
            grant(party, "a b"),
            grant(party, "c d"),
            grant(party, "a b c d", "a = c"),
        ]

    def traced_run():
        trace = TraceContext()
        system = DistributedSystem(
            catalog, Policy(rules), third_parties=["TP1", "TP2"], trace=trace
        )
        system.load_instances(
            {
                "R": [{"a": i % 7, "b": i} for i in range(60)],
                "T": [{"c": i % 7, "d": i * 3} for i in range(60)],
            }
        )
        health = HealthTracker()
        completed = 0
        for trial in range(4):
            faults = FaultInjector(seed=trial)
            faults.crash("TP1", start=1.0, end=1e9)
            try:
                system.execute(
                    "SELECT a, b, c, d FROM R JOIN T ON a = c",
                    faults=faults,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.5),
                    health=health,
                    trace=trace,
                )
                completed += 1
            except ReproError:
                continue
        trace.close_all()
        return trace, completed

    trace, completed = benchmark.pedantic(traced_run, rounds=1, iterations=1)
    assert completed > 0, "the health-aware lane must complete some queries"

    document = chrome_trace(trace)
    problems = validate_chrome_trace(document)
    assert problems == [], f"chrome export invalid: {problems}"
    parsed = parse_prometheus_text(trace.metrics.prometheus_text())
    assert "repro_transfers_total" in parsed
    assert "repro_breaker_opens_total" in parsed

    write_bench_json(
        "ABL12",
        {
            "traced_flapping_run": {
                "completed": completed,
                "spans": len(trace.spans),
                "events": len(trace.events),
                "chrome_events": len(document["traceEvents"]),
                "prometheus_families": len(parsed),
            }
        },
        metrics=trace.metrics,
    )
