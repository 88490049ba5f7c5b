"""ABL17 — the profiler's plan-quality feedback loop, priced and gated.

Two acceptance gates from the profiling PR:

* **Feedback loop**: on a skewed two-server workload whose static
  catalog statistics are deliberately wrong (the planner believes the
  small relation is huge and vice versa), the static exhaustive
  cost-aware planner ships the big relation.  One profiled warm-up run
  harvests exact observed statistics into a
  :class:`~repro.profiling.StatsStore`; the stats-fed
  :class:`~repro.core.costplanner.CostAwareSafePlanner` replans and must
  ship at least ``MIN_BYTE_IMPROVEMENT`` x fewer bytes, with
  byte-identical result rows and zero audit violations on both lanes.
  The warm-up profile must also flag the static plan's misestimate.

* **Zero-cost when off**: executing without a profiler must stay within
  ``MAX_OFF_OVERHEAD`` of a hook-free transcription of the unit loop
  and of the executor's node/shipment bodies (what they were before
  they reported to :mod:`repro.obs.hooks` — the way ABL12 transcribes
  the planner), using the interleaved best-of-N CPU-time methodology of
  ABL12/ABL16.  The off lane is the null listener's price; the
  profiler-on cost is reported, not gated.

Results land in ``BENCH_ABL17.json`` with the warm-up profile summary
as its ``profile`` section.
"""

import gc
import time

from repro.algebra.builder import QuerySpec
from repro.algebra.joins import JoinPath
from repro.algebra.tree import LeafNode
from repro.analysis.reporting import write_bench_json
from repro.core.authorization import Policy
from repro.core.costplanner import EXHAUSTIVE, CostAwareSafePlanner
from repro.distributed.faults import FaultInjector
from repro.distributed.health import ObserveOnlyHealth
from repro.exceptions import (
    ChaosInterrupt,
    DeadlineExceededError,
    DegradedExecutionError,
    TransferFailedError,
)
from repro.distributed.pipeline import QueryPipeline
from repro.distributed.system import DistributedSystem
from repro.engine.coster import TableStats, estimate_assignment_detail
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.checkpoint import CheckpointJournal
from repro.core.safety import verify_assignment
from repro.obs.hooks import hooks_for
from repro.profiling import QueryProfiler, StatsStore
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

#: The stats-fed plan must ship at least this factor fewer bytes.
MIN_BYTE_IMPROVEMENT = 1.3

#: Profiler-off execution may cost at most this factor over the
#: pre-profiling transcription.
MAX_OFF_OVERHEAD = 1.05

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid FROM Insurance "
    "JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def _skewed_case():
    """Small(40 narrow rows)@S1 |x| Big(4000 wide rows)@S2, with the
    static stats swapped so the static planner ships the wrong side."""
    catalog = quick_catalog("Small(k, a) @ S1", "Big(k2, p) @ S2", edges=["k = k2"])
    rules = []
    for server in ("S1", "S2"):
        rules += [
            grant(server, "k a"),
            grant(server, "k2 p"),
            grant(server, "k a k2 p", "k = k2"),
        ]
    policy = Policy(rules)
    tables = {
        "Small": Table(["k", "a"], [(f"K{i}", f"s{i}") for i in range(40)]),
        "Big": Table(
            ["k2", "p"],
            [(f"K{i % 40}", f"pay-{'x' * 60}-{i}") for i in range(4000)],
        ),
    }
    lying = {
        "Small": TableStats(
            4000.0, {"k": 40.0, "a": 4000.0}, {"k": 3.0, "a": 66.0}
        ),
        "Big": TableStats(40.0, {"k2": 40.0, "p": 40.0}, {"k2": 3.0, "p": 4.0}),
    }
    spec = QuerySpec(
        ["Small", "Big"],
        [JoinPath.of(("k", "k2"))],
        frozenset({"k", "a", "k2", "p"}),
    )
    return catalog, policy, tables, lying, spec


def test_abl17_feedback_loop_byte_reduction(benchmark):
    catalog, policy, tables, lying, spec = _skewed_case()

    def full_loop():
        static_planner = CostAwareSafePlanner(
            policy, lying, assignment_search=EXHAUSTIVE
        )
        static_plan = static_planner.plan(catalog, spec)
        static_result = DistributedExecutor(
            static_plan.assignment, tables, policy=policy
        ).run()

        # Warm-up: profile the static plan against its own (lying)
        # estimate, harvest the observed truth.
        profiler = QueryProfiler()
        profiler.start(
            "skew", estimate_assignment_detail(static_plan.assignment, lying)
        )
        DistributedExecutor(
            static_plan.assignment, tables, policy=policy,
            hooks=hooks_for(profiler=profiler),
        ).run()
        warm_profile = profiler.finish()
        store = StatsStore()
        store.harvest(warm_profile)

        fed_planner = CostAwareSafePlanner(
            policy, lying, assignment_search=EXHAUSTIVE, stats_store=store
        )
        fed_plan = fed_planner.plan(catalog, spec)
        fed_profiler = QueryProfiler(selectivities=store)
        fed_profiler.start(
            "skew-fed",
            estimate_assignment_detail(
                fed_plan.assignment,
                store.table_stats(lying),
                selectivities=store,
            ),
        )
        fed_result = DistributedExecutor(
            fed_plan.assignment, tables, policy=policy,
            hooks=hooks_for(profiler=fed_profiler),
        ).run()
        fed_profile = fed_profiler.finish()
        return static_result, warm_profile, fed_result, fed_profile

    static_result, warm_profile, fed_result, fed_profile = benchmark(full_loop)

    static_bytes = static_result.transfers.total_bytes()
    fed_bytes = fed_result.transfers.total_bytes()
    improvement = static_bytes / fed_bytes

    # Both lanes fully audited, zero violations.
    assert static_result.audit is not None and not static_result.audit.violations
    assert fed_result.audit is not None and not fed_result.audit.violations
    # Byte-identical answers: the strategies differ, the relation
    # computed must not.
    assert sorted(static_result.table.rows) == sorted(fed_result.table.rows)
    # The warm-up profile catches the static plan's misestimate.
    assert warm_profile.misestimates, "lying stats must be flagged"
    assert warm_profile.actual_bytes > warm_profile.estimated_bytes
    # With exact harvested stats the fed plan's estimate is honest again.
    assert not fed_profile.misestimates

    print(
        f"\nstatic plan ships {static_bytes} B, stats-fed plan ships "
        f"{fed_bytes} B ({improvement:.1f}x fewer), "
        f"{len(warm_profile.misestimates)} misestimate(s) flagged on warm-up"
    )
    write_bench_json(
        "ABL17",
        {
            "feedback_loop": {
                "static_bytes": static_bytes,
                "fed_bytes": fed_bytes,
                "improvement": round(improvement, 4),
                "acceptance_floor": MIN_BYTE_IMPROVEMENT,
                "warmup_misestimates": len(warm_profile.misestimates),
                "warmup_estimated_bytes": warm_profile.estimated_bytes,
                "warmup_actual_bytes": warm_profile.actual_bytes,
                "result_rows": len(fed_result.table),
            }
        },
        profile=warm_profile,
    )
    assert improvement >= MIN_BYTE_IMPROVEMENT, (
        f"stats-fed plan ships only {improvement:.2f}x fewer bytes, "
        f"below the {MIN_BYTE_IMPROVEMENT}x floor"
    )


class _Pr8Executor(DistributedExecutor):
    """The executor's node and shipment bodies as they were before they
    reported to a listener: no begin/end calls at all."""

    def _execute(self, node):
        if self._assignment.is_materialized(node.node_id):
            return self._reuse[node.node_id]
        table = self._execute_node(node)
        if not isinstance(node, LeafNode):
            server = self._assignment.master(node.node_id)
            if self._faults is not None:
                self._completed[node.node_id] = (server, table)
            if self._checkpoint is not None and self._audit is not None:
                profile = self._assignment.profile(node.node_id)
                if self._audit.policy.can_view(profile, server):
                    self._checkpoint.record(node.node_id, server, profile, table)
        return table

    def _ship(self, table, profile, sender, receiver, description, node_id):
        if sender == receiver:
            return table
        size = table.byte_size()
        audit = self._audit
        authorized_by, violation = None, False
        if audit is not None:
            allowed, authorized_by = audit.authorize(sender, receiver, profile)
            if not allowed:
                audit.deny(sender, receiver, profile)
                violation = True
        transfer = self._ship_once(
            table, size, profile, sender, receiver, description, node_id,
            authorized_by,
        )
        if audit is not None:
            audit.record(transfer, violation=violation)
        return table


class _Pr8Pipeline(QueryPipeline):
    """Hook-free transcription of the unit loop: ``_run_units``,
    ``_run_unit`` and ``_execute_resilient`` as they are, minus every
    call to the listener, over the hook-free executor above."""

    def _run_units(self, units):
        results, took = [], []
        for tree, assignment, tables, _ in units:
            start = time.perf_counter()
            try:
                result = self._run_unit(tree, assignment, tables)
            except (ChaosInterrupt, DeadlineExceededError, DegradedExecutionError) as error:
                if len(units) > 1:
                    error.checkpoint = None
                raise
            finally:
                took.append(time.perf_counter() - start)
            results.append(result)
        return results, took

    def _run_unit(self, tree, assignment, tables):
        system = self._system
        faults = self._faults
        journal = None
        reuse = {}
        resume_from = self._resume_from
        if resume_from is not None:
            resume_from.verify(system.policy, tree)
            journal = resume_from
        elif self._checkpoint or self._deadline is not None:
            journal = CheckpointJournal.for_plan(tree)
        if self._health is not None or resume_from is not None:
            assignment = self._initial_assignment(
                tree, assignment, faults, self._health, resume_from
            )
            if resume_from is not None:
                materialized = set(assignment.materialized_nodes())
                reuse = {
                    entry.node_id: entry.table
                    for entry in resume_from
                    if entry.node_id in materialized
                }
        verified, at_epoch = self._verified
        if self._verify and not (
            assignment is verified and at_epoch == system.policy.epoch
        ):
            verify_assignment(system.policy, assignment, recipient=self._recipient)
        self._fire_chaos("pre", journal)
        if faults is None:
            result = _Pr8Executor(
                assignment, tables, policy=system.policy, enforce=True
            ).run(recipient=self._recipient)
        else:
            result = self._execute_resilient(
                tree, assignment, tables, journal=journal, reuse=reuse
            )
        self._fire_chaos("post", journal)
        return result

    def _execute_resilient(self, tree, assignment, tables, journal=None, reuse=None):
        system = self._system
        faults = self._faults
        health = self._health
        reuse = dict(reuse) if reuse else {}
        failovers = 0
        while True:
            gate = health
            if health is not None and self._forced_through_quarantine(
                assignment, health
            ):
                gate = ObserveOnlyHealth(health)
            executor = _Pr8Executor(
                assignment,
                tables,
                policy=system.policy,
                enforce=True,
                faults=faults,
                retry=self._retry,
                reuse=reuse,
                health=gate,
                deadline=self._deadline,
                checkpoint=journal,
            )
            try:
                result = executor.run(recipient=self._recipient)
                result.failovers = failovers
                return result
            except DeadlineExceededError as error:
                error.checkpoint = journal
                raise
            except TransferFailedError as error:
                failovers += 1
                if failovers > self._max_failovers:
                    degraded = DegradedExecutionError(
                        f"execution failed after {self._max_failovers} failover "
                        f"rounds; last failure: {error}",
                        excluded_servers=faults.down_servers(),
                        failovers=failovers - 1,
                    )
                    degraded.checkpoint = journal
                    raise degraded from error
                excluded = set(faults.down_servers())
                quarantined = (
                    set(health.quarantined_servers()) if health is not None else set()
                )
                completed = executor.completed_subtrees()
                completed.update(
                    {
                        node_id: (assignment.materialized_server(node_id), table)
                        for node_id, table in reuse.items()
                    }
                )
                if journal is not None:
                    for entry in journal:
                        completed.setdefault(
                            entry.node_id, (entry.server, entry.table)
                        )
                pinned = {
                    node_id: server
                    for node_id, (server, _) in completed.items()
                    if not isinstance(tree.node(node_id), LeafNode)
                }
                try:
                    assignment, pinned = self._replan_restricted(
                        tree, excluded, quarantined, pinned, error
                    )
                except DegradedExecutionError as degraded:
                    degraded.checkpoint = journal
                    raise
                if self._verify:
                    verify_assignment(
                        system.policy, assignment, recipient=self._recipient
                    )
                reuse = {
                    node_id: completed[node_id][1]
                    for node_id in assignment.materialized_nodes()
                    if node_id in completed
                }


def _time_best(fn, repeats=9, rounds=10):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / rounds


def _time_interleaved(fn_a, fn_b, repeats=15, rounds=10):
    """Best-of-N for two lanes, measured alternately (see ABL12)."""
    for _ in range(3):
        fn_a()
        fn_b()
    best_a = best_b = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
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


def test_abl17_profiler_off_overhead(benchmark):
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7))

    def pr8_run():
        return _Pr8Pipeline(
            system, MEDICAL_QUERY, faults=FaultInjector(seed=0)
        ).run()

    def off_run():
        return QueryPipeline(
            system, MEDICAL_QUERY, faults=FaultInjector(seed=0)
        ).run()

    def on_run():
        return QueryPipeline(
            system,
            MEDICAL_QUERY,
            faults=FaultInjector(seed=0),
            profiler=QueryProfiler(),
        ).run()

    assert len(pr8_run().table) == len(off_run().table) == len(on_run().table)
    benchmark(off_run)
    baseline, off = _time_interleaved(pr8_run, off_run)
    on = _time_best(on_run, repeats=5, rounds=5)

    overhead = off / baseline
    print(
        f"\nexecute: pr8 {baseline * 1e3:.3f} ms, off {off * 1e3:.3f} ms "
        f"({overhead:.3f}x), on {on * 1e3:.3f} ms ({on / baseline:.2f}x)"
    )
    write_bench_json(
        "ABL17",
        {
            "profiler_off_overhead": {
                "pr8_ms_per_run": round(baseline * 1e3, 4),
                "off_ms_per_run": round(off * 1e3, 4),
                "on_ms_per_run": round(on * 1e3, 4),
                "off_overhead": round(overhead, 4),
                "on_overhead": round(on / baseline, 4),
                "acceptance_ceiling": MAX_OFF_OVERHEAD,
            }
        },
    )
    assert overhead <= MAX_OFF_OVERHEAD, (
        f"profiler-off execution costs {overhead:.3f}x the pre-profiling "
        f"transcription, over the {MAX_OFF_OVERHEAD}x ceiling"
    )
