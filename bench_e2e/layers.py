"""The traced pass: per-layer numbers.

Three parts, all on the workload's own seeded request sequence:

1. an untraced and a traced closed loop of one fixed request count on
   fresh deployments (the traced one with a benchmark-side span around
   every ``service.submit`` and every policy update) — counts come from
   ``snapshot()`` deltas of the traced loop, and the two rates give
   ``bench.trace_overhead_ratio``;
2. a stage-by-stage replay of a sample of the sequence through each
   layer's public functions, one span per call;
3. closure and policy-update timings on scratch copies of the policy.

No ``TraceContext`` goes into the served system: spans inside the
program are a later change, and today a traced system fails requests
under churn (its covering-rule cache outlives a revocation, so the plan
cache revalidates a plan the verifier then refuses).  The only
``TraceContext`` here counts CanView calls of a replayed planner.

A metric whose layer the workload never enters reads 0 (the ``shard.*``
family off ``shard_scan``, ``planner.infeasible_us`` on the chain).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Tuple

from repro.algebra.builder import build_plan
from repro.analysis.reporting import latency_percentiles
from repro.core.authorization import Policy
from repro.core.closure import close_policy, extend_closure
from repro.core.planner import SafePlanner
from repro.core.safety import verify_assignment
from repro.distributed.system import DistributedSystem
from repro.engine.audit import AuditLog
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
from repro.exceptions import InfeasiblePlanError
from repro.io.serialize import table_from_columns, table_to_columns
from repro.obs.trace import TraceContext
from repro.service import AdmissionController, QueryService, TenantConfig
from repro.service.tenants import tenant_map
from repro.sharding import EXEC_PARTITIONED, merge_shards
from repro.sql import parse_query

from bench_e2e.loadgen import Churn, Deployment, LoadResult, deploy, run_closed_loop
from bench_e2e.tracer import Tracer
from bench_e2e.workloads import Oracle, Workload, sample_requests

#: Policy updates timed on the scratch service (revoke + grant per rule
#: per cycle): enough for a p95 with samples beyond it.
UPDATE_CYCLES = 10
CLOSURE_REPEATS = 7


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _counter_total(trace: TraceContext, name: str) -> float:
    return sum(trace.metrics.counter(name).snapshot().values())


async def traced_pass(workload: Workload, seed: int, seconds: float, oracle: Oracle):
    """Run the three parts; returns ``(metrics, loops, tracer)`` where
    ``metrics`` maps every per-layer name to ``(value, unit)`` and
    ``loops`` holds the untraced and traced :class:`LoadResult`."""
    scale = seconds / 15.0
    requests = max(4 * workload.clients, int(workload.trace_requests * scale))
    sample = max(12, int(workload.replay_sample * scale))
    tracer = Tracer()

    deployment, _ = await deploy(workload, seed, oracle)
    churn = Churn(workload, deployment.service, oracle) if workload.churn_every else None
    untraced = await run_closed_loop(workload, deployment, oracle, limit=requests, churn=churn)
    if churn is not None:
        churn.settle()
    replayed = await _replay(workload, seed, sample, deployment, oracle, tracer)
    await deployment.service.stop()

    traced_deployment, _ = await deploy(workload, seed, oracle)
    service = traced_deployment.service
    churn = Churn(workload, service, oracle) if workload.churn_every else None
    before = service.snapshot()
    traced = await run_closed_loop(
        workload, traced_deployment, oracle, limit=requests, churn=churn, tracer=tracer
    )
    after = service.snapshot()
    await service.stop()

    replayed["rules_closed"] = _closure_timings(workload, seed, tracer)

    metrics = _metrics(tracer, replayed, before, after, untraced, traced)
    return metrics, {"untraced": untraced, "traced": traced}, tracer


# ----------------------------------------------------------------------
# Part 2: stage-by-stage replay
# ----------------------------------------------------------------------


async def _replay(
    workload: Workload,
    seed: int,
    sample: int,
    deployment: Deployment,
    oracle: Oracle,
    tracer: Tracer,
) -> Dict[str, float]:
    """Replay ``sample`` requests stage by stage; returns the counts the
    spans cannot carry."""
    system, service, schemes = deployment.system, deployment.service, deployment.schemes
    catalog, policy, tables, cache = system.catalog, system.policy, system.tables(), system.plan_cache
    planner = SafePlanner(policy)
    counting = TraceContext()
    counting_planner = SafePlanner(policy, obs=counting)
    admission = AdmissionController(tenant_map(TenantConfig(name) for name in workload.tenants))
    counts = {
        "plans": 0, "transfers": 0, "checked": 0, "violations": 0, "wire_bytes": 0,
        "executed": 0, "input_rows": 0, "partitioned": 0, "sharded": 0,
    }
    clock = time.perf_counter
    recipient = workload.recipient

    for request_id, request in enumerate(sample_requests(workload, seed, sample, oracle.literal_attrs)):
        sql = request.sql
        parent = tracer.open("replay.request", request_id)
        spec = tracer.call("sql.parse_query", parent, parse_query, sql, catalog)
        tree = tracer.call("builder.build_plan", parent, build_plan, catalog, spec)
        start = clock()
        try:
            assignment, _ = planner.plan(tree)
        except InfeasiblePlanError:
            assignment = None
        tracer.add(
            "planner.plan" if assignment is not None else "planner.plan(infeasible)",
            start, clock(), parent, request_id,
        )
        try:
            counting_planner.plan(tree)
        except InfeasiblePlanError:
            pass
        counts["plans"] += 1
        ticket = tracer.call("admission.admit", parent, admission.admit, request.tenant, start, 0)
        admission.release(ticket)

        if assignment is not None:
            tracer.call(
                "safety.verify_assignment", parent, verify_assignment, policy, assignment, recipient
            )
            product = system.plan(sql)
            entry = tracer.call("plancache.lookup", parent, cache.lookup, (spec.fingerprint(), False), policy)
            if entry is None:
                raise AssertionError(f"plan cache missed a plan just stored: {sql}")

            pipeline = system.pipeline(sql, recipient=recipient)
            start = clock()
            pipeline.use_plan(*product)
            pipeline.run()
            tracer.add("pipeline.run", start, clock(), parent, request_id)

            tracer.call("operators.evaluate_plan", parent, evaluate_plan, tree, tables)
            counts["input_rows"] += sum(len(tables[name]) for name in spec.relations)

            executor = DistributedExecutor(assignment, tables, policy=policy, enforce=True)
            result = tracer.call("executor.run", parent, executor.run, recipient)
            if result.table != oracle.rows[request.shape]:
                raise AssertionError(f"executor rows differ from the oracle: {sql}")
            counts["executed"] += 1
            counts["transfers"] += len(result.transfers)
            counts["violations"] += len(result.audit.violations)

            audit = AuditLog(policy)
            for transfer in result.transfers.transfers:
                tracer.call(
                    "audit.check", parent, audit.check,
                    transfer.sender, transfer.receiver, transfer.profile,
                )
                counts["checked"] += 1

            wire = tracer.call(
                "serialize.encode", parent,
                lambda table: json.dumps(table_to_columns(table)), result.table,
            )
            decoded = tracer.call(
                "serialize.decode", parent, lambda text: table_from_columns(json.loads(text)), wire
            )
            if decoded != result.table:
                raise AssertionError(f"serialization round trip changed the rows: {sql}")
            counts["wire_bytes"] += len(wire)

            if schemes is not None:
                tracer.call("shard.certify", parent, system.certify_sharding, sql, schemes)
                # One span for the query's whole split, as the
                # coordinator splits every sharded relation up front.
                tracer.call(
                    "shard.split", parent,
                    lambda: [schemes[name].split(tables[name]) for name in spec.relations],
                )
                sharded = tracer.call(
                    "shard.execute_sharded", parent, system.execute_sharded, sql, schemes, recipient
                )
                tracer.call(
                    "shard.merge", parent, merge_shards, [r.table for r in sharded.shard_results]
                )
                now = clock()
                tracer.add("shard.execute(elapsed)", now - sharded.elapsed, now, parent, request_id)
                tracer.add("shard.makespan(modelled)", now - sharded.makespan, now, parent, request_id)
                counts["sharded"] += 1
                counts["partitioned"] += sharded.mode == EXEC_PARTITIONED

        # Service overhead: one client through the service against the
        # same request straight into the system, both on warm caches.
        start = clock()
        await service.submit(sql, tenant=request.tenant, recipient=recipient)
        tracer.add("service.submit(1 client)", start, clock(), parent, request_id)
        start = clock()
        try:
            if schemes is not None:
                system.execute_sharded(sql, schemes, recipient)
            else:
                system.execute(sql, recipient)
        except InfeasiblePlanError:
            pass
        tracer.add("system.execute", start, clock(), parent, request_id)
        tracer.close(parent)

    counts["canview_calls"] = _counter_total(counting, "repro_canview_calls_total")
    return counts


# ----------------------------------------------------------------------
# Part 3: closure and policy updates on scratch copies
# ----------------------------------------------------------------------


def _closure_timings(workload: Workload, seed: int, tracer: Tracer) -> int:
    """Time closure and policy updates; returns the closed rule count."""
    catalog, policy, _, _ = workload.world(seed)
    rules = workload.churn_rules()
    for _ in range(CLOSURE_REPEATS):
        closed = tracer.call("closure.close_policy", None, close_policy, policy, catalog)
    for rule in rules:
        reduced = close_policy(Policy(r for r in policy if r != rule), catalog)
        tracer.call("closure.extend_closure", None, extend_closure, reduced, [rule], catalog)
    service = QueryService(DistributedSystem(catalog, policy))
    for _ in range(UPDATE_CYCLES):
        for rule in rules:
            tracer.call("service.revoke_authorization(scratch)", None, service.revoke_authorization, rule)
            tracer.call("service.add_authorization(scratch)", None, service.add_authorization, rule)
    return len(closed)


# ----------------------------------------------------------------------
# Names and units
# ----------------------------------------------------------------------


def _metrics(
    tracer: Tracer,
    replayed: Dict[str, float],
    before: dict,
    after: dict,
    untraced: LoadResult,
    traced: LoadResult,
) -> Dict[str, Tuple[float, str]]:
    def us(name: str) -> Tuple[float, str]:
        return _median(tracer.durations(name)) * 1e6, "us"

    def ms(name: str) -> Tuple[float, str]:
        return _median(tracer.durations(name)) * 1e3, "ms"

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    admitted = delta("admitted")
    evaluate = _median(tracer.durations("operators.evaluate_plan"))
    execute = _median(tracer.durations("executor.run"))
    updates = tracer.durations("service.revoke_authorization(scratch)") + tracer.durations(
        "service.add_authorization(scratch)"
    )
    # Paired per request: the two medians alone differ by less than
    # their own noise on the scan workloads.
    overhead = _median(
        [
            through - direct
            for through, direct in zip(
                tracer.durations("service.submit(1 client)"), tracer.durations("system.execute")
            )
        ]
    )
    executed = replayed["executed"]
    return {
        "sql.parse_bind_us": us("sql.parse_query"),
        "builder.build_plan_us": us("builder.build_plan"),
        "planner.plan_us": us("planner.plan"),
        "planner.infeasible_us": us("planner.plan(infeasible)"),
        "planner.canview_calls_per_plan": (ratio(replayed["canview_calls"], replayed["plans"]), "count"),
        "safety.verify_us": us("safety.verify_assignment"),
        "plancache.lookup_hit_us": us("plancache.lookup"),
        "plancache.hit_ratio": (ratio(delta("plan_cache", "hits"), lookups), "ratio"),
        "plancache.evictions": (delta("plan_cache", "evictions"), "count"),
        "plancache.revalidations": (delta("plan_cache", "revalidations"), "count"),
        "plancache.revalidation_failures": (delta("plan_cache", "revalidation_failures"), "count"),
        "closure.full_ms": ms("closure.close_policy"),
        "closure.extend_ms": ms("closure.extend_closure"),
        "closure.rules_closed": (replayed["rules_closed"], "count"),
        "closure.revoke_ms": ms("service.revoke_authorization(scratch)"),
        "closure.grant_ms": ms("service.add_authorization(scratch)"),
        "closure.update_p95_ms": (latency_percentiles(updates)["p95"] * 1e3, "ms"),
        "admission.admit_us": us("admission.admit"),
        "admission.shed": (delta("shed"), "count"),
        "singleflight.plan_coalesced_ratio": (ratio(delta("coalesced"), admitted), "ratio"),
        "singleflight.result_coalesced_ratio": (ratio(delta("result_coalesced"), admitted), "ratio"),
        "service.executions": (delta("executions"), "count"),
        "service.overhead_us": (overhead * 1e6, "us"),
        "service.latency_p99_ms": (latency_percentiles(untraced.latencies)["p99"] * 1e3, "ms"),
        "pipeline.run_ms": ms("pipeline.run"),
        "operators.evaluate_ms": (evaluate * 1e3, "ms"),
        "operators.rows_per_s": (
            ratio(replayed["input_rows"], sum(tracer.durations("operators.evaluate_plan"))), "1/s",
        ),
        "executor.run_ms": (execute * 1e3, "ms"),
        "executor.transfers_per_query": (ratio(replayed["transfers"], executed), "count"),
        "executor.ship_share": (1.0 - ratio(evaluate, execute) if execute else 0.0, "ratio"),
        "audit.check_us": us("audit.check"),
        "audit.transfers_checked": (replayed["checked"], "count"),
        "audit.violations": (replayed["violations"], "count"),
        "serialize.encode_ms": ms("serialize.encode"),
        "serialize.decode_ms": ms("serialize.decode"),
        "serialize.wire_bytes": (ratio(replayed["wire_bytes"], executed), "B"),
        "shard.certify_us": us("shard.certify"),
        "shard.split_ms": ms("shard.split"),
        "shard.execute_ms": ms("shard.execute(elapsed)"),
        "shard.merge_ms": ms("shard.merge"),
        "shard.wall_ms": ms("shard.execute_sharded"),
        "shard.partitioned_ratio": (ratio(replayed["partitioned"], replayed["sharded"]), "ratio"),
        "shard.makespan_modelled_ms": ms("shard.makespan(modelled)"),
        "bench.trace_overhead_ratio": (
            ratio(
                traced.attempted / (traced.ended - traced.started),
                untraced.attempted / (untraced.ended - untraced.started),
            ),
            "ratio",
        ),
    }
