"""Command-line interface.

Five subcommands over a workload (the built-in medical scenario or
JSON catalog/policy files, see :mod:`repro.io`):

* ``describe`` — the catalog and the policy (Figure 3 layout);
* ``plan``     — minimized tree, Figure 7 style trace, executor
  assignment and per-server exposure for a SQL query;
* ``execute``  — run the query tuple-level and report every audited
  transfer (medical workload generates instances; JSON workloads take
  ``--instances``);
* ``analyze``  — EXPLAIN ANALYZE: run the query under the profiler and
  render estimated vs actual cardinalities and bytes side by side with
  misestimation flags; ``--stats FILE`` keeps a statistics store warm
  across invocations (harvested profiles written back), closing the
  plan-quality feedback loop (see :mod:`repro.profiling` and
  ``docs/profiling.md``);
* ``suggest``  — for an infeasible query, the smallest grants that
  would unlock it (what-if analysis);
* ``check``    — a single CanView question: may SERVER see these
  attributes under this join path?
* ``serve``    — drive a JSON workload through the multi-tenant async
  query service (admission control, load shedding, single-flight
  planning; see :mod:`repro.service` and ``docs/serving.md``), with an
  optional live Prometheus scrape endpoint.
* ``shard``    — certify a horizontal partition scheme with the
  parallel-correctness checker and (unless ``--certify-only``) run the
  query partition-parallel, with optional ``--diff`` verification
  against single-copy execution (see :mod:`repro.sharding` and
  ``docs/sharding.md``);
* ``chaos``    — run a seeded chaos schedule (worker deaths, leader
  crashes, admission stalls, policy storms, service kill/restart
  cycles) through the service with crash-consistent recovery and the
  online invariant monitor (see :mod:`repro.chaos` and
  ``docs/chaos.md``); ``--replay ARTIFACT`` re-runs a recorded
  violation artifact and verifies it reproduces bit-exactly.

Examples::

    python -m repro.cli describe
    python -m repro.cli plan --sql "SELECT Plan, HealthAid FROM Insurance \
        JOIN Nat_registry ON Holder = Citizen"
    python -m repro.cli execute --sql "..." --citizens 200
    python -m repro.cli suggest --sql "SELECT Physician, Treatment FROM \
        Disease_list JOIN Hospital ON Illness = Disease"
    python -m repro.cli check --server S_I --attributes Holder Plan
    python -m repro.cli serve --workload requests.json --tenants tenants.json \
        --port 0 --metrics-out metrics.prom
    python -m repro.cli chaos --seed 16 --requests 1000 --kill-every 25
    python -m repro.cli chaos --replay chaos_violations_seed16.json

``serve`` exit codes: 0 — every request resolved and the service
drained cleanly (including after a single SIGINT, which stops new
submissions, drains admitted work and still flushes ``--metrics-out`` /
``--trace-out``); 1 — drained cleanly but some requests ``failed``
with execution errors; 2 — configuration error (bad workload, tenants,
catalog or instances file); 3 — aborted before all outcomes resolved
(second SIGINT forces an immediate stop; queued requests resolve as
shed, never partially executed).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinPath
from repro.analysis.exposure import exposure_of_assignment
from repro.analysis.reporting import render_policy_table, render_trace_table
from repro.analysis.whatif import suggest_repair
from repro.core.access import explain_denial
from repro.core.profile import RelationProfile
from repro.distributed.faults import FaultInjector
from repro.distributed.health import HealthTracker
from repro.distributed.system import DistributedSystem
from repro.exceptions import (
    CheckpointError,
    DeadlineExceededError,
    DegradedExecutionError,
    InfeasiblePlanError,
    ReproError,
)
from repro.io import catalog_from_dict, load_json, policy_from_dict
from repro.io.serialize import checkpoint_from_dict, checkpoint_to_dict, save_json
from repro.sql import parse_query
from repro.workloads.medical import generate_instances, medical_catalog, medical_policy


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Controlled information sharing in collaborative "
        "distributed query processing (ICDCS 2008 reproduction).",
    )
    parser.add_argument(
        "--catalog", help="JSON catalog file (default: built-in medical workload)"
    )
    parser.add_argument(
        "--policy", help="JSON policy file (default: built-in Figure 3 policy)"
    )
    parser.add_argument(
        "--no-closure",
        action="store_true",
        help="do not close the policy under the chase before planning",
    )
    parser.add_argument(
        "--third-party",
        action="append",
        default=[],
        metavar="SERVER",
        help="server usable as a join coordinator (repeatable)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--plan-cache",
        dest="plan_cache",
        action="store_true",
        default=True,
        help="cache safe assignments keyed on query fingerprint and "
        "policy epoch (default: on; repeated queries plan once)",
    )
    cache_group.add_argument(
        "--no-plan-cache",
        dest="plan_cache",
        action="store_false",
        help="plan every query from scratch",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # The subcommands that load instances (see _load_instances).
    instances = argparse.ArgumentParser(add_help=False)
    instances.add_argument("--instances", help="JSON instances file (relation -> rows)")
    instances.add_argument("--seed", type=int, default=7)
    instances.add_argument("--citizens", type=int, default=100)

    commands.add_parser("describe", help="print the catalog and the policy")

    plan_cmd = commands.add_parser("plan", help="plan a SQL query safely")
    plan_cmd.add_argument("--sql", required=True)
    plan_cmd.add_argument(
        "--search-orders",
        action="store_true",
        help="try alternative join orders when the given one is infeasible",
    )

    execute_cmd = commands.add_parser(
        "execute", help="plan and run a SQL query", parents=[instances]
    )
    execute_cmd.add_argument("--sql", required=True)
    execute_cmd.add_argument("--recipient", help="deliver the result to this party")
    execute_cmd.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        metavar="P",
        help="inject per-attempt transfer drops with probability P (enables "
        "retry/backoff and authorization-safe failover)",
    )
    execute_cmd.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault injector (runs are fully deterministic)",
    )
    execute_cmd.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="SERVER:START[:END]",
        help="take SERVER down during [START, END) of logical time "
        "(END omitted = forever; repeatable; enables fault injection)",
    )
    execute_cmd.add_argument(
        "--max-failovers",
        type=int,
        default=3,
        help="re-planning rounds before the query degrades",
    )
    execute_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="BUDGET",
        help="simulated-time budget for the whole execution; exhaustion "
        "exits 4 and (with --resume FILE) writes a checkpoint journal "
        "(enables fault injection)",
    )
    execute_cmd.add_argument(
        "--resume",
        default=None,
        metavar="FILE",
        help="checkpoint journal file: loaded (and re-audited) when it "
        "exists, written when the run is killed by deadline or "
        "degradation (enables fault injection)",
    )
    execute_cmd.add_argument(
        "--breakers",
        action="store_true",
        help="track per-server/per-link health with circuit breakers and "
        "plan around quarantined servers (enables fault injection)",
    )
    execute_cmd.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the run's trace (planning + execution spans) to FILE; "
        "written even when the run fails, so failed runs stay debuggable",
    )
    execute_cmd.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: jsonl (one record per line) or chrome "
        "(trace-event JSON loadable in Perfetto / chrome://tracing)",
    )
    execute_cmd.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics in Prometheus text exposition to FILE",
    )

    analyze_cmd = commands.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE: run a query under the profiler and render "
        "estimated vs actual",
        parents=[instances],
    )
    analyze_cmd.add_argument("--sql", required=True)
    analyze_cmd.add_argument("--recipient", help="deliver the result to this party")
    analyze_cmd.add_argument(
        "--runs",
        type=int,
        default=1,
        help="profiled executions; each harvests into the stats store, and "
        "the last one is rendered (default 1)",
    )
    analyze_cmd.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault-free injector supplying the deterministic "
        "logical clock (profiles are byte-stable per seed)",
    )
    analyze_cmd.add_argument(
        "--misestimate-factor",
        type=float,
        default=2.0,
        metavar="F",
        help="flag a transfer when actual bytes exceed F x estimate "
        "(default 2.0); any flag makes the command exit 1",
    )
    analyze_cmd.add_argument(
        "--stats",
        default=None,
        metavar="FILE",
        help="statistics store JSON: loaded when it exists, written back "
        "with this run's harvest (keeps estimates warm across invocations)",
    )
    analyze_cmd.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="write the rendered run's profile artifact JSON to FILE",
    )

    suggest_cmd = commands.add_parser(
        "suggest", help="suggest minimal grants for an infeasible query"
    )
    suggest_cmd.add_argument("--sql", required=True)

    explain_cmd = commands.add_parser(
        "explain", help="explain every CanView decision of a query's planning"
    )
    explain_cmd.add_argument("--sql", required=True)

    serve_cmd = commands.add_parser(
        "serve",
        help="run a workload through the multi-tenant query service",
        parents=[instances],
    )
    serve_cmd.add_argument(
        "--workload",
        required=True,
        metavar="FILE",
        help="JSON list of requests: {sql, tenant?, recipient?, repeat?}",
    )
    serve_cmd.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help="JSON list of tenant configs: {name, priority?, rate?, "
        "burst?, deadline?}",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=4, help="worker coroutines (default 4)"
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="queued-request bound; admission sheds beyond it (default 256)",
    )
    serve_cmd.add_argument(
        "--capacity-bytes",
        type=float,
        default=None,
        metavar="BYTES",
        help="total estimated in-flight bytes admitted at once "
        "(0 deterministically sheds everything; default: unlimited)",
    )
    serve_cmd.add_argument(
        "--window",
        type=int,
        default=64,
        help="max concurrent client submissions (0 = all at once, which "
        "a bounded queue will shed; default 64)",
    )
    serve_cmd.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between submissions (keeps the service busy long "
        "enough to scrape or interrupt; default 0)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics and /healthz on 127.0.0.1:PORT "
        "(0 picks an ephemeral port, printed at startup; default: off)",
    )
    serve_cmd.add_argument(
        "--search-orders",
        action="store_true",
        help="plan with join-order search while the service is healthy",
    )
    serve_cmd.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the service run's trace to FILE (flushed even on SIGINT)",
    )
    serve_cmd.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format (jsonl or chrome)",
    )
    serve_cmd.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write final metrics in Prometheus text exposition to FILE "
        "(flushed even on SIGINT)",
    )

    chaos_cmd = commands.add_parser(
        "chaos",
        help="run a seeded chaos schedule against the query service "
        "(or replay a recorded violation artifact)",
    )
    chaos_cmd.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay the chaos run a violation artifact recorded and "
        "verify the digest reproduces bit-exactly (all other chaos "
        "options are ignored — the artifact carries the full config)",
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=16, help="chaos schedule seed"
    )
    chaos_cmd.add_argument(
        "--requests", type=int, default=1000, help="requests to drive"
    )
    chaos_cmd.add_argument(
        "--workers", type=int, default=8, help="service worker coroutines"
    )
    chaos_cmd.add_argument(
        "--kill-every",
        type=int,
        default=25,
        metavar="N",
        help="kill/restart the service every N submissions "
        "(0 = never; default 25)",
    )
    chaos_cmd.add_argument(
        "--no-recovery",
        dest="recovery",
        action="store_false",
        default=True,
        help="drop the write-ahead journal: kills shed in-flight work "
        "instead of recovering it",
    )
    chaos_cmd.add_argument(
        "--cancel-rate", type=float, default=0.05, metavar="P",
        help="worker-death probability per execution (default 0.05)",
    )
    chaos_cmd.add_argument(
        "--leader-crash-rate", type=float, default=0.03, metavar="P",
        help="single-flight leader crash probability (default 0.03)",
    )
    chaos_cmd.add_argument(
        "--stall-rate", type=float, default=0.10, metavar="P",
        help="admission stall probability (default 0.10)",
    )
    chaos_cmd.add_argument(
        "--storm-rate", type=float, default=0.05, metavar="P",
        help="policy grant/revoke storm probability (default 0.05)",
    )
    chaos_cmd.add_argument(
        "--clock-jump-rate", type=float, default=0.05, metavar="P",
        help="logical clock jump probability (default 0.05)",
    )
    chaos_cmd.add_argument(
        "--artifact-out",
        default=None,
        metavar="FILE",
        help="always write the replay artifact to FILE (default: only "
        "on violation, as chaos_violations_seed<seed>.json)",
    )

    shard_cmd = commands.add_parser(
        "shard",
        help="certify a partition scheme and run a query partition-parallel",
        parents=[instances],
    )
    shard_cmd.add_argument("--sql", required=True)
    shard_cmd.add_argument(
        "--scheme",
        action="append",
        required=True,
        metavar="SPEC",
        help="partition spec, repeatable: REL:hash:ATTR[,ATTR...]:SHARDS "
        "or REL:range:ATTR:B1[,B2...] (boundaries split strictly "
        "increasing ranges)",
    )
    shard_cmd.add_argument(
        "--group",
        nargs="+",
        required=True,
        metavar="SERVER",
        help="server group hosting the shards (round-robin placement)",
    )
    shard_cmd.add_argument("--recipient", help="deliver the result to this party")
    shard_cmd.add_argument(
        "--certify-only",
        action="store_true",
        help="run the parallel-correctness checker and stop",
    )
    shard_cmd.add_argument(
        "--no-multiround",
        action="store_true",
        help="disable the multi-round fallback (hypercube or single-copy)",
    )
    shard_cmd.add_argument(
        "--diff",
        action="store_true",
        help="also run single-copy and verify the results are identical",
    )

    check_cmd = commands.add_parser("check", help="one CanView question")
    check_cmd.add_argument("--server", required=True)
    check_cmd.add_argument("--attributes", nargs="+", required=True)
    check_cmd.add_argument(
        "--join",
        action="append",
        default=[],
        metavar="A=B",
        help="join condition of the view's path (repeatable)",
    )
    return parser


def _load_system(args: argparse.Namespace) -> DistributedSystem:
    if args.catalog:
        catalog = catalog_from_dict(load_json(args.catalog))
    else:
        catalog = medical_catalog()
    if args.policy:
        policy = policy_from_dict(load_json(args.policy))
    else:
        policy = medical_policy()
    return DistributedSystem(
        catalog,
        policy,
        apply_closure=not args.no_closure,
        third_parties=args.third_party,
        plan_cache=args.plan_cache,
    )


def _load_instances(system: DistributedSystem, args, out) -> bool:
    """Load ``--instances``, or generate the built-in medical workload's
    from ``--seed`` / ``--citizens``; ``False`` (error printed) when a
    JSON catalog comes without instances."""
    if args.instances:
        system.load_instances(load_json(args.instances))
    elif not args.catalog:
        system.load_instances(
            generate_instances(seed=args.seed, citizens=args.citizens)
        )
    else:
        print("error: --instances is required for JSON workloads", file=out)
        return False
    return True


def _cmd_describe(system: DistributedSystem, args, out) -> int:
    print(system.catalog.describe(), file=out)
    print(file=out)
    print(render_policy_table(system.explicit_policy), file=out)
    print(
        f"\n({len(system.explicit_policy)} explicit rules, "
        f"{len(system.policy)} after closure)",
        file=out,
    )
    return 0


def _cmd_plan(system: DistributedSystem, args, out) -> int:
    try:
        tree, assignment, trace = system.plan(
            args.sql, search_join_orders=args.search_orders
        )
    except InfeasiblePlanError as error:
        print(f"infeasible: {error}", file=out)
        return 2
    print(tree.render(), file=out)
    print(file=out)
    print(render_trace_table(trace), file=out)
    print("\nassignment:", file=out)
    print(assignment.describe(), file=out)
    print("\nexposure:", file=out)
    print(exposure_of_assignment(assignment, system.catalog).describe(), file=out)
    return 0


def _cmd_execute(system: DistributedSystem, args, out) -> int:
    if not _load_instances(system, args, out):
        return 2
    faults = _build_injector(args, out)
    if faults is _BAD_FAULT_SPEC:
        return 2
    health = HealthTracker() if args.breakers else None
    resume_from = None
    if args.resume:
        import os

        if os.path.exists(args.resume):
            try:
                resume_from = checkpoint_from_dict(load_json(args.resume))
            except ReproError as error:
                print(f"error: bad checkpoint file {args.resume!r}: {error}", file=out)
                return 2
            print(
                f"resuming from {args.resume} "
                f"({len(resume_from)} checkpointed subtrees)",
                file=out,
            )
    trace = None
    if args.trace_out or args.metrics_out:
        from repro.obs import TraceContext

        trace = TraceContext()
    try:
        result = system.execute(
            args.sql,
            recipient=args.recipient,
            faults=faults,
            max_failovers=args.max_failovers,
            deadline=args.deadline,
            health=health,
            checkpoint=bool(args.resume),
            resume_from=resume_from,
            trace=trace,
        )
    except InfeasiblePlanError as error:
        print(f"infeasible: {error}", file=out)
        return 2
    except CheckpointError as error:
        print(f"checkpoint refused: {error}", file=out)
        return 2
    except DeadlineExceededError as error:
        print(f"deadline exceeded: {error}", file=out)
        _save_journal(error.checkpoint, args.resume, out)
        return 4
    except DegradedExecutionError as error:
        print(f"degraded: {error}", file=out)
        _save_journal(getattr(error, "checkpoint", None), args.resume, out)
        return 3
    finally:
        # A failed run's partial trace is exactly what the operator
        # needs to debug it — export on every exit path.
        _write_observability(trace, args, out)
    print(f"result: {result.summary()}", file=out)
    if result.plan_cache is not None:
        cache = result.plan_cache
        print(
            f"plan cache: {cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['revalidations']} revalidations",
            file=out,
        )
    print(result.transfers.describe(), file=out)
    if result.audit is not None:
        print(result.audit.summary(), file=out)
    if faults is not None:
        print(f"faults: {faults!r}", file=out)
    if health is not None:
        print(f"health: {health.describe()}", file=out)
    return 0


def _write_observability(trace, args, out) -> None:
    """Export the trace/metrics files requested by --trace-out and
    --metrics-out (no-op when tracing was not requested)."""
    if trace is None:
        return
    from repro.obs import write_metrics, write_trace

    trace.close_all()
    if args.trace_out:
        write_trace(trace, args.trace_out, fmt=args.trace_format)
        print(
            f"trace: {len(trace.spans)} spans, {len(trace.events)} events "
            f"written to {args.trace_out} ({args.trace_format})",
            file=out,
        )
    if args.metrics_out:
        write_metrics(trace.metrics, args.metrics_out)
        print(f"metrics: written to {args.metrics_out}", file=out)


def _save_journal(journal, path, out) -> None:
    """Persist a checkpoint journal for a later --resume, when asked to."""
    if journal is None or not path:
        return
    save_json(checkpoint_to_dict(journal), path)
    print(
        f"checkpoint: {len(journal)} completed subtrees written to {path}",
        file=out,
    )


#: Sentinel distinguishing "no faults requested" from "bad --crash spec".
_BAD_FAULT_SPEC = object()


def _build_injector(args, out):
    """An injector from --drop-rate/--crash flags, or None when absent.

    --deadline/--resume/--breakers need a logical clock even without
    injected faults, so any of them forces a (fault-free) injector.
    """
    if args.drop_rate is None and not args.crash:
        if args.deadline is not None or args.resume or args.breakers:
            return FaultInjector(seed=args.fault_seed)
        return None
    faults = FaultInjector(
        seed=args.fault_seed, drop_probability=args.drop_rate or 0.0
    )
    for spec in args.crash:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            print(f"error: bad crash spec {spec!r}; use SERVER:START[:END]", file=out)
            return _BAD_FAULT_SPEC
        try:
            start = float(parts[1])
            end = float(parts[2]) if len(parts) == 3 else None
        except ValueError:
            print(f"error: bad crash spec {spec!r}; use SERVER:START[:END]", file=out)
            return _BAD_FAULT_SPEC
        faults.crash(parts[0], start=start, end=end)
    return faults


def _cmd_analyze(system: DistributedSystem, args, out) -> int:
    import os

    from repro.analysis.reporting import render_profile_report
    from repro.io.serialize import (
        query_profile_to_dict,
        stats_store_from_dict,
        stats_store_to_dict,
    )
    from repro.profiling import QueryProfiler, StatsStore

    if not _load_instances(system, args, out):
        return 2
    store = StatsStore()
    if args.stats and os.path.exists(args.stats):
        try:
            store = stats_store_from_dict(load_json(args.stats))
        except (ReproError, ValueError, OSError) as error:
            print(f"error: bad stats file {args.stats!r}: {error}", file=out)
            return 2
        print(
            f"stats: loaded {len(store)} observations "
            f"({store.harvests} harvests) from {args.stats}",
            file=out,
        )
    profile = None
    result = None
    applied = 0
    for _ in range(max(1, args.runs)):
        profiler = QueryProfiler(
            selectivities=store,
            misestimate_factor=args.misestimate_factor,
        )
        faults = FaultInjector(seed=args.fault_seed)
        try:
            result = system.execute(
                args.sql,
                recipient=args.recipient,
                faults=faults,
                profiler=profiler,
            )
        except InfeasiblePlanError as error:
            print(f"infeasible: {error}", file=out)
            return 2
        profile = result.profile
        applied = store.harvest(profile)
    print(render_profile_report(profile), file=out)
    print(file=out)
    print(f"result: {result.summary()}", file=out)
    print(
        f"harvested: {applied} observations; store holds {len(store)} "
        f"after {store.harvests} harvests",
        file=out,
    )
    if args.stats:
        save_json(stats_store_to_dict(store), args.stats)
        print(f"stats: written to {args.stats}", file=out)
    if args.profile_out:
        save_json(query_profile_to_dict(profile), args.profile_out)
        print(f"profile: written to {args.profile_out}", file=out)
    return 1 if profile.misestimates else 0


def _cmd_suggest(system: DistributedSystem, args, out) -> int:
    spec = parse_query(args.sql, system.catalog)
    tree = build_plan(system.catalog, spec)
    repair = suggest_repair(system.policy, tree)
    print(repair.describe(), file=out)
    if repair.is_already_feasible:
        return 0
    augmented = repair.augmented_policy(system.policy)
    from repro.core.planner import SafePlanner

    SafePlanner(augmented).plan(tree)
    print("\n(the plan is feasible under the augmented policy)", file=out)
    return 0


def _cmd_explain(system: DistributedSystem, args, out) -> int:
    from repro.analysis.explain import explain_planning, render_explanation

    spec = parse_query(args.sql, system.catalog)
    tree = build_plan(system.catalog, spec)
    explanations, feasible = explain_planning(system.policy, tree)
    print(tree.render(), file=out)
    print(file=out)
    print(render_explanation(system.policy, tree, explanations), file=out)
    print(f"\nfeasible: {feasible}", file=out)
    return 0 if feasible else 2


def _cmd_chaos(system: DistributedSystem, args, out) -> int:
    from repro.chaos import (
        ChaosError,
        ChaosRunConfig,
        InvariantMonitor,
        replay_artifact,
        run_chaos,
    )
    from repro.chaos.replay import write_run_artifact

    if args.replay:
        try:
            report, matched = replay_artifact(args.replay)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: cannot replay {args.replay!r}: {error}", file=out)
            return 2
        print(
            f"replayed seed {report.config.seed} "
            f"({report.config.requests} requests): digest {report.digest()}",
            file=out,
        )
        if matched:
            print("replay matched the recorded digest", file=out)
            return 0
        print("replay DIVERGED from the recorded digest", file=out)
        return 1

    try:
        config = ChaosRunConfig(
            seed=args.seed,
            requests=args.requests,
            workers=args.workers,
            recovery=args.recovery,
            kill_every=args.kill_every or None,
            cancel_probability=args.cancel_rate,
            leader_crash_probability=args.leader_crash_rate,
            stall_probability=args.stall_rate,
            storm_probability=args.storm_rate,
            clock_jump_probability=args.clock_jump_rate,
            clock_jump=5.0 if args.clock_jump_rate else 0.0,
            spins=1,
        )
    except ChaosError as error:
        print(f"error: {error}", file=out)
        return 2
    monitor = InvariantMonitor()
    report = run_chaos(config, monitor=monitor)
    counts = report.status_counts()
    rendered = ", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    )
    print(
        f"chaos seed {args.seed}: {report.ok_count}/{config.requests} ok "
        f"({rendered})",
        file=out,
    )
    print(
        f"kills {report.kills}, recovered {report.recovered}, "
        f"events {len(report.events)}, digest {report.digest()}",
        file=out,
    )
    clean = not report.invariant_violations and not report.audit_violations
    artifact = args.artifact_out
    if artifact is None and not clean:
        artifact = f"chaos_violations_seed{args.seed}.json"
    if artifact:
        write_run_artifact(report, artifact, monitor)
        print(f"replay artifact written to {artifact}", file=out)
    if clean:
        print(
            f"invariants clean ({report.monitor.get('checks', 0)} checks, "
            "0 violations)",
            file=out,
        )
        return 0
    print(
        f"VIOLATIONS: {report.invariant_violations} invariant, "
        f"{report.audit_violations} audit — replay with: "
        f"python -m repro.cli chaos --replay {artifact}",
        file=out,
    )
    return 1


def _cmd_check(system: DistributedSystem, args, out) -> int:
    pairs = []
    for condition in args.join:
        if "=" not in condition:
            print(f"error: bad join condition {condition!r}; use A=B", file=out)
            return 2
        left, right = condition.split("=", 1)
        pairs.append((left.strip(), right.strip()))
    profile = RelationProfile(args.attributes, JoinPath.of(*pairs))
    allowed = system.policy.can_view(profile, args.server)
    print(f"{args.server} may view {profile}: {allowed}", file=out)
    if not allowed:
        print(explain_denial(system.policy, profile, args.server), file=out)
    return 0 if allowed else 1


def _load_json_list(path: str):
    """Read a JSON array (workload / tenants files are lists, which
    :func:`repro.io.load_json` deliberately rejects)."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_serve_workload(path: str, out) -> Optional[List[dict]]:
    """Expand a JSON workload file into one request dict per submission
    (``repeat`` unrolled); ``None`` means the file was bad (reported)."""
    try:
        data = _load_json_list(path)
    except (OSError, ValueError) as error:
        print(f"error: cannot read workload {path!r}: {error}", file=out)
        return None
    if not isinstance(data, list):
        print(f"error: workload {path!r} must be a JSON list", file=out)
        return None
    requests: List[dict] = []
    for index, record in enumerate(data):
        if not isinstance(record, dict):
            print(f"error: workload entry {index} is not an object", file=out)
            return None
        sql = record.get("sql", record.get("query"))
        if not sql:
            print(f"error: workload entry {index} needs 'sql'", file=out)
            return None
        repeat = int(record.get("repeat", 1))
        if repeat < 1:
            print(f"error: workload entry {index}: repeat must be >= 1", file=out)
            return None
        request = {
            "query": sql,
            "tenant": record.get("tenant", "default"),
            "recipient": record.get("recipient"),
        }
        requests.extend([dict(request)] * repeat)
    return requests


def _cmd_serve(system: DistributedSystem, args, out) -> int:
    import asyncio

    from repro.service import TenantConfig, TenantConfigError

    if not _load_instances(system, args, out):
        return 2
    requests = _load_serve_workload(args.workload, out)
    if requests is None:
        return 2
    tenants = []
    if args.tenants:
        try:
            data = _load_json_list(args.tenants)
        except (OSError, ValueError) as error:
            print(f"error: cannot read tenants {args.tenants!r}: {error}", file=out)
            return 2
        if not isinstance(data, list):
            print(f"error: tenants {args.tenants!r} must be a JSON list", file=out)
            return 2
        try:
            tenants = [TenantConfig.from_dict(record) for record in data]
        except (TenantConfigError, TypeError, ValueError) as error:
            print(f"error: bad tenant config: {error}", file=out)
            return 2
    trace = None
    if args.trace_out:
        from repro.obs import TraceContext

        trace = TraceContext()
    return asyncio.run(_serve_async(system, requests, tenants, args, trace, out))


async def _serve_async(system, requests, tenants, args, trace, out) -> int:
    import asyncio
    import signal

    from repro.analysis.reporting import latency_percentiles
    from repro.obs import write_metrics
    from repro.service import FAILED, MetricsServer, QueryService

    service = QueryService(
        system,
        tenants=tenants,
        workers=args.workers,
        max_queue=args.max_queue,
        capacity_bytes=args.capacity_bytes,
        search_join_orders=args.search_orders,
        trace=trace,
    )
    await service.start()
    endpoint = None
    if args.port is not None:
        endpoint = MetricsServer(
            service.metrics,
            port=args.port,
            health=lambda: {
                "degrade_level": service.degrade_level(),
                "queue_depth": service.snapshot()["queue_depth"],
            },
        )
        port = await endpoint.start()
        print(f"serving metrics at http://127.0.0.1:{port}/metrics", file=out)
    stop_submitting = asyncio.Event()
    abort = asyncio.Event()
    interrupts = 0

    def on_sigint() -> None:
        nonlocal interrupts
        interrupts += 1
        if interrupts == 1:
            stop_submitting.set()
            print("interrupt: draining admitted work...", file=out, flush=True)
        else:
            abort.set()
            print("interrupt: aborting", file=out, flush=True)

    loop = asyncio.get_running_loop()
    handled_signal = False
    try:
        loop.add_signal_handler(signal.SIGINT, on_sigint)
        handled_signal = True
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
        pass
    semaphore = asyncio.Semaphore(args.window) if args.window > 0 else None

    async def one(request: dict):
        try:
            return await service.submit(
                request["query"],
                tenant=request["tenant"],
                recipient=request["recipient"],
            )
        finally:
            if semaphore is not None:
                semaphore.release()

    tasks = []
    try:
        for request in requests:
            if stop_submitting.is_set() or abort.is_set():
                break
            if semaphore is not None:
                await semaphore.acquire()
                if stop_submitting.is_set() or abort.is_set():
                    semaphore.release()
                    break
            tasks.append(asyncio.create_task(one(request)))
            if args.pace > 0:
                try:
                    await asyncio.wait_for(stop_submitting.wait(), args.pace)
                    break
                except TimeoutError:
                    pass
        outcomes = []
        if tasks:
            waiter = asyncio.gather(*tasks, return_exceptions=True)
            abort_waiter = asyncio.create_task(abort.wait())
            await asyncio.wait(
                [waiter, abort_waiter], return_when=asyncio.FIRST_COMPLETED
            )
            if abort.is_set():
                await service.stop(drain=False)
            else:
                abort_waiter.cancel()
            outcomes = [
                result
                for result in await waiter
                if result is not None and not isinstance(result, BaseException)
            ]
        await service.stop(drain=True)
    finally:
        if handled_signal:
            loop.remove_signal_handler(signal.SIGINT)
        if endpoint is not None:
            await endpoint.stop()
        # Flush observability on every exit path — an interrupted run's
        # metrics are exactly what the operator wants to look at.
        if trace is not None:
            trace.close_all()
            from repro.obs import write_trace

            write_trace(trace, args.trace_out, fmt=args.trace_format)
            print(f"trace: written to {args.trace_out}", file=out)
        if args.metrics_out:
            write_metrics(service.metrics, args.metrics_out)
            print(f"metrics: written to {args.metrics_out}", file=out)
    snapshot = service.snapshot()
    print(
        f"served: {snapshot['submitted']} submitted / "
        f"{snapshot['admitted']} admitted / {snapshot['shed']} shed / "
        f"{snapshot['ok']} ok / {snapshot['infeasible']} infeasible / "
        f"{snapshot['failed']} failed "
        f"({len(requests) - len(tasks)} never submitted)",
        file=out,
    )
    latencies = [o.latency for o in outcomes if o.ok]
    if latencies:
        pct = latency_percentiles(latencies)
        print(
            f"latency: p50={pct['p50']:.4f}s p95={pct['p95']:.4f}s "
            f"p99={pct['p99']:.4f}s over {len(latencies)} served",
            file=out,
        )
    if snapshot["plan_cache"] is not None:
        cache = snapshot["plan_cache"]
        print(
            f"plan cache: {cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['revalidations']} revalidations",
            file=out,
        )
    if abort.is_set():
        print("aborted before all outcomes resolved", file=out)
        return 3
    if snapshot["failed"]:
        return 1
    return 0


def _parse_boundary(token: str):
    """Range boundary: int if it parses, then float, else the string."""
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _parse_schemes(specs, group_servers, out):
    """``--scheme`` specs to a ``relation -> PartitionScheme`` mapping
    (``None`` and a message on a malformed spec)."""
    from repro.sharding import (
        HashPartitionScheme,
        PartitionGroup,
        RangePartitionScheme,
    )

    group = PartitionGroup("cli-group", group_servers)
    schemes = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            print(
                f"error: bad --scheme {spec!r} "
                "(want REL:hash:ATTRS:SHARDS or REL:range:ATTR:BOUNDARIES)",
                file=out,
            )
            return None
        relation, kind, attrs, tail = parts
        if kind == "hash":
            try:
                shards = int(tail)
            except ValueError:
                print(f"error: bad shard count in --scheme {spec!r}", file=out)
                return None
            schemes[relation] = HashPartitionScheme(
                relation, attrs.split(","), shards, group
            )
        elif kind == "range":
            boundaries = [_parse_boundary(b) for b in tail.split(",")]
            schemes[relation] = RangePartitionScheme(
                relation, attrs, boundaries, group
            )
        else:
            print(
                f"error: unknown partition kind {kind!r} in --scheme {spec!r}",
                file=out,
            )
            return None
    return schemes


def _cmd_shard(system: DistributedSystem, args, out) -> int:
    if not _load_instances(system, args, out):
        return 2
    schemes = _parse_schemes(args.scheme, args.group, out)
    if schemes is None:
        return 2
    certificate = system.certify_sharding(args.sql, schemes)
    for name, scheme in sorted(schemes.items()):
        print(f"scheme: {name} -> {scheme.describe()}", file=out)
    verdict = "certified" if certificate.certified else "REJECTED"
    print(f"certificate: {verdict} mode={certificate.mode}", file=out)
    if certificate.reason:
        print(f"  reason: {certificate.reason}", file=out)
    if args.certify_only:
        return 0 if certificate.certified else 3
    result = system.execute_sharded(
        args.sql,
        schemes,
        recipient=args.recipient,
        allow_multiround=not args.no_multiround,
    )
    summary = result.summary_dict()
    print(
        f"result: mode={summary['mode']} rows={summary['rows']} "
        f"shards={summary['shards']} rounds={summary['rounds']} "
        f"transfers={summary['transfers']} violations={summary['violations']} "
        f"makespan={summary['makespan']:.4f}",
        file=out,
    )
    if summary["fallback_reason"]:
        print(f"  fallback: {summary['fallback_reason']}", file=out)
    if args.diff:
        single = system.execute(args.sql, recipient=args.recipient)
        identical = result.table == single.table
        print(
            f"differential: {'identical' if identical else 'MISMATCH'} "
            f"({len(single.table)} rows single-copy)",
            file=out,
        )
        if not identical:
            return 1
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "plan": _cmd_plan,
    "execute": _cmd_execute,
    "analyze": _cmd_analyze,
    "suggest": _cmd_suggest,
    "explain": _cmd_explain,
    "check": _cmd_check,
    "serve": _cmd_serve,
    "shard": _cmd_shard,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        system = _load_system(args)
        return _COMMANDS[args.command](system, args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
