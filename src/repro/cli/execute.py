"""The subcommands that run one query over loaded instances:
``execute`` (faults, breakers, deadlines, checkpoint/resume, traces),
``analyze`` (EXPLAIN ANALYZE under the profiler) and ``shard``
(certify a partition scheme, run partition-parallel, ``--diff``
against single-copy; see ``docs/sharding.md``)."""

from __future__ import annotations

import os

from repro.cli import common
from repro.cli.common import CONFIG_ERROR
from repro.distributed.faults import FaultInjector
from repro.distributed.health import HealthTracker
from repro.exceptions import (
    CheckpointError,
    DeadlineExceededError,
    DegradedExecutionError,
    InfeasiblePlanError,
    ReproError,
)
from repro.io import load_json
from repro.io.serialize import checkpoint_from_dict, checkpoint_to_dict, save_json
from repro.obs import TraceContext


def register(commands) -> None:
    run = common.subcommand(
        commands, "execute", "plan and run a SQL query",
        {
            0: "executed; every transfer audited",
            2: f"infeasible, a checkpoint the policy no longer covers, or {CONFIG_ERROR}",
            3: "degraded: no safe assignment survives the faults (with --resume "
            "FILE the checkpoint journal is written)",
            4: "deadline exceeded (with --resume FILE the checkpoint journal is "
            "written)",
        },
        common.sql, common.recipient, common.instances, common.fault_seed,
        common.observability,
    )
    run.add_argument(
        "--drop-rate", type=float, metavar="P",
        help="inject per-attempt transfer drops with probability P (enables "
        "retry/backoff and authorization-safe failover)",
    )
    run.add_argument(
        "--crash", action="append", default=[], metavar="SERVER:START[:END]",
        help="take SERVER down during [START, END) of logical time "
        "(END omitted = forever; repeatable; enables fault injection)",
    )
    run.add_argument(
        "--max-failovers", type=int, default=3,
        help="re-planning rounds before the query degrades",
    )
    run.add_argument(
        "--deadline", type=float, metavar="BUDGET",
        help="simulated-time budget for the whole execution (enables fault injection)",
    )
    run.add_argument(
        "--resume", metavar="FILE",
        help="checkpoint journal file: loaded (and re-audited) when it exists, "
        "written when the run is killed by deadline or degradation (enables "
        "fault injection)",
    )
    run.add_argument(
        "--breakers", action="store_true",
        help="track per-server/per-link health with circuit breakers and "
        "plan around quarantined servers (enables fault injection)",
    )
    run.set_defaults(handler=execute)

    analyze_cmd = common.subcommand(
        commands, "analyze",
        "EXPLAIN ANALYZE: run a query under the profiler and render estimated vs actual",
        {
            0: "no misestimated transfer",
            1: "the last run flagged a misestimate",
            2: f"infeasible, or {CONFIG_ERROR}",
        },
        common.sql, common.recipient, common.instances, common.fault_seed,
    )
    analyze_cmd.add_argument(
        "--runs", type=int, default=1,
        help="profiled executions; each harvests into the stats store, and "
        "the last one is rendered (default 1)",
    )
    analyze_cmd.add_argument(
        "--misestimate-factor", type=float, default=2.0, metavar="F",
        help="flag a transfer when actual bytes exceed F x estimate (default 2.0)",
    )
    analyze_cmd.add_argument(
        "--stats", metavar="FILE",
        help="statistics store JSON: loaded when it exists, written back "
        "with this run's harvest (keeps estimates warm across invocations)",
    )
    analyze_cmd.add_argument(
        "--profile-out", metavar="FILE",
        help="write the rendered run's profile artifact JSON to FILE",
    )
    analyze_cmd.set_defaults(handler=analyze)

    shard_cmd = common.subcommand(
        commands, "shard", "certify a partition scheme and run a query partition-parallel",
        {
            0: "ran (partitioned, or single-copy after a rejected certificate), "
            "or certified with --certify-only",
            1: "--diff found the partitioned and single-copy results differ",
            3: "the certificate was rejected (--certify-only)",
        },
        common.sql, common.recipient, common.instances,
    )
    shard_cmd.add_argument(
        "--scheme", action="append", required=True, metavar="SPEC",
        help="partition spec, repeatable: REL:hash:ATTR[,ATTR...]:SHARDS "
        "or REL:range:ATTR:B1[,B2...] (boundaries split strictly "
        "increasing ranges)",
    )
    shard_cmd.add_argument(
        "--group", nargs="+", required=True, metavar="SERVER",
        help="server group hosting the shards (round-robin placement)",
    )
    shard_cmd.add_argument(
        "--certify-only", action="store_true",
        help="run the parallel-correctness checker and stop",
    )
    shard_cmd.add_argument(
        "--diff", action="store_true",
        help="also run single-copy and verify the results are identical",
    )
    shard_cmd.set_defaults(handler=shard)


def execute(system, args, out) -> int:
    common.load_instances(system, args)
    faults = _build_injector(args)
    health = HealthTracker() if args.breakers else None
    resume_from = None
    if args.resume and os.path.exists(args.resume):
        try:
            resume_from = checkpoint_from_dict(load_json(args.resume))
        except (ReproError, ValueError, OSError) as error:
            raise ReproError(f"bad checkpoint file {args.resume!r}: {error}") from error
        print(
            f"resuming from {args.resume} "
            f"({len(resume_from)} checkpointed subtrees)",
            file=out,
        )
    trace = TraceContext() if args.trace_out or args.metrics_out else None
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
        common.write_observability(
            trace, trace.metrics if trace is not None else None, args, out
        )
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


def _save_journal(journal, path, out) -> None:
    """Persist a checkpoint journal for a later --resume, when asked to."""
    if journal is None or not path:
        return
    save_json(checkpoint_to_dict(journal), path)
    print(
        f"checkpoint: {len(journal)} completed subtrees written to {path}",
        file=out,
    )


def _build_injector(args):
    """An injector from --drop-rate/--crash flags, or None when absent.

    --deadline/--resume/--breakers need a logical clock even without
    injected faults, so any of them forces a (fault-free) injector.
    """
    if args.drop_rate is None and not args.crash:
        if args.deadline is not None or args.resume or args.breakers:
            return FaultInjector(seed=args.fault_seed)
        return None
    faults = FaultInjector(seed=args.fault_seed, drop_probability=args.drop_rate or 0.0)
    for spec in args.crash:
        parts = spec.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError(spec)
            start = float(parts[1])
            end = float(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise ReproError(f"bad crash spec {spec!r}; use SERVER:START[:END]") from None
        faults.crash(parts[0], start=start, end=end)
    return faults


def analyze(system, args, out) -> int:
    from repro.analysis.reporting import render_profile_report
    from repro.io.serialize import (
        query_profile_to_dict,
        stats_store_from_dict,
        stats_store_to_dict,
    )
    from repro.profiling import QueryProfiler, StatsStore

    common.load_instances(system, args)
    store = StatsStore()
    if args.stats and os.path.exists(args.stats):
        try:
            store = stats_store_from_dict(load_json(args.stats))
        except (ReproError, ValueError, OSError) as error:
            raise ReproError(f"bad stats file {args.stats!r}: {error}") from error
        print(
            f"stats: loaded {len(store)} observations "
            f"({store.harvests} harvests) from {args.stats}",
            file=out,
        )
    for _ in range(max(1, args.runs)):
        profiler = QueryProfiler(
            selectivities=store,
            misestimate_factor=args.misestimate_factor,
        )
        try:
            result = system.execute(
                args.sql,
                recipient=args.recipient,
                faults=FaultInjector(seed=args.fault_seed),
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


def _parse_boundary(token: str):
    """Range boundary: int if it parses, then float, else the string."""
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def parse_schemes(specs, group_servers) -> dict:
    """``--scheme`` specs to a ``relation -> PartitionScheme`` mapping."""
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
            raise ReproError(
                f"bad --scheme {spec!r} "
                "(want REL:hash:ATTRS:SHARDS or REL:range:ATTR:BOUNDARIES)"
            )
        relation, kind, attrs, tail = parts
        if kind == "hash":
            try:
                shards = int(tail)
            except ValueError:
                raise ReproError(f"bad shard count in --scheme {spec!r}") from None
            schemes[relation] = HashPartitionScheme(
                relation, attrs.split(","), shards, group
            )
        elif kind == "range":
            boundaries = [_parse_boundary(b) for b in tail.split(",")]
            schemes[relation] = RangePartitionScheme(relation, attrs, boundaries, group)
        else:
            raise ReproError(f"unknown partition kind {kind!r} in --scheme {spec!r}")
    return schemes


def shard(system, args, out) -> int:
    common.load_instances(system, args)
    schemes = parse_schemes(args.scheme, args.group)
    certificate = system.certify_sharding(args.sql, schemes)
    for name, scheme in sorted(schemes.items()):
        print(f"scheme: {name} -> {scheme.describe()}", file=out)
    verdict = "certified" if certificate.certified else "REJECTED"
    print(f"certificate: {verdict} mode={certificate.mode}", file=out)
    if certificate.reason:
        print(f"  reason: {certificate.reason}", file=out)
    if args.certify_only:
        return 0 if certificate.certified else 3
    result = system.execute_sharded(args.sql, schemes, recipient=args.recipient)
    summary = result.summary_dict()
    print(
        f"result: mode={summary['mode']} rows={summary['rows']} "
        f"shards={summary['shards']} "
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
