"""The subcommands that drive the multi-tenant query service:
``serve`` runs a JSON workload through it (see ``docs/serving.md``),
with an optional live Prometheus scrape endpoint; ``chaos`` runs a
seeded chaos schedule through it with crash-consistent recovery and
the online invariant monitor, or replays a recorded violation artifact
(see ``docs/chaos.md``).

One SIGINT stops ``serve``'s submissions, drains admitted work and
still flushes ``--metrics-out`` / ``--trace-out``; a second one stops
the service at once (queued requests resolve as shed, never partially
executed).
"""

from __future__ import annotations

import asyncio
import signal
from typing import List

from repro.cli import common
from repro.exceptions import ReproError
from repro.obs import TraceContext


def register(commands) -> None:
    serve_cmd = common.subcommand(
        commands, "serve", "run a workload through the multi-tenant query service",
        {
            0: "every request resolved and the service drained cleanly, also "
            "after one SIGINT (shed and infeasible outcomes are answers, not "
            "failures)",
            1: "drained cleanly but some requests failed with execution errors",
            3: "aborted by a second SIGINT before all outcomes resolved",
        },
        common.instances, common.search_orders, common.observability,
    )
    serve_cmd.add_argument(
        "--workload", required=True, metavar="FILE",
        help="JSON list of requests: {sql, tenant?, recipient?, repeat?}",
    )
    serve_cmd.add_argument(
        "--tenants", metavar="FILE",
        help="JSON list of tenant configs: {name, priority?, rate?, burst?, deadline?}",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=4, help="worker coroutines (default 4)"
    )
    serve_cmd.add_argument(
        "--max-queue", type=int, default=256,
        help="queued-request bound; admission sheds beyond it (default 256)",
    )
    serve_cmd.add_argument(
        "--capacity-bytes", type=float, metavar="BYTES",
        help="total estimated in-flight bytes admitted at once "
        "(0 deterministically sheds everything; default: unlimited)",
    )
    serve_cmd.add_argument(
        "--window", type=int, default=64,
        help="max concurrent client submissions (0 = all at once, which "
        "a bounded queue will shed; default 64)",
    )
    serve_cmd.add_argument(
        "--pace", type=float, default=0.0, metavar="SECONDS",
        help="sleep between submissions (keeps the service busy long "
        "enough to scrape or interrupt; default 0)",
    )
    serve_cmd.add_argument(
        "--port", type=int, metavar="PORT",
        help="expose /metrics and /healthz on 127.0.0.1:PORT "
        "(0 picks an ephemeral port, printed at startup; default: off)",
    )
    serve_cmd.set_defaults(handler=serve)

    chaos_cmd = common.subcommand(
        commands, "chaos",
        "run a seeded chaos schedule against the query service "
        "(or replay a recorded violation artifact)",
        {
            0: "no invariant or audit violation (--replay: the digest matched)",
            1: "violations observed, replay artifact written (--replay: the "
            "digest diverged)",
        },
    )
    chaos_cmd.add_argument(
        "--replay", metavar="FILE",
        help="replay the chaos run a violation artifact recorded and "
        "verify the digest reproduces bit-exactly (all other chaos "
        "options are ignored — the artifact carries the full config)",
    )
    chaos_cmd.add_argument("--seed", type=int, default=16, help="chaos schedule seed")
    chaos_cmd.add_argument("--requests", type=int, default=1000, help="requests to drive")
    chaos_cmd.add_argument("--workers", type=int, default=8, help="service worker coroutines")
    chaos_cmd.add_argument(
        "--kill-every", type=int, default=25, metavar="N",
        help="kill/restart the service every N submissions (0 = never; default 25)",
    )
    chaos_cmd.add_argument(
        "--no-recovery", dest="recovery", action="store_false",
        help="drop the write-ahead journal: kills shed in-flight work "
        "instead of recovering it",
    )
    for flag, default, what in (
        ("--cancel-rate", 0.05, "worker-death probability per execution"),
        ("--leader-crash-rate", 0.03, "single-flight leader crash probability"),
        ("--stall-rate", 0.10, "admission stall probability"),
        ("--storm-rate", 0.05, "policy grant/revoke storm probability"),
        ("--clock-jump-rate", 0.05, "logical clock jump probability"),
    ):
        chaos_cmd.add_argument(
            flag, type=float, default=default, metavar="P",
            help=f"{what} (default %(default)s)",
        )
    chaos_cmd.add_argument(
        "--artifact-out", metavar="FILE",
        help="always write the replay artifact to FILE (default: only "
        "on violation, as chaos_violations_seed<seed>.json)",
    )
    chaos_cmd.set_defaults(handler=chaos)


def load_workload(path: str) -> List[dict]:
    """Expand a JSON workload file into one request dict per submission
    (``repeat`` unrolled)."""
    requests: List[dict] = []
    for index, record in enumerate(common.load_json_list(path, "workload")):
        if not isinstance(record, dict):
            raise ReproError(f"workload entry {index} is not an object")
        sql = record.get("sql", record.get("query"))
        if not sql:
            raise ReproError(f"workload entry {index} needs 'sql'")
        repeat = int(record.get("repeat", 1))
        if repeat < 1:
            raise ReproError(f"workload entry {index}: repeat must be >= 1")
        request = {
            "query": sql,
            "tenant": record.get("tenant", "default"),
            "recipient": record.get("recipient"),
        }
        requests.extend([dict(request)] * repeat)
    return requests


def serve(system, args, out) -> int:
    from repro.service import TenantConfig, TenantConfigError

    common.load_instances(system, args)
    requests = load_workload(args.workload)
    tenants = []
    if args.tenants:
        data = common.load_json_list(args.tenants, "tenants")
        try:
            tenants = [TenantConfig.from_dict(record) for record in data]
        except (TenantConfigError, TypeError, ValueError) as error:
            raise ReproError(f"bad tenant config: {error}") from error
    trace = TraceContext() if args.trace_out else None
    return asyncio.run(_serve_async(system, requests, tenants, args, trace, out))


async def _serve_async(system, requests, tenants, args, trace, out) -> int:
    from repro.analysis.reporting import latency_percentiles
    from repro.service import MetricsServer, QueryService

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
        common.write_observability(trace, service.metrics, args, out)
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
    return 1 if snapshot["failed"] else 0


def chaos(system, args, out) -> int:
    from repro.chaos import ChaosRunConfig, InvariantMonitor, replay_artifact, run_chaos
    from repro.chaos.replay import write_run_artifact

    if args.replay:
        try:
            report, matched = replay_artifact(args.replay)
        except (OSError, ValueError, ReproError) as error:
            raise ReproError(f"cannot replay {args.replay!r}: {error}") from error
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
