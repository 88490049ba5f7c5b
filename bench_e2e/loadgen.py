"""Set-up and the closed-loop load generator.

Closed loop, coroutine clients only: each client sends its next request
when the previous one has its outcome, all on one event loop (the
machine has 2 cores and the service is a single-loop asyncio program,
so threads or sockets would measure the harness).  Every outcome is
checked against the oracle as it arrives.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.distributed.system import DistributedSystem
from repro.service import OK, QueryService, TenantConfig
from repro.sharding import EXEC_PARTITIONED

from bench_e2e.workloads import BASE_STATE, Oracle, Request, Workload, client_stream


class Deployment(NamedTuple):
    system: DistributedSystem
    service: QueryService
    streams: List[Iterator[Request]]
    schemes: Optional[dict]


class Churn:
    """Writes beside reads: one ``revoke_authorization`` or
    ``add_authorization`` after every ``every`` completed requests,
    cycling over the workload's churn rules, so at most one rule is
    revoked at a time.  Updates run synchronously on the loop and stall
    every client, exactly as a live policy update does.
    """

    def __init__(self, workload: Workload, service: QueryService, oracle: Oracle) -> None:
        self._service = service
        self._rules = workload.churn_rules()
        self._states = oracle.churn_states
        self._every = workload.churn_every
        self._updates = 0
        #: Policy state after each update; requests are checked against
        #: every state in force between their submit and their outcome.
        self.state_log = [BASE_STATE]

    def update(self, tracer=None) -> None:
        """The cycle's next step: revoke a rule, or grant it back."""
        index = (self._updates // 2) % len(self._rules)
        revoke = self._updates % 2 == 0
        self._updates += 1
        start = time.perf_counter()
        if revoke:
            self._service.revoke_authorization(self._rules[index])
        else:
            self._service.add_authorization(self._rules[index])
        if tracer is not None:
            name = "service.revoke_authorization" if revoke else "service.add_authorization"
            tracer.add(name, start, time.perf_counter())
        self.state_log.append(self._states[index] if revoke else BASE_STATE)

    def after_completion(self, completed: int, tracer=None) -> None:
        if completed % self._every == 0:
            self.update(tracer)

    def settle(self) -> None:
        """Re-grant the rule a finished loop left revoked, if any."""
        if self.state_log[-1] != BASE_STATE:
            self.update()


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class LoadResult:
    """What one closed-loop run saw."""

    def __init__(self) -> None:
        self.started = 0.0
        self.ended = 0.0
        self.cpu_started = 0.0
        self.cpu = 0.0
        self.latencies: List[float] = []
        self.done_at: List[float] = []
        self.cpu_at: List[float] = []
        self.ok = 0
        self.infeasible = 0
        self.failed = 0
        self.shipped_bytes = 0
        self.first_failure: Optional[str] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def shipped_bytes(result) -> int:
    """Bytes one delivered result shipped between servers (summed over
    the shard runs when it executed partitioned)."""
    shards = getattr(result, "shard_results", None)
    if shards is None:
        return result.transfers.total_bytes()
    total = sum(shard.transfers.total_bytes() for shard in shards)
    if result.single_result is not None:
        total += result.single_result.transfers.total_bytes()
    return total


def check_outcome(request: Request, outcome, allowed: set, oracle: Oracle, sharded: bool) -> Optional[str]:
    """``None`` when the outcome is the expected one, else why not."""
    if outcome.status not in allowed:
        return f"status {outcome.status!r} ({outcome.error or outcome.rejection}), expected {sorted(allowed)}"
    if outcome.status != OK:
        return None
    result = outcome.result
    if result.table != oracle.rows[request.shape]:
        return f"{len(result.table)} rows differ from the oracle's {len(oracle.rows[request.shape])}"
    if result.audit is None or result.audit.violations:
        return "audit missing or not clean"
    if sharded and (result.mode != EXEC_PARTITIONED or result.fallback_reason):
        return f"sharded request ran {result.mode} ({result.fallback_reason})"
    return None


async def run_closed_loop(
    workload: Workload,
    deployment: Deployment,
    oracle: Oracle,
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
    churn: Optional[Churn] = None,
    tracer=None,
) -> LoadResult:
    """Drive the deployment's clients until ``seconds`` have passed or
    ``limit`` requests were issued, whichever is given."""
    service = deployment.service
    sharded = deployment.schemes is not None
    run = LoadResult()
    issued = 0
    log = churn.state_log if churn is not None else [BASE_STATE]
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else float("inf")
    cap = limit if limit is not None else float("inf")

    async def client(stream: Iterator[Request]) -> None:
        nonlocal issued
        while issued < cap and clock() < deadline:
            issued += 1
            request = next(stream)
            first_state = len(log) - 1
            start = clock()
            outcome = await service.submit(
                request.sql, tenant=request.tenant, recipient=workload.recipient
            )
            end = clock()
            run.latencies.append(end - start)
            run.done_at.append(end)
            run.cpu_at.append(cpu_seconds())
            if tracer is not None:
                tracer.add("service.submit", start, end, request_id=len(run.latencies))
            allowed = oracle.allowed_statuses(request.shape, log[first_state:])
            failure = check_outcome(request, outcome, allowed, oracle, sharded)
            if failure is not None:
                run.failed += 1
                if run.first_failure is None:
                    run.first_failure = f"{request}: {failure}"
            elif outcome.status == OK:
                run.ok += 1
                run.shipped_bytes += shipped_bytes(outcome.result)
            else:
                run.infeasible += 1
            if churn is not None:
                churn.after_completion(len(run.latencies), tracer)

    run.started = clock()
    run.cpu_started = cpu_seconds()
    await asyncio.gather(*(client(stream) for stream in deployment.streams))
    run.ended = clock()
    run.cpu = cpu_seconds() - run.cpu_started
    return run


async def deploy(workload: Workload, seed: int, oracle: Oracle) -> Tuple[Deployment, float]:
    """One full set-up, timed: catalog, ``close_policy``,
    ``load_instances``, service start, the seeded warm-up and a
    collection.  Returns the running deployment and its ``setup_s``.
    """
    start = time.perf_counter()
    catalog, policy, instances, schemes = workload.world(seed)
    system = DistributedSystem(catalog, policy)
    system.load_instances(instances)
    service = QueryService(
        system,
        tenants=[TenantConfig(name) for name in workload.tenants],
        shard_schemes=schemes,
    )
    await service.start()
    streams = [
        client_stream(workload, seed, client, oracle.literal_attrs)
        for client in range(workload.clients)
    ]
    deployment = Deployment(system, service, streams, schemes)
    warm = await run_closed_loop(workload, deployment, oracle, limit=workload.warmup)
    if warm.failed:
        raise AssertionError(f"warm-up failed: {warm.first_failure}")
    gc.collect()
    return deployment, time.perf_counter() - start
