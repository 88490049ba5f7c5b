"""The asyncio multi-tenant query service over one
:class:`~repro.distributed.system.DistributedSystem`.

:class:`QueryService` is the serving front-end the ROADMAP's north star
asks for: thousands of concurrent requests from many tenants, one
shared policy-epoch plan cache, and load control that never relaxes the
paper's controlled-information-sharing guarantees.  The moving parts:

* **admission** — every ``submit`` passes the
  :class:`~repro.service.admission.AdmissionController` gate (token
  buckets, bounded queue, cost-aware shedding) *before* queueing;
  refusals come back as structured ``shed`` outcomes, never hangs;
* **one flight per request** — every admitted request computes one
  flight key at ``submit`` (planning fingerprint, recipient, whether
  the run is profiled, admission-time policy epoch).  The first request
  of a key opens the flight and queues as its leader; an identical
  request admitted while the flight is open takes no queue slot and
  awaits its own future beside the leader.  Only the leader builds a
  pipeline, plans through the plan cache and executes; its ``ok``,
  ``infeasible`` or execution ``failed`` outcome is every follower's,
  while its own fate (a deadline shed, spent chaos attempts, shutdown)
  hands the flight to the first follower.  A flight queues at the
  priority of its most urgent request.  Planning never awaits, so a
  leader fills the plan cache before any other request can look: no
  planning stampede needs a gate of its own;
* **graceful degradation** — a queue-occupancy ladder (normal →
  degraded planning → priority shedding) plus per-tenant circuit
  breakers reusing the PR 3
  :class:`~repro.distributed.health.CircuitBreaker`, and per-tenant
  deadline budgets charged for queue wait through the PR 3
  :class:`~repro.engine.deadline.DeadlineBudget`;
* **live policy churn** — :meth:`add_authorization` /
  :meth:`revoke_authorization` update the closed policy in place
  mid-stream; every leader plans and verifies against the policy in
  force when it runs (the plan cache's epoch probe evicts stale
  entries, the key's epoch keeps a request admitted after the update
  out of an older flight, and the runtime audit is the final
  backstop), so a revoked transfer can never ride a queued admission.

Execution itself is the synchronous, audited
:class:`~repro.distributed.pipeline.QueryPipeline` — the service adds
concurrency *between* queries (cooperative interleaving at await
points), not inside one.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.plancache import fingerprint_tree
from repro.distributed.faults import fault_free
from repro.distributed.health import CircuitBreaker
from repro.engine.deadline import DeadlineBudget
from repro.exceptions import (
    ChaosInterrupt,
    CheckpointError,
    DeadlineExceededError,
    InfeasiblePlanError,
    ReproError,
)
from repro.obs.hooks import service_hooks_for
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import (
    DEGRADE_NORMAL,
    DEGRADE_PLANNING,
    DEGRADE_SHED,
    REJECT_BREAKER,
    REJECT_DEADLINE,
    REJECT_RECOVERY,
    REJECT_SHUTDOWN,
    AdmissionController,
    Rejection,
    estimate_query_bytes,
)
from repro.service.tenants import TenantConfig, tenant_map

#: Latency histogram bucket bounds (seconds) — sub-millisecond planning
#: hits up to multi-second degraded executions.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Outcome statuses.
OK = "ok"
SHED = "shed"
INFEASIBLE = "infeasible"
FAILED = "failed"


class ServiceError(ReproError):
    """Misuse of the service lifecycle (submit before start, ...)."""


def _failure_status(error: ReproError) -> str:
    """``infeasible`` for a policy refusal, ``failed`` for anything else."""
    return INFEASIBLE if isinstance(error, InfeasiblePlanError) else FAILED


class QueryOutcome:
    """The service's answer to one submitted request.

    Attributes:
        status: ``ok`` (executed, audited), ``shed`` (structured
            rejection — see :attr:`rejection`), ``infeasible`` (no safe
            assignment under the current policy) or ``failed``
            (a text that does not lex, parse or bind, or an execution
            error; see :attr:`error`).
        tenant: the submitting tenant's name.
        result: the audited
            :class:`~repro.engine.executor.ExecutionResult` (``ok``
            only).
        rejection: the structured
            :class:`~repro.service.admission.Rejection` (``shed`` only).
        error: stringified error (``infeasible`` / ``failed`` only).
        latency: submit-to-outcome clock units.
        coalesced: whether the result was served by another request's
            flight instead of a run of its own.
        degrade_level: the service's degrade level when the request was
            admitted (or refused).
    """

    __slots__ = (
        "status", "tenant", "result", "rejection", "error", "latency",
        "coalesced", "degrade_level",
    )

    def __init__(
        self,
        status: str,
        tenant: str,
        result=None,
        rejection: Optional[Rejection] = None,
        error: Optional[str] = None,
        latency: float = 0.0,
        coalesced: bool = False,
        degrade_level: int = DEGRADE_NORMAL,
    ) -> None:
        self.status = status
        self.tenant = tenant
        self.result = result
        self.rejection = rejection
        self.error = error
        self.latency = latency
        self.coalesced = coalesced
        self.degrade_level = degrade_level

    @property
    def ok(self) -> bool:
        """Whether the query executed and was delivered."""
        return self.status == OK

    def to_dict(self) -> dict:
        """Flat JSON-safe rendering (one schema for every status)."""
        return {
            "status": self.status,
            "tenant": self.tenant,
            "rows": len(self.result.table) if self.result is not None else 0,
            "violations": (
                len(self.result.audit.violations)
                if self.result is not None and self.result.audit is not None
                else 0
            ),
            "rejection": (
                self.rejection.to_dict() if self.rejection is not None else None
            ),
            "error": self.error,
            "latency": self.latency,
            "coalesced": self.coalesced,
            "degrade_level": self.degrade_level,
        }

    def __repr__(self) -> str:
        return (
            f"QueryOutcome({self.status}, tenant={self.tenant!r}, "
            f"latency={self.latency:.4f}, coalesced={self.coalesced})"
        )


class _WorkItem:
    """One admitted request: its flight's leader (queued for a worker)
    or a follower awaiting its own future beside the leader."""

    __slots__ = (
        "query", "recipient", "ticket", "future", "submitted_at",
        "request_id", "key", "retries", "checkpoint", "entry",
    )

    def __init__(
        self, query, recipient, ticket, future, submitted_at, request_id, key
    ) -> None:
        self.query = query
        self.recipient = recipient
        self.ticket = ticket
        self.future = future
        self.submitted_at = submitted_at
        self.request_id = request_id
        self.key = key
        self.retries = 0
        # Completed, audited subtrees an interrupted attempt parked for
        # the retry to resume from.
        self.checkpoint = None
        # ``(rank, seq)`` of the item's live queue entry; ``None`` while
        # it is not queued.
        self.entry = None

    def __lt__(self, other: "_WorkItem") -> bool:  # pragma: no cover
        # PriorityQueue tie-breaker only; ordering is fully decided by
        # the (priority, seq) tuple the queue entries carry.
        return False


class QueryService:
    """Serve many tenants' queries over one distributed system.

    Args:
        system: the :class:`~repro.distributed.system.DistributedSystem`
            to serve (its plan cache, policy and instances are shared
            by every request).
        tenants: per-tenant contracts
            (:class:`~repro.service.tenants.TenantConfig`); requests
            from unconfigured tenants run under ``default_tenant``'s
            shape with their own rate bucket.
        default_tenant: fallback contract (default: unlimited rate,
            priority 0, no deadline).
        workers: concurrent worker coroutines draining the queue.
        max_queue: bound on waiting requests — queued leaders plus the
            followers attached to their flights (admission refuses
            beyond it).
        capacity_bytes: total estimated in-flight bytes admitted at
            once; ``None`` disables cost-aware shedding, ``0``
            deterministically sheds every request.
        shed_priority_floor: minimum tenant priority admitted while the
            service is at the shedding degrade level.
        degrade_soft / degrade_hard: queue-occupancy fractions at which
            the degrade ladder moves to degraded planning / priority
            shedding.
        breaker_threshold: consecutive *failed* (not infeasible)
            executions that open a tenant's circuit breaker; ``None``
            disables tenant breakers.
        breaker_cooldown: clock units an open tenant breaker refuses
            requests before probing again.
        search_join_orders: plan with join-order search while the
            service is healthy (degrade level 1+ turns it off — the
            first rung of graceful degradation).
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to
            instrument (default: the trace's registry, else a fresh
            one — exposed at :attr:`metrics` for the scrape endpoint).
        trace: optional :class:`~repro.obs.trace.TraceContext` threaded
            into planning and execution.
        clock: zero-argument monotonic clock (default
            ``time.monotonic``; benches and tests inject deterministic
            counters).
        chaos: optional :class:`~repro.chaos.ChaosSchedule`; when set
            the service fires its chaos points (submit, worker, leader,
            execute), runs pipelines on the schedule's fault injector,
            and — unless an explicit ``clock`` was given — lives in the
            schedule's logical clock so seeded runs replay exactly.
        journal: optional :class:`~repro.chaos.ServiceJournal` — the
            write-ahead log enabling :meth:`kill` / :meth:`recover`
            crash consistency; one journal is threaded through every
            service instance of a lineage.
        monitor: optional :class:`~repro.chaos.InvariantMonitor`;
            hears every lifecycle event.  Journal, monitor and chaos
            schedule are the service's listeners, assembled once by
            :func:`~repro.obs.hooks.service_hooks_for`; without any of
            them the service calls the null listener's no-op events.
        max_chaos_retries: chaos-interrupted attempts per request
            before it stops leading its flight: it waits on a follower
            that has attempts left, or gives up with a ``failed``
            outcome.
        stats_store: optional :class:`~repro.profiling.StatsStore`.
            Executions of tenants with ``profile=True`` run under a
            :class:`~repro.profiling.QueryProfiler` whose estimates use
            the store's observed selectivities, and every completed
            profile is harvested back — the service's long-running
            loop is exactly where the plan-quality feedback pays off.
            Profiled tenants also export tenant-labeled
            ``repro_service_profile_*`` metrics regardless of whether
            a store is configured.
        shard_schemes: optional ``relation name ->
            :class:`~repro.sharding.PartitionScheme`` distribution
            policy.  When set, requests route through the
            partition-parallel coordinator: the parallel-correctness
            checker certifies the schemes per query, certified queries
            execute sharded, and everything else transparently falls
            back to single-copy execution — outcomes carry a
            :class:`~repro.sharding.ShardedResult` either way.  It is
            a property of the plan the one pipeline executes, so it
            composes with every other option here: chaos points fire
            per shard, the journal recovers sharded requests, the
            monitor re-probes every shard's transfers and profiled
            tenants harvest every shard's profile.
    """

    def __init__(
        self,
        system,
        tenants: Sequence[TenantConfig] = (),
        default_tenant: Optional[TenantConfig] = None,
        workers: int = 4,
        max_queue: int = 256,
        capacity_bytes: Optional[float] = None,
        shed_priority_floor: int = 1,
        degrade_soft: float = 0.5,
        degrade_hard: float = 0.85,
        breaker_threshold: Optional[int] = 5,
        breaker_cooldown: float = 1.0,
        search_join_orders: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        trace=None,
        clock: Callable[[], float] = time.monotonic,
        chaos=None,
        journal=None,
        monitor=None,
        max_chaos_retries: int = 3,
        stats_store=None,
        shard_schemes=None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_chaos_retries < 0:
            raise ServiceError(
                f"max_chaos_retries cannot be negative, got {max_chaos_retries}"
            )
        if not 0.0 < degrade_soft <= degrade_hard <= 1.0:
            raise ServiceError(
                "degrade watermarks must satisfy 0 < soft <= hard <= 1, "
                f"got soft={degrade_soft}, hard={degrade_hard}"
            )
        self._system = system
        self._admission = AdmissionController(
            tenant_map(tenants),
            default_tenant=default_tenant,
            max_queue=max_queue,
            capacity_bytes=capacity_bytes,
            shed_priority_floor=shed_priority_floor,
        )
        self._chaos = chaos
        self._journal = journal
        self._hooks = service_hooks_for(journal, monitor, chaos)
        # Interrupted leaders park checkpoints only where a journal keeps
        # them for the retry (and for a successor's recovery).
        self._parks = chaos is not None and journal is not None
        self._stats_store = stats_store
        # Resolved once: the system's long-lived coordinator for the
        # scheme set (validates it; pipelines take it as ``schemes``).
        self._shard_schemes = (
            system._shard_coordinator(shard_schemes) if shard_schemes else None
        )
        self._max_chaos_retries = max_chaos_retries
        if chaos is not None and clock is time.monotonic:
            # Under chaos the service lives in the schedule's logical
            # clock, which is what makes seeded runs replayable.
            clock = lambda: chaos.clock  # noqa: E731
        # Open flights: key -> [leader, *followers in admission order].
        self._flights: Dict[tuple, List[_WorkItem]] = {}
        self._attached = 0
        # Queue entries a priority raise left behind (skipped when
        # dequeued, not counted as waiting).
        self._stale = 0
        self._promotions = 0
        self._degrade_soft = degrade_soft
        self._degrade_hard = degrade_hard
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._search_join_orders = search_join_orders
        self._trace = trace
        if metrics is not None:
            self.metrics = metrics
        elif trace is not None:
            self.metrics = trace.metrics
        else:
            self.metrics = MetricsRegistry()
        self._clock = clock
        self._worker_count = workers
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._workers: List["asyncio.Task"] = []
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._seq = 0
        self._running = False
        self._draining = False
        self._killing = False
        self._counts = {
            "submitted": 0, "admitted": 0, "shed": 0,
            OK: 0, INFEASIBLE: 0, FAILED: 0, "coalesced": 0,
            "executions": 0, "recovered": 0,
        }
        # Pre-declare the latency family so the custom buckets win over
        # a lazy default-bucket creation.
        self.metrics.histogram(
            "repro_service_latency_seconds",
            "submit-to-outcome latency per tenant",
            buckets=LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether workers are up."""
        return self._running

    @property
    def system(self):
        """The served distributed system."""
        return self._system

    async def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        if self._running:
            return
        self._queue = asyncio.PriorityQueue()
        self._workers = [
            asyncio.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self._worker_count)
        ]
        self._running = True
        self._draining = False

    async def drain(self) -> None:
        """Wait until every queued request has an outcome."""
        if self._queue is not None:
            await self._queue.join()

    async def stop(self, drain: bool = True) -> None:
        """Shut down: optionally drain, then cancel the workers.

        With ``drain=True`` (the default) every already-admitted
        request completes and new submissions shed with a structured
        ``shutting-down`` rejection; with ``drain=False`` queued
        requests and their flights' followers resolve as shed too (no
        partial executions — a worker is never cancelled mid-query).
        """
        if not self._running:
            return
        self._draining = True
        if drain:
            await self.drain()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        # Resolve whatever the cancelled workers left behind: a shed
        # leader hands its flight to a follower, queued here in turn.
        if self._queue is not None:
            while not self._queue.empty():
                item = self._live(self._queue.get_nowait())
                if item is not None:
                    self._shed_unrun(item, "stopped")
                self._queue.task_done()
        self._workers = []
        self._running = False
        self._draining = False

    # ------------------------------------------------------------------
    # Crash / recovery (the chaos harness surface)
    # ------------------------------------------------------------------

    async def kill(self) -> None:
        """Crash the service abruptly: cancel the workers mid-flight,
        no drain, no goodbye.

        With a :class:`~repro.chaos.ServiceJournal` attached this is
        crash-consistent: in-hand and queued requests, and the
        followers attached to their flights, keep their futures
        *pending* — the write-ahead journal owns them, and a successor
        service constructed over the same journal resolves every one
        from its own entry via :meth:`recover` (resume or structured
        rejection, never a hang).  Without a journal they resolve as
        shed, exactly like ``stop(drain=False)``.
        """
        if not self._running:
            return
        self._killing = True
        try:
            for task in self._workers:
                task.cancel()
            await asyncio.gather(*self._workers, return_exceptions=True)
            if self._queue is not None:
                while not self._queue.empty():
                    item = self._live(self._queue.get_nowait())
                    if item is not None and self._journal is None:
                        self._shed_unrun(item, "killed")
                    self._queue.task_done()
            # What is still attached is the journal's now.
            self._flights.clear()
            self._attached = 0
            self._workers = []
            self._running = False
            self.metrics.inc("repro_service_kills_total")
        finally:
            self._killing = False

    async def recover(self) -> List[QueryOutcome]:
        """Resolve every journaled-but-incomplete request, in admission
        order: resume it under the *current* policy epoch or reject it
        structurally (``recovery-rejected``).

        Each incomplete entry replans through the live plan cache — a
        policy mutated since the crash replans differently or refuses —
        and, when the crashed execution parked checkpoint subtrees,
        resumes from them after
        :meth:`~repro.engine.checkpoint.CheckpointJournal.verify`
        re-audits every parked table against the current policy.  A
        checkpoint the policy no longer covers rejects the request
        rather than replaying it unaudited.  Entries journaled complete
        are never re-executed.

        Returns the recovery outcomes (also delivered to any pending
        submitter futures attached to the journal entries).

        Raises:
            ServiceError: without a journal, or before :meth:`start`.
        """
        if self._journal is None:
            raise ServiceError("recover() requires a service journal")
        if not self._running:
            raise ServiceError(
                "recover() requires a running service; call start() first"
            )
        outcomes: List[QueryOutcome] = []
        for entry in self._journal.incomplete():
            outcome = self._recover_entry(entry)
            self._counts["recovered"] += 1
            if outcome.status != SHED:
                self._count_completed(outcome)
            self.metrics.inc(
                "repro_service_recovered_total", disposition=outcome.status
            )
            self._resolve(entry.request_id, entry.future, outcome)
            outcomes.append(outcome)
            await asyncio.sleep(0)
        return outcomes

    def _recover_entry(self, entry) -> QueryOutcome:
        """The leader's body for one journaled request, fenced from
        chaos worker deaths, resumed from its parked checkpoint."""
        started = self._clock()
        self._hooks.adopt(entry.request_id, entry.tenant)
        tenant = self._admission.tenant(entry.tenant)
        try:
            bound = self._system._parsed(entry.query)
        except ReproError as error:
            return self._recovery_rejection(
                entry, started, f"unbindable at recovery: {error}"
            )
        faults = self._chaos
        if faults is None and entry.checkpoint is not None:
            # resume_from needs an injector clock; recovery without a
            # chaos schedule runs on a quiet one.
            faults = fault_free()
        try:
            # No ``chaos=``: recovery itself is fenced from injected
            # worker deaths, as a real recovery pass would be.
            result = self._execute(
                self._flight_key(bound, entry.recipient, False, tenant),
                entry.query, entry.recipient, tenant, False,
                faults=faults, resume_from=entry.checkpoint,
            )
        except CheckpointError as error:
            return self._recovery_rejection(
                entry, started,
                f"checkpoint no longer verifies at epoch "
                f"{self._system.policy.epoch}: {error}",
            )
        except ReproError as error:
            return QueryOutcome(
                _failure_status(error), entry.tenant, error=str(error),
                latency=self._clock() - started,
            )
        return QueryOutcome(
            OK, entry.tenant, result=result,
            latency=self._clock() - started,
        )

    def _recovery_rejection(self, entry, started: float, detail: str) -> QueryOutcome:
        rejection = Rejection(REJECT_RECOVERY, entry.tenant, detail=detail)
        return self._shed_outcome(entry.tenant, rejection, started)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    def _depth(self) -> int:
        """Admitted requests waiting: queued leaders and the followers
        attached to their flights."""
        return self._queue.qsize() - self._stale + self._attached

    def degrade_level(self) -> int:
        """The current ladder rung, from queue occupancy."""
        if self._queue is None:
            return DEGRADE_NORMAL
        occupancy = self._depth() / self._admission.max_queue
        if occupancy >= self._degrade_hard:
            return DEGRADE_SHED
        if occupancy >= self._degrade_soft:
            return DEGRADE_PLANNING
        return DEGRADE_NORMAL

    def _breaker(self, tenant: str) -> Optional[CircuitBreaker]:
        if self._breaker_threshold is None:
            return None
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                cooldown=self._breaker_cooldown,
            )
            # The listener, not self: a cycle would keep a stopped
            # service and its system alive until the collector runs.
            hooks = self._hooks
            breaker.set_transition_observer(
                lambda old, new, at: hooks.breaker(tenant, old, new)
            )
        return breaker

    # ------------------------------------------------------------------
    # Policy churn (safe mid-stream)
    # ------------------------------------------------------------------

    def add_authorization(self, authorization) -> int:
        """Grant a rule to the live system (see
        :meth:`~repro.distributed.system.DistributedSystem.add_authorization`).
        In-flight requests see the widened policy on their next epoch
        probe."""
        before = self._system.policy.epoch
        added = self._system.add_authorization(authorization, trace=self._trace)
        self.metrics.inc("repro_service_policy_churn_total", kind="grant")
        self._hooks.epoch(before, self._system.policy.epoch)
        return added

    def revoke_authorization(self, authorization) -> None:
        """Withdraw a rule from the live system, in place and at a
        grant's cost (see
        :meth:`~repro.distributed.system.DistributedSystem.revoke_authorization`).
        Every leader plans and verifies under the policy in force when
        it runs, so the revocation takes effect for work admitted
        *before* it landed, followers included."""
        before = self._system.policy.epoch
        self._system.revoke_authorization(authorization, trace=self._trace)
        self.metrics.inc("repro_service_policy_churn_total", kind="revoke")
        self._hooks.epoch(before, self._system.policy.epoch)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self,
        query,
        tenant: str = "default",
        recipient: Optional[str] = None,
    ) -> QueryOutcome:
        """Admit, queue, execute — or shed — one request.

        Always returns a :class:`QueryOutcome`; admission refusals and
        execution failures are statuses, not exceptions, so a client
        driving thousands of concurrent submissions never needs
        per-request exception plumbing.

        Raises:
            ServiceError: when the service was never started.
        """
        if not self._running:
            raise ServiceError("service is not running; call start() first")
        # Chaos policy grant/revoke storms and clock jumps land at the
        # submit boundary, before admission reads the epoch.
        for op, rule in self._hooks.submit():
            if op == "grant":
                self.add_authorization(rule)
            else:
                self.revoke_authorization(rule)
        now = self._clock()
        self._counts["submitted"] += 1
        self.metrics.inc("repro_service_requests_total", tenant=tenant)
        level = self.degrade_level()
        self.metrics.set_gauge("repro_service_degrade_level", level)
        self._hooks.degrade(level)
        if self._draining:
            return self._shed_outcome(
                tenant,
                Rejection(
                    REJECT_SHUTDOWN, tenant,
                    detail="service is draining for shutdown",
                    degrade_level=level,
                    queue_depth=self._depth(),
                ),
                now,
            )
        breaker = self._breaker(tenant)
        if breaker is not None and not breaker.allow(now):
            return self._shed_outcome(
                tenant,
                Rejection(
                    REJECT_BREAKER, tenant,
                    retry_after=self._breaker_cooldown,
                    detail=f"tenant breaker {breaker.state(now)} after "
                    "repeated failures",
                    degrade_level=level,
                    queue_depth=self._depth(),
                ),
                now,
            )
        try:
            # Bound once; the cost estimate and the flight key read this.
            bound = self._system._parsed(query)
        except ReproError as error:
            # A text that does not lex, parse or bind: the client's
            # typo, not an execution failure — counted as failed, never
            # admitted, kept out of the tenant breaker.
            outcome = QueryOutcome(
                FAILED, tenant, error=f"invalid query: {error}",
                latency=self._clock() - now, degrade_level=level,
            )
            self._count_completed(outcome)
            return outcome
        cost = 0.0
        if self._admission.capacity_bytes is not None:
            cost = estimate_query_bytes(self._system, bound)
        decision = self._admission.admit(
            tenant,
            now,
            queue_depth=self._depth(),
            cost_estimate=cost,
            degrade_level=level,
            policy_epoch=self._system.policy.epoch,
        )
        if isinstance(decision, Rejection):
            return self._shed_outcome(tenant, decision, now)
        self._counts["admitted"] += 1
        self.metrics.inc("repro_service_admitted_total", tenant=tenant)
        self.metrics.set_gauge(
            "repro_service_inflight_bytes", self._admission.inflight_bytes
        )
        future = asyncio.get_running_loop().create_future()
        # Write-ahead: a journal records the admission *before* the
        # request can queue, so a crash between here and the outcome
        # leaves a recoverable record, never a lost future.
        request_id = self._hooks.admit(
            tenant, query, recipient, self._system.policy.epoch, future
        )
        search = self._search_join_orders and level < DEGRADE_PLANNING
        key = self._flight_key(bound, recipient, search, decision.tenant)
        item = _WorkItem(query, recipient, decision, future, now, request_id, key)
        priority = decision.tenant.priority
        flight = self._flights.get(key)
        if flight is None:
            # The first request of a key opens its flight and queues as
            # the leader.
            self._flights[key] = [item]
            self._hooks.flight_lead(key)
            self._enqueue(item, priority)
        else:
            # An identical request takes no queue slot: it waits for the
            # open flight's outcome beside the leader.
            flight.append(item)
            self._attached += 1
            leader = flight[0]
            if leader.entry is not None and -leader.entry[0] < priority:
                # A queued leader inherits the priority of the most
                # urgent request waiting on it.
                self._enqueue(leader, priority)
        self.metrics.set_gauge("repro_service_queue_depth", self._depth())
        return await future

    async def serve_all(
        self,
        requests: Sequence[dict],
        window: Optional[int] = None,
    ) -> List[QueryOutcome]:
        """Submit many requests concurrently, preserving input order in
        the result list.

        Args:
            requests: dicts with ``query`` (or ``sql``), optional
                ``tenant`` and ``recipient``.
            window: max concurrent submissions (client-side pacing);
                ``None`` submits everything at once — with a bounded
                queue that *will* shed the overflow, which is the
                point.
        """
        semaphore = asyncio.Semaphore(window) if window is not None else None

        async def one(request: dict) -> QueryOutcome:
            query = request.get("query", request.get("sql"))
            if query is None:
                raise ServiceError(f"request needs 'query' or 'sql': {request!r}")
            tenant = request.get("tenant", "default")
            recipient = request.get("recipient")
            if semaphore is None:
                return await self.submit(query, tenant=tenant, recipient=recipient)
            async with semaphore:
                return await self.submit(query, tenant=tenant, recipient=recipient)

        return list(
            await asyncio.gather(*(one(request) for request in requests))
        )

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = self._live(await self._queue.get())
            try:
                if item is None:
                    continue
                # Chaos admission-queue stall: the worker yields the
                # event loop N times before touching its item.
                for _ in range(self._hooks.worker()):
                    await asyncio.sleep(0)
                await self._process(item)
            except asyncio.CancelledError:
                if self._killing and self._journal is not None:
                    # kill(): crash semantics — leave the future
                    # pending; the journal owns this request now and a
                    # successor's recover() resolves it.
                    raise
                # stop(drain=False) cancelled us while this item was in
                # hand — it can only land at a pre-execution await, so
                # resolve the submitter with a shed (never a partial
                # execution) before going down.
                self._shed_unrun(item, "stopped")
                raise
            except BaseException as error:  # noqa: BLE001 - never kill the pool
                if not item.future.done():
                    self._close(item, FAILED, error=f"worker error: {error!r}")
            finally:
                self._queue.task_done()
                self.metrics.set_gauge("repro_service_queue_depth", self._depth())

    async def _process(self, leader: _WorkItem) -> None:
        """Run one flight: its leader was dequeued.  Queue wait is each
        request's own: an overdue follower is shed alone, an overdue
        leader hands the flight over."""
        now = self._clock()
        flight = self._flights[leader.key]
        for follower in flight[1:]:
            rejection = self._overdue(follower, now)
            if rejection is not None:
                flight.remove(follower)
                self._attached -= 1
                self._finish_shed(follower, rejection)
        rejection = self._overdue(leader, now)
        if rejection is not None:
            self._finish_shed(leader, rejection)
            self._hand_over(leader)
            return
        ticket = leader.ticket
        search = self._search_join_orders and ticket.degrade_level < DEGRADE_PLANNING
        # The flight's batching window: yield once so identical requests
        # submitted meanwhile attach before the synchronous
        # plan-and-execute section.
        await asyncio.sleep(0)
        try:
            self._hooks.leader()
            # A profiled run parks nothing: resumed from parked subtrees
            # it would observe only what it re-executed (nothing at all
            # when the whole result was parked), and it is the flight's
            # one observation.
            result = self._execute(
                leader.key, leader.query, leader.recipient, ticket.tenant, search,
                faults=self._chaos, checkpoint=self._parks and not ticket.tenant.profile,
                resume_from=leader.checkpoint, chaos=self._chaos,
            )
        except asyncio.CancelledError as error:
            if getattr(error, "chaos", None) is None:
                raise
            # Injected leader crash: requeued, the flight stays open on
            # this leader.
            self._requeue_after_chaos(leader, "flight leader crashed")
        except ChaosInterrupt as error:
            # The worker "died" mid-query.  Park whatever completed,
            # audited subtrees the run checkpointed (none for a
            # multi-unit run: it restarts from scratch) and retry; an
            # empty journal keeps the parked one (later ones are
            # supersets).
            leader.checkpoint = error.checkpoint or leader.checkpoint
            self._requeue_after_chaos(leader, str(error))
        except CheckpointError as error:
            # A parked checkpoint no longer verifies (policy churn
            # revoked a subtree, or the replan changed shape or unit
            # count): drop it and retry from scratch rather than
            # replaying stale state.
            leader.checkpoint = None
            self._requeue_after_chaos(leader, f"checkpoint refused: {error}")
        except ReproError as error:
            # Infeasible also covers churn between planning and
            # execution that withdrew the route with no alternative.
            self._close(leader, _failure_status(error), error=str(error))
        else:
            self._close(leader, OK, result=result)

    def _overdue(self, item: _WorkItem, now: float) -> Optional[Rejection]:
        """The ``deadline-expired`` rejection of a request queued beyond
        its tenant's deadline budget, else ``None``."""
        ticket = item.ticket
        deadline = ticket.tenant.deadline
        if deadline is None:
            return None
        if ticket.degrade_level >= DEGRADE_PLANNING:
            # Degraded service honors half the contract deadline: better
            # to shed early than to serve answers nobody is waiting for.
            deadline = deadline / 2.0
        try:
            DeadlineBudget(deadline).charge(now - ticket.admitted_at, "queue-wait")
        except DeadlineExceededError:
            return Rejection(
                REJECT_DEADLINE,
                ticket.tenant.name,
                detail=(
                    f"queued {now - ticket.admitted_at:.3f} beyond the "
                    f"{deadline:.3f} deadline budget"
                ),
                degrade_level=ticket.degrade_level,
                queue_depth=self._depth(),
            )
        return None

    def _execute(self, key, query, recipient, tenant, search, **options):
        """The one request body, of every flight leader and every
        recovered request: build the pipeline (under the service's trace
        and scheme set, profiled for a profiled tenant), plan — a
        refusal raises here and is no execution — run under the counted
        execution events, and harvest the profile.  Followers share the
        result (and its profiles) without double-harvesting."""
        profiler = None
        if tenant.profile:
            from repro.profiling import QueryProfiler

            profiler = QueryProfiler(selectivities=self._stats_store)
        pipeline = self._system.pipeline(
            query,
            recipient=recipient,
            search_join_orders=search,
            trace=self._trace,
            schemes=self._shard_schemes,
            profiler=profiler,
            **options,
        )
        pipeline.plan()
        self._counts["executions"] += 1
        self._hooks.execution_begin(key)
        try:
            result = pipeline.run()
        finally:
            self._hooks.execution_end(key)
        if tenant.profile:
            for unit in getattr(result, "unit_results", (result,)):
                self._harvest_profile(tenant.name, unit)
        return result

    def _harvest_profile(self, tenant_name: str, result) -> None:
        """Fold one profiled execution back into the feedback loop:
        harvest observed statistics into the store (when configured)
        and export tenant-labeled profile metrics."""
        profile = getattr(result, "profile", None)
        if profile is None:
            return
        if self._stats_store is not None:
            self._stats_store.harvest(profile)
        self.metrics.inc("repro_service_profile_runs_total", tenant=tenant_name)
        self.metrics.observe(
            "repro_service_profile_shipped_bytes",
            profile.actual_bytes,
            tenant=tenant_name,
        )
        if profile.misestimates:
            self.metrics.inc(
                "repro_service_profile_misestimates_total",
                len(profile.misestimates),
                tenant=tenant_name,
            )

    def _flight_key(self, bound, recipient, search: bool, tenant) -> tuple:
        """The one flight key, of a request's bound pair.  Two requests
        share a run only when all four parts agree: the identity the
        plan cache fingerprints on (so "would share a cache entry" and
        "share a run" agree), the recipient (the closing delivery is
        itself an authorized transfer), whether the tenant's runs are
        profiled (only a profiled run carries a profile), and the policy
        epoch (a request admitted after a grant or revoke never shares a
        run, or a refusal, decided under the older policy)."""
        kind, payload = bound
        if kind == "tree":
            fingerprint = fingerprint_tree(payload)
        else:
            fingerprint = (payload.fingerprint(), search)
        return (fingerprint, recipient, tenant.profile, self._system.policy.epoch)

    def _enqueue(self, leader: _WorkItem, priority: int) -> None:
        """Queue ``leader`` at ``priority``; an entry it already had is
        left behind, stale."""
        if leader.entry is not None:
            self._stale += 1
        self._seq += 1
        # Higher priority first; FIFO within a priority class.
        leader.entry = (-priority, self._seq)
        self._queue.put_nowait((-priority, self._seq, leader))

    def _requeue(self, leader: _WorkItem) -> None:
        """Queue a flight's (new) leader at the highest priority among
        the flight's requests."""
        flight = self._flights[leader.key]
        self._enqueue(leader, max(item.ticket.tenant.priority for item in flight))

    def _live(self, entry) -> Optional[_WorkItem]:
        """The leader a dequeued entry carries, or ``None`` when a
        priority raise superseded the entry."""
        rank, seq, leader = entry
        if leader.entry != (rank, seq):
            self._stale -= 1
            return None
        leader.entry = None
        return leader

    def _requeue_after_chaos(self, leader: _WorkItem, reason: str) -> None:
        """Put a chaos-interrupted leader back in the queue (bounded
        attempts), journaling its parked checkpoint first; its flight
        stays open.  A leader out of attempts hands the flight to its
        first follower when that follower has attempts left, and waits
        on it as a follower; otherwise it gives up ``failed``."""
        leader.retries += 1
        self._hooks.requeue(leader.request_id, leader.checkpoint)
        if leader.retries <= self._max_chaos_retries:
            self.metrics.inc("repro_service_chaos_requeues_total")
            self._requeue(leader)
            return
        flight = self._flights[leader.key]
        if len(flight) > 1 and flight[1].retries <= self._max_chaos_retries:
            # Re-attached at the tail first, so the promoted leader
            # queues at this request's priority too.
            flight.append(leader)
            self._hand_over(leader)
            self._attached += 1
            return
        self._settle(
            leader,
            FAILED,
            error=f"chaos: gave up after {leader.retries} interrupted "
            f"attempts: {reason}",
        )
        self._hand_over(leader)

    # ------------------------------------------------------------------
    # Outcome plumbing
    # ------------------------------------------------------------------

    def _shed_outcome(
        self, tenant: str, rejection: Rejection, submitted_at: float
    ) -> QueryOutcome:
        self._counts["shed"] += 1
        self.metrics.inc(
            "repro_service_shed_total", tenant=tenant, reason=rejection.reason
        )
        return QueryOutcome(
            SHED,
            tenant,
            rejection=rejection,
            latency=self._clock() - submitted_at,
            degrade_level=rejection.degrade_level,
        )

    def _close(self, leader: _WorkItem, status: str, result=None, error=None) -> None:
        """End ``leader``'s flight with what its computation came to —
        ``ok``, ``infeasible`` or an execution ``failed`` — which is every
        follower's outcome too."""
        flight = self._flights.pop(leader.key)
        self._attached -= len(flight) - 1
        for item in flight:
            self._settle(item, status, result, error, shared=item is not leader)

    def _hand_over(self, leader: _WorkItem) -> None:
        """``leader`` left its flight by its own fate (a deadline shed,
        spent chaos attempts, shutdown): the first follower leads it from
        here."""
        flight = self._flights[leader.key]
        del flight[0]
        if not flight:
            del self._flights[leader.key]
            return
        self._attached -= 1
        self._promotions += 1
        self._hooks.flight_promote(leader.key)
        self._requeue(flight[0])

    def _settle(
        self, item: _WorkItem, status: str, result=None, error=None, shared=False
    ) -> None:
        """Resolve one request with a completed outcome; ``shared`` when
        it is another request's run."""
        tenant = item.ticket.tenant.name
        breaker = self._breaker(tenant)
        if status == OK:
            if shared:
                self._counts["coalesced"] += 1
                self.metrics.inc("repro_service_result_coalesced_total")
            if self._shard_schemes is not None:
                self.metrics.inc("repro_service_sharded_total", mode=result.mode)
            if breaker is not None:
                breaker.record_success(self._clock())
        elif status == FAILED and breaker is not None:
            breaker.record_failure(self._clock())
        self._admission.release(item.ticket)
        self.metrics.set_gauge(
            "repro_service_inflight_bytes", self._admission.inflight_bytes
        )
        outcome = QueryOutcome(
            status,
            tenant,
            result=result,
            error=error,
            latency=self._clock() - item.submitted_at,
            coalesced=shared and status == OK,
            degrade_level=item.ticket.degrade_level,
        )
        self._count_completed(outcome)
        self._resolve(item.request_id, item.future, outcome)

    def _count_completed(self, outcome: QueryOutcome) -> None:
        self._counts[outcome.status] += 1
        self.metrics.inc(
            "repro_service_completed_total",
            tenant=outcome.tenant,
            status=outcome.status,
        )
        self.metrics.observe(
            "repro_service_latency_seconds",
            outcome.latency,
            tenant=outcome.tenant,
        )

    def _finish_shed(self, item: _WorkItem, rejection: Rejection) -> None:
        self._admission.release(item.ticket)
        self._resolve(
            item.request_id,
            item.future,
            self._shed_outcome(rejection.tenant, rejection, item.submitted_at),
        )

    def _shed_unrun(self, leader: _WorkItem, how: str) -> None:
        """Shed a flight leader the service went down before running;
        the flight passes to its next follower."""
        self._finish_shed(
            leader,
            Rejection(
                REJECT_SHUTDOWN,
                leader.ticket.tenant.name,
                detail=f"service {how} before the request ran",
                queue_depth=self._depth(),
            ),
        )
        self._hand_over(leader)

    def _resolve(self, request_id, future, outcome: QueryOutcome) -> None:
        """Tell the listener, then the submitter.

        The ticket is released and the counters are bumped by now, so a
        raising listener must not send the request round again (a second
        release would subtract another request's bytes): it is counted
        in ``repro_service_observer_errors_total`` and the submitter
        still gets the outcome the request actually had.
        """
        try:
            self._hooks.resolve(request_id, outcome)
        except Exception:  # noqa: BLE001 - listeners never own the outcome
            self.metrics.inc("repro_service_observer_errors_total")
        if future is not None and not future.done():
            future.set_result(outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe service counters (plus admission and plan-cache
        state) for benches, the CLI summary and tests.  ``coalesced``
        and its alias ``result_coalesced`` count results served by
        another request's flight; ``executions`` counts planned runs;
        ``result_promotions`` counts flights a leader handed to a
        follower; ``queue_depth`` counts queued leaders and attached
        followers."""
        cache = self._system.plan_cache
        return {
            "submitted": self._counts["submitted"],
            "admitted": self._counts["admitted"],
            "shed": self._counts["shed"],
            "ok": self._counts[OK],
            "infeasible": self._counts[INFEASIBLE],
            "failed": self._counts[FAILED],
            "coalesced": self._counts["coalesced"],
            "executions": self._counts["executions"],
            "result_coalesced": self._counts["coalesced"],
            "recovered": self._counts["recovered"],
            "result_promotions": self._promotions,
            "queue_depth": self._depth() if self._queue is not None else 0,
            "degrade_level": self.degrade_level(),
            "admission": self._admission.snapshot(),
            "plan_cache": cache.snapshot() if cache is not None else None,
            "journal": (
                self._journal.counts() if self._journal is not None else None
            ),
            "chaos": self._chaos.summary() if self._chaos is not None else None,
            "stats_store": (
                {
                    "observations": len(self._stats_store),
                    "harvests": self._stats_store.harvests,
                }
                if self._stats_store is not None
                else None
            ),
        }
