"""Admission control: the service's one refusal ladder.

Every :class:`Rejection` the service issues is built here, by
:class:`AdmissionController`.  A request meets the ladder in this
order (cheapest first):

1. **gate** (:meth:`AdmissionController.gate`, before parse) — a
   draining service refuses; so does a tenant's open circuit breaker
   (fed by :meth:`AdmissionController.release`);
2. **degrade ladder** — queue occupancy sets the degrade level
   (:meth:`AdmissionController.degrade_level`); at
   :data:`DEGRADE_SHED` only tenants at or above the priority floor are
   admitted (shed lowest-priority tenants first);
3. **per-tenant rate** — a token bucket per tenant
   (:class:`~repro.service.tenants.TokenBucket`); an empty bucket
   rejects with the exact ``retry_after`` at which a token exists;
4. **bounded queue** — a full global queue rejects rather than buffer
   without bound (retry after roughly one drain period).  The service
   reads its depth as every admitted request still waiting: queued
   flight leaders *and* the identical requests attached to their
   flights, which take no queue slot but are no less admitted;
5. **cost-aware shedding** — the request's *estimated* planner +
   execution bytes (the payload of the base relations it touches,
   :func:`estimate_query_bytes`) must fit the capacity still
   unclaimed by in-flight queries; an oversized request is rejected
   with ``retry_after`` scaled to the backlog instead of starving
   everyone behind it;
6. **queue-wait deadline** (:meth:`AdmissionController.overdue`, at
   dequeue) — the tenant's deadline budget, halved for a request
   admitted at degrade level 1 or above.

So are the refusals of admitted work the service went down before
running, or cannot recover.

Admission never consults the *policy* — authorization is decided by the
planner and re-verified at execution; the gate only manages load.  That
separation is what lets the service shed, queue and degrade without
ever relaxing the controlled-information-sharing guarantees.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.distributed.health import CircuitBreaker
from repro.engine.deadline import DeadlineBudget
from repro.exceptions import DeadlineExceededError
from repro.obs.hooks import ServiceHooks
from repro.service.outcome import FAILED, OK
from repro.service.tenants import TenantConfig, TokenBucket

#: Degrade ladder levels (see ``docs/serving.md``): normal service,
#: degraded planning (no join-order search, tightened deadlines), and
#: priority shedding (only tenants at/above the floor are admitted).
DEGRADE_NORMAL = 0
DEGRADE_PLANNING = 1
DEGRADE_SHED = 2

#: Rejection reasons (the ``reason`` of every :class:`Rejection`).
REJECT_RATE = "rate-limited"
REJECT_QUEUE_FULL = "queue-full"
REJECT_COST = "over-capacity"
REJECT_PRIORITY = "shed-priority"
REJECT_DEADLINE = "deadline-expired"
REJECT_SHUTDOWN = "shutting-down"
REJECT_BREAKER = "tenant-breaker-open"
REJECT_RECOVERY = "recovery-rejected"

#: Clock units an open tenant breaker refuses requests before probing
#: again.
BREAKER_COOLDOWN = 1.0


class Rejection:
    """A structured, machine-actionable admission refusal.

    Attributes:
        reason: one of the ``REJECT_*`` constants.
        tenant: the refused tenant's name.
        retry_after: clock units after which retrying is sensible
            (0.0 when retrying immediately is fine, e.g. after a drain).
        detail: human-readable elaboration.
        degrade_level: the service's degrade level at refusal time.
        queue_depth: queued requests at refusal time.
    """

    __slots__ = (
        "reason", "tenant", "retry_after", "detail", "degrade_level",
        "queue_depth",
    )

    def __init__(
        self,
        reason: str,
        tenant: str,
        retry_after: float = 0.0,
        detail: str = "",
        degrade_level: int = DEGRADE_NORMAL,
        queue_depth: int = 0,
    ) -> None:
        self.reason = reason
        self.tenant = tenant
        self.retry_after = max(0.0, float(retry_after))
        self.detail = detail
        self.degrade_level = degrade_level
        self.queue_depth = queue_depth

    def to_dict(self) -> dict:
        """JSON-safe rendering (ships on shed service responses)."""
        return {
            "reason": self.reason,
            "tenant": self.tenant,
            "retry_after": self.retry_after,
            "detail": self.detail,
            "degrade_level": self.degrade_level,
            "queue_depth": self.queue_depth,
        }

    def __repr__(self) -> str:
        return (
            f"Rejection({self.reason!r}, tenant={self.tenant!r}, "
            f"retry_after={self.retry_after:.3f})"
        )


class AdmissionTicket:
    """Proof of admission for one request.

    Attributes:
        tenant: the admitting tenant's config.
        admitted_at: clock timestamp of admission.
        admitted_epoch: the policy epoch in force at admission —
            execution re-probes against the *current* epoch, so a
            mid-queue revocation can never ride in on a stale ticket.
        cost_estimate: the estimated bytes this request holds against
            the service's capacity until it completes.
        degrade_level: degrade level at admission (level 1+ tickets
            execute without join-order search).
    """

    __slots__ = (
        "tenant", "admitted_at", "admitted_epoch", "cost_estimate",
        "degrade_level",
    )

    def __init__(
        self,
        tenant: TenantConfig,
        admitted_at: float,
        admitted_epoch: int,
        cost_estimate: float,
        degrade_level: int,
    ) -> None:
        self.tenant = tenant
        self.admitted_at = admitted_at
        self.admitted_epoch = admitted_epoch
        self.cost_estimate = cost_estimate
        self.degrade_level = degrade_level


def estimate_query_bytes(system, query) -> float:
    """Static pre-planning byte estimate of one query.

    Upper-bounds the data volume the query can put in motion as the sum
    of each referenced base relation's shipment payload
    (:meth:`~repro.engine.data.Table.byte_size`, which a table scans for
    once per loaded instance: a 10k-request workload prices admission
    with one scan per relation, and a reload starts over).  Deliberately
    plan-independent — admission runs *before* planning, so the
    estimate must not require one — and monotone: a query touching more
    data never estimates cheaper.

    Relations with no loaded instance estimate 0 bytes (there is
    nothing to ship).
    """
    tables = system.tables()
    return sum(
        (
            float(tables[name].byte_size())
            for name in system._parsed(query).relations
            if name in tables
        ),
        0.0,
    )


class AdmissionController:
    """The service's one refusal ladder (see the module docstring for
    the check order).

    Args:
        tenants: ``name -> TenantConfig``; unknown tenants fall back to
            ``default_tenant``.
        default_tenant: config applied to tenants not explicitly
            configured.
        max_queue: bound on waiting (admitted, not yet executing)
            requests, flight followers included.
        capacity_bytes: total estimated bytes the service will hold in
            flight at once; ``None`` disables cost-aware shedding,
            ``0`` deterministically sheds *every* costed request (the
            acceptance-test overload mode).
        shed_priority_floor: at :data:`DEGRADE_SHED`, tenants below
            this priority are refused.
        degrade_soft / degrade_hard: queue-occupancy fractions at which
            the degrade ladder moves to degraded planning / priority
            shedding.
        breaker_threshold: consecutive *failed* (not infeasible)
            executions that open a tenant's circuit breaker for
            :data:`BREAKER_COOLDOWN` clock units; ``None`` disables
            tenant breakers.
        listener: the service's
            :class:`~repro.obs.hooks.ServiceHooks`; it hears every
            tenant breaker transition.
    """

    def __init__(
        self,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_queue: int = 256,
        capacity_bytes: Optional[float] = None,
        shed_priority_floor: int = 1,
        degrade_soft: float = 0.5,
        degrade_hard: float = 0.85,
        breaker_threshold: Optional[int] = 5,
        listener: ServiceHooks = ServiceHooks(),
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0 or None, got {capacity_bytes}"
            )
        if not 0.0 < degrade_soft <= degrade_hard <= 1.0:
            raise ValueError(
                "degrade watermarks must satisfy 0 < soft <= hard <= 1, "
                f"got soft={degrade_soft}, hard={degrade_hard}"
            )
        self._tenants = dict(tenants or {})
        self._default = default_tenant or TenantConfig("default")
        self.max_queue = int(max_queue)
        self.capacity_bytes = (
            float(capacity_bytes) if capacity_bytes is not None else None
        )
        self.shed_priority_floor = int(shed_priority_floor)
        self._degrade_soft = degrade_soft
        self._degrade_hard = degrade_hard
        self._breaker_threshold = breaker_threshold
        self._listener = listener
        self._buckets: Dict[str, TokenBucket] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._inflight_bytes = 0.0
        self._inflight = 0

    # ------------------------------------------------------------------
    # Tenant resolution
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> TenantConfig:
        """The config governing ``name`` (the default for strangers)."""
        config = self._tenants.get(name)
        if config is not None:
            return config
        if name == self._default.name:
            return self._default
        # Strangers share the default tenant's *shape* but keep their
        # own name (and, below, their own bucket): one noisy stranger
        # must not exhaust every stranger's tokens.
        return TenantConfig(
            name,
            priority=self._default.priority,
            rate=self._default.rate,
            burst=self._default.burst,
            deadline=self._default.deadline,
        )

    def _bucket(self, config: TenantConfig) -> Optional[TokenBucket]:
        if config.rate is None:
            return None
        bucket = self._buckets.get(config.name)
        if bucket is None:
            bucket = self._buckets[config.name] = TokenBucket(
                config.rate, config.burst
            )
        return bucket

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def inflight_bytes(self) -> float:
        """Estimated bytes currently claimed by admitted requests."""
        return self._inflight_bytes

    @property
    def inflight(self) -> int:
        """Admitted requests not yet released."""
        return self._inflight

    def release(
        self, ticket: AdmissionTicket, status: Optional[str] = None, now: float = 0.0
    ) -> None:
        """Return a completed (or shed-after-admission) request's
        capacity claim.  A completed ``status`` also feeds the tenant's
        breaker at ``now``: ``ok`` counts as a success, ``failed`` as a
        failure (``infeasible`` is a policy answer, not a fault)."""
        breaker = self._breaker(ticket.tenant.name)
        if breaker is not None and status == OK:
            breaker.record_success(now)
        elif breaker is not None and status == FAILED:
            breaker.record_failure(now)
        self._inflight_bytes = max(0.0, self._inflight_bytes - ticket.cost_estimate)
        self._inflight = max(0, self._inflight - 1)

    # ------------------------------------------------------------------
    # Degrade ladder and tenant breakers
    # ------------------------------------------------------------------

    def degrade_level(self, queue_depth: int) -> int:
        """The ladder rung for ``queue_depth`` waiting requests."""
        occupancy = queue_depth / self.max_queue
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
                cooldown=BREAKER_COOLDOWN,
            )
            # The listener, not self: a cycle would keep a stopped
            # service and its system alive until the collector runs.
            hooks = self._listener
            breaker.set_transition_observer(
                lambda old, new, at: hooks.breaker(tenant, old, new)
            )
        return breaker

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------

    def admit(
        self,
        tenant_name: str,
        now: float,
        queue_depth: int,
        cost_estimate: float = 0.0,
        degrade_level: int = DEGRADE_NORMAL,
        policy_epoch: int = 0,
    ):
        """One admission decision.

        Returns:
            An :class:`AdmissionTicket` on admission (the request's
            capacity claim is recorded), or a :class:`Rejection`.
        """
        config = self.tenant(tenant_name)
        if (
            degrade_level >= DEGRADE_SHED
            and config.priority < self.shed_priority_floor
        ):
            return Rejection(
                REJECT_PRIORITY,
                config.name,
                retry_after=self._drain_estimate(queue_depth),
                detail=(
                    f"service degraded to level {degrade_level}; only tenants "
                    f"with priority >= {self.shed_priority_floor} are admitted "
                    f"(yours: {config.priority})"
                ),
                degrade_level=degrade_level,
                queue_depth=queue_depth,
            )
        bucket = self._bucket(config)
        if bucket is not None and not bucket.try_take(now):
            return Rejection(
                REJECT_RATE,
                config.name,
                retry_after=bucket.retry_after(now),
                detail=f"token bucket empty (rate {config.rate}/s, "
                f"burst {config.burst})",
                degrade_level=degrade_level,
                queue_depth=queue_depth,
            )
        if queue_depth >= self.max_queue:
            return Rejection(
                REJECT_QUEUE_FULL,
                config.name,
                retry_after=self._drain_estimate(queue_depth),
                detail=f"global queue at bound ({queue_depth}/{self.max_queue})",
                degrade_level=degrade_level,
                queue_depth=queue_depth,
            )
        if self.capacity_bytes is not None:
            remaining = self.capacity_bytes - self._inflight_bytes
            if remaining <= 0.0 or cost_estimate > remaining:
                return Rejection(
                    REJECT_COST,
                    config.name,
                    retry_after=self._drain_estimate(max(1, self._inflight)),
                    detail=(
                        f"estimated {cost_estimate:.0f} B exceeds remaining "
                        f"capacity {max(0.0, remaining):.0f} B "
                        f"(total {self.capacity_bytes:.0f} B, "
                        f"{self._inflight_bytes:.0f} B in flight)"
                    ),
                    degrade_level=degrade_level,
                    queue_depth=queue_depth,
                )
        self._inflight_bytes += max(0.0, cost_estimate)
        self._inflight += 1
        return AdmissionTicket(
            config, now, policy_epoch, max(0.0, cost_estimate), degrade_level
        )

    def gate(
        self, tenant_name: str, now: float, degrade_level: int, queue_depth: int,
        draining: bool,
    ) -> Optional[Rejection]:
        """The refusals checked before a request's text is parsed: a
        draining service, then the tenant's open breaker."""
        if draining:
            return Rejection(
                REJECT_SHUTDOWN, tenant_name,
                detail="service is draining for shutdown",
                degrade_level=degrade_level,
                queue_depth=queue_depth,
            )
        breaker = self._breaker(tenant_name)
        if breaker is not None and not breaker.allow(now):
            return Rejection(
                REJECT_BREAKER, tenant_name,
                retry_after=BREAKER_COOLDOWN,
                detail=f"tenant breaker {breaker.state(now)} after "
                "repeated failures",
                degrade_level=degrade_level,
                queue_depth=queue_depth,
            )
        return None

    def overdue(
        self, ticket: AdmissionTicket, now: float, queue_depth: Callable[[], int]
    ) -> Optional[Rejection]:
        """The ``deadline-expired`` rejection of a request queued beyond
        its tenant's deadline budget, else ``None`` (``queue_depth`` is
        read only for a rejection: this runs for every dequeued
        request)."""
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
                queue_depth=queue_depth(),
            )
        return None

    @staticmethod
    def unrun(ticket: AdmissionTicket, how: str, queue_depth: int) -> Rejection:
        """The refusal of an admitted request the service went down
        (``how``: stopped, killed) before running."""
        return Rejection(
            REJECT_SHUTDOWN,
            ticket.tenant.name,
            detail=f"service {how} before the request ran",
            queue_depth=queue_depth,
        )

    @staticmethod
    def unrecoverable(tenant_name: str, detail: str) -> Rejection:
        """The refusal of a journaled request recovery cannot resume
        under the current policy."""
        return Rejection(REJECT_RECOVERY, tenant_name, detail=detail)

    @staticmethod
    def _drain_estimate(backlog: int) -> float:
        """A crude-but-honest retry hint: ~10ms of service per queued
        request, floored at one tick.  Callers treat it as advisory."""
        return max(0.01, 0.01 * backlog)

    def snapshot(self) -> dict:
        """JSON-safe controller state (for service stats and tests)."""
        return {
            "max_queue": self.max_queue,
            "capacity_bytes": self.capacity_bytes,
            "inflight": self._inflight,
            "inflight_bytes": self._inflight_bytes,
            "shed_priority_floor": self.shed_priority_floor,
            "tenants": sorted(self._tenants),
        }
