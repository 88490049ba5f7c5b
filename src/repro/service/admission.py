"""Admission control: rate limits, bounded queueing, cost-aware shedding.

The admission controller is the service's front gate.  Every request
passes through :meth:`AdmissionController.admit` *before* it may queue;
the gate answers with an :class:`AdmissionTicket` or a structured
:class:`Rejection` — never an exception surprise, never a hang.  The
checks, in order (cheapest first):

1. **degrade ladder** — under overload the service raises its degrade
   level; at :data:`DEGRADE_SHED` only tenants at or above the
   priority floor are admitted (shed lowest-priority tenants first);
2. **per-tenant rate** — a token bucket per tenant
   (:class:`~repro.service.tenants.TokenBucket`); an empty bucket
   rejects with the exact ``retry_after`` at which a token exists;
3. **bounded queue** — a full global queue rejects rather than buffer
   without bound (retry after roughly one drain period).  The service
   reads its depth as every admitted request still waiting: queued
   flight leaders *and* the identical requests attached to their
   flights, which take no queue slot but are no less admitted;
4. **cost-aware shedding** — the request's *estimated* planner +
   execution bytes (the payload of the base relations it touches,
   :func:`estimate_query_bytes`) must fit the capacity still
   unclaimed by in-flight queries; an oversized request is rejected
   with ``retry_after`` scaled to the backlog instead of starving
   everyone behind it.

Admission never consults the *policy* — authorization is decided by the
planner and re-verified at execution; the gate only manages load.  That
separation is what lets the service shed, queue and degrade without
ever relaxing the controlled-information-sharing guarantees.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exceptions import ReproError
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


class AdmissionError(ReproError):
    """Raised by callers that prefer exceptions over shed outcomes;
    carries the :class:`Rejection`."""

    def __init__(self, rejection: Rejection) -> None:
        super().__init__(
            f"admission refused ({rejection.reason}) for tenant "
            f"{rejection.tenant!r}: retry after {rejection.retry_after:.3f}"
        )
        self.rejection = rejection


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


def _query_relations(system, query) -> list:
    """The base relations a query reads, from its memoized bound form."""
    from repro.algebra.tree import LeafNode

    kind, payload = system._parsed(query)
    if kind == "spec":
        return list(payload.relations)
    return [node.relation.name for node in payload if isinstance(node, LeafNode)]


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
            for name in _query_relations(system, query)
            if name in tables
        ),
        0.0,
    )


class AdmissionController:
    """The service's front gate (see the module docstring for the
    check order).

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
    """

    def __init__(
        self,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_queue: int = 256,
        capacity_bytes: Optional[float] = None,
        shed_priority_floor: int = 1,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0 or None, got {capacity_bytes}"
            )
        self._tenants = dict(tenants or {})
        self._default = default_tenant or TenantConfig("default")
        self.max_queue = int(max_queue)
        self.capacity_bytes = (
            float(capacity_bytes) if capacity_bytes is not None else None
        )
        self.shed_priority_floor = int(shed_priority_floor)
        self._buckets: Dict[str, TokenBucket] = {}
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

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a completed (or shed-after-admission) request's
        capacity claim."""
        self._inflight_bytes = max(0.0, self._inflight_bytes - ticket.cost_estimate)
        self._inflight = max(0, self._inflight - 1)

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
