"""Multi-tenant asyncio query service over a distributed system.

The serving layer the ROADMAP's production-scale north star calls for:
:class:`~repro.service.service.QueryService` fronts one
:class:`~repro.distributed.system.DistributedSystem` with admission
control (per-tenant token buckets, a bounded queue, cost-aware load
shedding), one shared audited run per flight of identical admitted
requests, a graceful-degradation
ladder, and policy churn that stays safe for in-flight work.  See
``docs/serving.md`` for the design and guarantees.
"""

from repro.service.admission import (
    DEGRADE_NORMAL,
    DEGRADE_PLANNING,
    DEGRADE_SHED,
    REJECT_BREAKER,
    REJECT_COST,
    REJECT_DEADLINE,
    REJECT_PRIORITY,
    REJECT_QUEUE_FULL,
    REJECT_RATE,
    REJECT_RECOVERY,
    REJECT_SHUTDOWN,
    AdmissionController,
    AdmissionError,
    AdmissionTicket,
    Rejection,
    estimate_query_bytes,
)
from repro.service.httpmetrics import MetricsServer
from repro.service.service import (
    FAILED,
    INFEASIBLE,
    OK,
    SHED,
    QueryOutcome,
    QueryService,
    ServiceError,
)
from repro.service.tenants import (
    TenantConfig,
    TenantConfigError,
    TokenBucket,
    tenant_map,
)

__all__ = [
    "DEGRADE_NORMAL",
    "DEGRADE_PLANNING",
    "DEGRADE_SHED",
    "REJECT_BREAKER",
    "REJECT_COST",
    "REJECT_DEADLINE",
    "REJECT_PRIORITY",
    "REJECT_QUEUE_FULL",
    "REJECT_RATE",
    "REJECT_RECOVERY",
    "REJECT_SHUTDOWN",
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "FAILED",
    "INFEASIBLE",
    "MetricsServer",
    "OK",
    "QueryOutcome",
    "QueryService",
    "Rejection",
    "SHED",
    "ServiceError",
    "TenantConfig",
    "TenantConfigError",
    "TokenBucket",
    "estimate_query_bytes",
    "tenant_map",
]
