"""Tuple-level distributed execution engine.

The paper's model is symbolic, but its claims are operational: a safe
assignment's execution must expose each server only to authorized views,
and semi-joins must move fewer bytes than regular joins.  This package
makes both claims executable:

* :mod:`repro.engine.data` — immutable set-semantics tables, stored
  columnar over a shared intern pool;
* :mod:`repro.engine.operators` — centralized plan evaluation over the
  table kernels (the correctness oracle);
* :mod:`repro.engine.transfers` — transfer records and logs;
* :mod:`repro.engine.audit` — runtime authorization enforcement on every
  transfer;
* :mod:`repro.engine.executor` — distributed execution of an assigned
  plan following the Figure 5 flows;
* :mod:`repro.engine.coster` — communication cost accounting and static
  cost estimation.
"""

from repro.engine.data import InternPool, Table, cell_width, shared_pool
from repro.engine.operators import evaluate_plan
from repro.engine.transfers import Transfer, TransferLog
from repro.engine.audit import AuditLog
from repro.engine.executor import DistributedExecutor, ExecutionResult
from repro.engine.resilience import (
    STATUS_BREAKER_OPEN,
    STATUS_TIMEOUT,
    AttemptRecord,
    RetryPolicy,
    ShipmentReport,
    attempt_shipment,
)
from repro.engine.deadline import DeadlineBudget
from repro.engine.checkpoint import (
    CheckpointEntry,
    CheckpointJournal,
    plan_signature,
)
from repro.engine.coster import (
    CostModel,
    TableStats,
    estimate_assignment_cost,
)

__all__ = [
    "Table",
    "InternPool",
    "cell_width",
    "shared_pool",
    "evaluate_plan",
    "Transfer",
    "TransferLog",
    "AuditLog",
    "DistributedExecutor",
    "ExecutionResult",
    "STATUS_BREAKER_OPEN",
    "STATUS_TIMEOUT",
    "AttemptRecord",
    "RetryPolicy",
    "ShipmentReport",
    "attempt_shipment",
    "DeadlineBudget",
    "CheckpointEntry",
    "CheckpointJournal",
    "plan_signature",
    "CostModel",
    "TableStats",
    "estimate_assignment_cost",
]
