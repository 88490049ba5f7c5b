"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the package
layout: schema/catalog errors, SQL front-end errors, planning errors and
runtime (execution/audit) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relation schema or catalog is malformed or inconsistent.

    Raised, for instance, when two relations share a name, when an
    attribute name collides across relations without qualification, or
    when a primary key references an unknown attribute.
    """


class UnknownRelationError(SchemaError):
    """A referenced relation does not exist in the catalog."""

    def __init__(self, relation: str) -> None:
        super().__init__(f"unknown relation: {relation!r}")
        self.relation = relation


class UnknownAttributeError(SchemaError):
    """A referenced attribute does not exist in the catalog / relation."""

    def __init__(self, attribute: str, context: str = "") -> None:
        suffix = f" in {context}" if context else ""
        super().__init__(f"unknown attribute: {attribute!r}{suffix}")
        self.attribute = attribute
        self.context = context


class JoinPathError(ReproError):
    """A join path or join condition is malformed.

    Examples: pairing attribute lists of different lengths in a
    ``<J_l, J_r>`` conjunction, or a join condition equating an attribute
    with itself.
    """


class PredicateError(ReproError):
    """A selection predicate is malformed or cannot be evaluated."""


class ExpressionError(ReproError):
    """A relational-algebra expression is structurally invalid."""


class PlanError(ReproError):
    """A query tree plan is structurally invalid (e.g. wrong arity)."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BindingError(SqlError):
    """A parsed query references names that do not resolve in the catalog."""


class AuthorizationError(ReproError):
    """An authorization rule is malformed.

    Definition 3.1 requires the join path to include (at least) every
    relation contributing attributes to the rule; violations raise this
    error at construction time.
    """


class PolicyError(ReproError):
    """A policy operation failed (unknown server, duplicate rule, ...)."""


class InfeasiblePlanError(PlanError):
    """No safe executor assignment exists for the query plan.

    Carries the node at which candidate search failed, mirroring the
    ``exit(n)`` of the paper's Figure 6 pseudocode.
    """

    def __init__(self, message: str, node_id: int = -1) -> None:
        super().__init__(message)
        self.node_id = node_id


class UnsafeAssignmentError(PlanError):
    """An executor assignment was found to violate the policy.

    Raised by the independent safety verifier (Definition 4.2) and by the
    runtime audit when a transfer without a covering authorization is
    attempted.
    """


class ExecutionError(ReproError):
    """Tuple-level execution failed (missing data, bad operator input)."""


class AuditViolationError(ExecutionError):
    """A runtime data transfer was not covered by any authorization."""

    def __init__(self, message: str, sender: str = "", receiver: str = "") -> None:
        super().__init__(message)
        self.sender = sender
        self.receiver = receiver


class ResilienceConfigError(ExecutionError, ValueError):
    """A resilience policy (retry, breaker, deadline) is misconfigured.

    Subclasses :class:`ValueError` as well: a bad ``max_attempts`` or a
    negative delay is an ordinary bad argument, and callers outside the
    library catch it as such.
    """


class FaultConfigError(ExecutionError, ValueError):
    """A fault-injection schedule is misconfigured.

    Negative durations, degradation factors below 1, flap periods that
    never flap, or crash windows that overlap for the same server are
    ordinary bad arguments: like :class:`ResilienceConfigError` this
    subclasses :class:`ValueError` so callers outside the library catch
    it as such, while existing ``ExecutionError`` handlers keep working.
    """


class FaultError(ExecutionError):
    """Base class for injected-fault runtime failures."""


class TransferFailedError(FaultError):
    """A shipment failed on every allowed attempt.

    Carries the failing link and the per-attempt outcome report so the
    failover layer can decide which servers to route around.
    """

    def __init__(
        self,
        message: str,
        sender: str = "",
        receiver: str = "",
        report=None,
    ) -> None:
        super().__init__(message)
        self.sender = sender
        self.receiver = receiver
        self.report = report


class DeadlineExceededError(FaultError):
    """The query's simulated-time budget ran out.

    Raised by :class:`~repro.engine.deadline.DeadlineBudget` the moment
    a charge (shipment duration, backoff wait) pushes spending past the
    budget, or *before* a backoff wait that could not fit — execution
    fails fast instead of burning a dead budget in retry loops.  The
    failover layer attaches the execution's checkpoint journal so the
    caller can resume from the last audited subtree.
    """

    def __init__(
        self,
        message: str,
        spent: float = 0.0,
        budget: float = 0.0,
        reason: str = "",
    ) -> None:
        super().__init__(message)
        self.spent = spent
        self.budget = budget
        self.reason = reason
        #: Filled by the failover layer: the journal of completed,
        #: audited subtrees at the moment the budget died.
        self.checkpoint = None


class CheckpointError(ExecutionError):
    """A checkpoint journal cannot be resumed.

    Either the journal belongs to a different plan shape, or — the
    security-critical case — an authorization covering a checkpointed
    subtree was revoked between checkpoint and restart.  Resume
    re-audits every entry against the *current* policy and refuses
    rather than replay a view the policy no longer grants.
    """


class PartitionSchemeError(ReproError, ValueError):
    """A horizontal partition scheme is misconfigured.

    Empty server groups, overlapping range boundaries, an unknown
    relation, unknown attributes or a degenerate shard count are
    ordinary bad arguments: like :class:`FaultConfigError` this
    subclasses :class:`ValueError` so callers outside the library catch
    it as such.
    """


class ChaosError(ReproError):
    """A chaos schedule is misconfigured (bad probability, bad seed...)."""


class ChaosInterrupt(ReproError):
    """A seeded chaos event killed one request's execution mid-flight.

    Raised by :class:`~repro.chaos.schedule.ChaosSchedule` at the
    pipeline execution hook to model a worker dying mid-query.  The
    service layer treats it as a crash of *that request only*: the
    request either resumes from its journaled checkpoint subtrees
    (recovery on) or fails with a structured outcome — the worker pool
    itself survives.

    Attributes:
        point: the chaos hook that fired (``POINT_*`` constant).
        stage: ``pre`` (before any subtree executed) or ``post`` (the
            execution completed but its completion was never recorded —
            the classic crash-consistency window).
        checkpoint: filled by the pipeline when journaling was active —
            the completed, audited subtrees at the moment of death.
    """

    def __init__(self, message: str, point: str = "", stage: str = "") -> None:
        super().__init__(message)
        self.point = point
        self.stage = stage
        self.checkpoint = None


class DegradedExecutionError(FaultError):
    """No *safe* alternative assignment survives the current faults.

    Raised by the failover layer when retries are exhausted and
    re-planning restricted to the surviving servers finds no assignment
    that satisfies the policy (Definition 4.3).  The authorization model
    is never weakened to keep a query alive: an unanswerable query
    degrades, it does not leak.
    """

    def __init__(self, message: str, excluded_servers=(), failovers: int = 0) -> None:
        super().__init__(message)
        self.excluded_servers = tuple(sorted(excluded_servers))
        self.failovers = failovers
        #: Filled by the failover layer when journaling was active: the
        #: completed, audited subtrees at the moment the query degraded.
        self.checkpoint = None
