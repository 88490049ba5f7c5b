"""What the service answers: the outcome statuses and
:class:`QueryOutcome`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.exceptions import InfeasiblePlanError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.admission import Rejection

#: Outcome statuses.
OK = "ok"
SHED = "shed"
INFEASIBLE = "infeasible"
FAILED = "failed"


def failure_status(error: ReproError) -> str:
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
            admitted (or refused); 0 (normal) for a recovered request.
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
        rejection: Optional["Rejection"] = None,
        error: Optional[str] = None,
        latency: float = 0.0,
        coalesced: bool = False,
        degrade_level: int = 0,
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
