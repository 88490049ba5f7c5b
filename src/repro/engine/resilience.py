"""Retry policies and shipment attempt accounting.

Every Figure 5 shipment of a fault-aware execution goes through a
:class:`RetryPolicy`: a bounded number of attempts with exponential
backoff, deterministic jitter (a stable hash of the link and attempt
index — no wall clock, no global RNG), and a per-transfer timeout
derived from the link's *expected* transfer cost, so a degraded link
that stretches a shipment far past its expectation counts as a failure
even though the bytes would eventually arrive.

The module is deliberately free of fault-model imports: the executor
pairs a policy with any injector exposing ``attempt``/``wait``/
``expected_cost`` (see :mod:`repro.distributed.faults`), keeping the
engine layer import-acyclic with the distributed layer.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

from repro.exceptions import ExecutionError, ResilienceConfigError

#: Status recorded when an attempt exceeded its derived timeout.
STATUS_TIMEOUT = "timeout"

#: Status recorded when a shipment was refused by an open circuit
#: breaker before any attempt was made (see
#: :mod:`repro.distributed.health`) — the fail-fast path.
STATUS_BREAKER_OPEN = "breaker-open"


class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Args:
        max_attempts: total tries per shipment (first attempt included).
        base_delay: backoff before the second attempt.
        backoff_factor: multiplier per further attempt.
        max_delay: cap on a single backoff wait.
        jitter: fraction of the delay added as deterministic jitter in
            ``[0, jitter)``; 0 disables jitter.
        timeout_factor: an attempt may take at most
            ``timeout_factor * expected_cost`` before counting as timed
            out (degraded links trip this).
        min_timeout: floor for the derived timeout, so near-zero-cost
            transfers are not spuriously timed out.
    """

    __slots__ = (
        "max_attempts",
        "base_delay",
        "backoff_factor",
        "max_delay",
        "jitter",
        "timeout_factor",
        "min_timeout",
    )

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 1.0,
        backoff_factor: float = 2.0,
        max_delay: float = 60.0,
        jitter: float = 0.1,
        timeout_factor: float = 4.0,
        min_timeout: float = 1.0,
    ) -> None:
        # ResilienceConfigError subclasses both ExecutionError and
        # ValueError: library callers keep catching the former, while a
        # misconfigured policy reads as the plain bad argument it is.
        if max_attempts < 1:
            raise ResilienceConfigError(
                f"max_attempts must be at least 1 (got {max_attempts!r})"
            )
        if base_delay < 0 or max_delay < 0:
            raise ResilienceConfigError(
                "retry delays cannot be negative "
                f"(base_delay={base_delay!r}, max_delay={max_delay!r})"
            )
        if backoff_factor < 1.0:
            raise ResilienceConfigError(
                f"backoff_factor must be >= 1 (got {backoff_factor!r})"
            )
        if jitter < 0:
            raise ResilienceConfigError(
                f"jitter cannot be negative (got {jitter!r})"
            )
        if timeout_factor <= 0 or min_timeout < 0:
            raise ResilienceConfigError(
                "timeout_factor must be positive and min_timeout non-negative "
                f"(got timeout_factor={timeout_factor!r}, "
                f"min_timeout={min_timeout!r})"
            )
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.backoff_factor = backoff_factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.timeout_factor = timeout_factor
        self.min_timeout = min_timeout

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff after failed attempt number ``attempt`` (1-based).

        The jitter term is a stable function of ``(key, attempt)`` —
        identical runs wait identical times, distinct links desynchronize.
        """
        if attempt < 1:
            raise ExecutionError("attempt numbers are 1-based")
        raw = min(
            self.base_delay * self.backoff_factor ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0:
            return raw
        fraction = (zlib.crc32(f"{key}#{attempt}".encode("utf-8")) % 10_000) / 10_000.0
        return raw * (1.0 + self.jitter * fraction)

    def timeout_for(self, expected_cost: float) -> float:
        """The allowed duration of one attempt over a link whose
        undegraded cost is ``expected_cost``."""
        return max(self.min_timeout, self.timeout_factor * float(expected_cost))

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.max_attempts}, base={self.base_delay}, "
            f"x{self.backoff_factor}, timeout={self.timeout_factor}*cost)"
        )


class AttemptRecord:
    """One shipment attempt: index, outcome, duration on the wire."""

    __slots__ = ("index", "status", "duration")

    def __init__(self, index: int, status: str, duration: float) -> None:
        self.index = index
        self.status = status
        self.duration = duration

    def __repr__(self) -> str:
        return f"AttemptRecord(#{self.index} {self.status}, {self.duration:.2f})"


class ShipmentReport:
    """The full attempt history of one shipment.

    Attributes:
        attempts: per-attempt records, in order.
        delivered: whether the last attempt succeeded.
        retry_delay: total backoff time waited between attempts.
    """

    __slots__ = ("attempts", "delivered", "retry_delay")

    def __init__(
        self,
        attempts: Tuple[AttemptRecord, ...],
        delivered: bool,
        retry_delay: float,
    ) -> None:
        self.attempts = attempts
        self.delivered = delivered
        self.retry_delay = retry_delay

    @property
    def attempt_count(self) -> int:
        """How many attempts were made."""
        return len(self.attempts)

    @property
    def outcomes(self) -> Tuple[str, ...]:
        """Per-attempt statuses, in order."""
        return tuple(record.status for record in self.attempts)

    @property
    def last_status(self) -> Optional[str]:
        """Status of the final attempt (None if no attempt was made)."""
        return self.attempts[-1].status if self.attempts else None

    def __repr__(self) -> str:
        verdict = "delivered" if self.delivered else "failed"
        return (
            f"ShipmentReport({verdict} after {self.attempt_count} attempts, "
            f"waited {self.retry_delay:.2f})"
        )


def attempt_shipment(
    faults,
    retry: RetryPolicy,
    sender: str,
    receiver: str,
    byte_size: float,
    health=None,
    deadline=None,
    trace=None,
) -> ShipmentReport:
    """Drive one shipment through the fault layer under a retry policy.

    Args:
        faults: an injector exposing ``expected_cost``, ``attempt`` and
            ``wait`` (duck-typed; see
            :class:`repro.distributed.faults.FaultInjector`).
        retry: the policy bounding attempts, delays and timeouts.
        health: optional tracker exposing ``allow`` and
            ``observe_attempt`` (duck-typed; see
            :class:`repro.distributed.health.HealthTracker`).  Every
            attempt outcome is fed to it, and a shipment whose breaker
            is open fails fast with a single ``breaker-open`` record —
            no attempts burned, no time spent.
        deadline: optional budget exposing ``charge`` and ``require``
            (duck-typed; see
            :class:`repro.engine.deadline.DeadlineBudget`).  Attempt
            durations and backoff waits are charged against it; a
            backoff that no longer fits raises *before* waiting.
        trace: optional :class:`~repro.obs.trace.TraceContext`; each
            attempt past the first emits a ``retry`` event and bumps
            ``repro_retries_total``, breaker fail-fasts bump
            ``repro_breaker_fail_fast_total``, and the attempt count is
            stamped on the open (``transfer``) span.

    Returns:
        The report — ``delivered`` is False when every attempt failed;
        the caller decides whether that raises or triggers failover.

    Raises:
        DeadlineExceededError: when the budget is overdrawn by an
            attempt's duration or cannot cover the next backoff wait.
    """
    expected = faults.expected_cost(sender, receiver, byte_size)
    allowed = retry.timeout_for(expected)
    link_key = f"{sender}->{receiver}"
    records = []
    waited = 0.0
    delivered = False
    for attempt in range(1, retry.max_attempts + 1):
        if health is not None and not health.allow(sender, receiver, faults.clock):
            # Fail fast: the breaker quarantined this route (possibly
            # mid-loop, after feeding the attempts below).  Burning the
            # remaining attempts would only delay failover.
            records.append(AttemptRecord(attempt, STATUS_BREAKER_OPEN, 0.0))
            if trace is not None:
                trace.count("repro_breaker_fail_fast_total", link=link_key)
                trace.event(
                    "breaker_fail_fast", "resilience", link=link_key,
                    attempt=attempt,
                )
            break
        outcome = faults.attempt(sender, receiver, byte_size)
        status = outcome.status
        if status == "ok" and outcome.duration > allowed:
            status = STATUS_TIMEOUT
        if health is not None:
            # Feed the tracker before the deadline can raise: the
            # breaker must learn from an attempt even when that attempt
            # killed the budget.
            health.observe_attempt(
                sender, receiver, status, outcome.duration, faults.clock
            )
        records.append(AttemptRecord(attempt, status, outcome.duration))
        if trace is not None and attempt > 1:
            trace.count("repro_retries_total", link=link_key)
        if trace is not None and status != "ok":
            trace.event(
                "attempt_failed", "resilience", link=link_key,
                attempt=attempt, status=status,
            )
        if deadline is not None:
            deadline.charge(outcome.duration, f"shipment {link_key}")
        if status == "ok":
            delivered = True
            break
        if attempt < retry.max_attempts:
            delay = retry.delay(attempt, key=link_key)
            if deadline is not None:
                # Look before waiting: never sleep into a dead budget.
                deadline.require(delay, f"backoff on {link_key}")
            waited += delay
            faults.wait(delay)
            if deadline is not None:
                deadline.charge(delay, f"backoff on {link_key}")
    if trace is not None:
        trace.annotate(attempts=len(records))
    return ShipmentReport(tuple(records), delivered, waited)
