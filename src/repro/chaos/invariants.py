"""The online invariant monitor.

Following the chase-based correctness framing (safety as a *checkable
condition*, not a hope), :class:`InvariantMonitor` turns the service's
safety story into live assertions evaluated while requests flow:

``termination``
    Every admitted request reaches a terminal outcome — a result or a
    structured :class:`~repro.service.admission.Rejection` — never a
    silent hang.  Checked continuously (an outcome without an admission
    is also a violation) and settled by :meth:`assert_quiescent` once
    the system drains.
``authorized-transfer``
    No transfer ships without a covering authorization at the
    then-current policy epoch.  Beyond trusting the executor's audit
    log, every delivered result is *independently re-probed*: each
    recorded transfer is re-authorized against the exact policy object
    the run was audited under — for a closed policy through the
    unmemoized reference scan
    (:func:`~repro.core.access.first_covering_authorization`), never
    through the memo the audit itself read its rules from.
``single-execution``
    A flight key executes at most once at a time: while an execution
    of a key (which pins the admission-time policy epoch) runs, no
    second execution of that key may start.  Keys may legitimately
    re-execute after their flight closes — the plan cache, not the
    flight, is the long-term memo — and a requeued or promoted leader
    runs again later, so the invariant is over *concurrent* duplicates.
``breaker-transition`` / ``degrade-level``
    Health state machines only move along legal edges: breakers
    ``closed → open → half-open → {closed, open}``, degrade levels
    within the ladder ``{0, 1, 2}``.
``epoch-monotonic``
    Policy epochs only move forward; a backwards epoch would let a
    revoked plan revalidate.

Violations never raise into the serving path: they are recorded with
the chaos seed and logical clock for one-command replay, counted into
``repro_invariant_violations_total`` and emitted as trace events when
an ``obs`` context is attached.  The monitor is a service listener
(:class:`~repro.obs.hooks.ServiceHooks`): the service calls its events
unconditionally, and a service without a monitor (or journal, or chaos
schedule) calls the null listener's no-ops instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.access import first_covering_authorization
from repro.core.authorization import Policy
from repro.distributed.health import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.obs.hooks import ServiceHooks
from repro.service.admission import DEGRADE_NORMAL, DEGRADE_SHED
from repro.service.outcome import OK

#: Invariant identifiers (the ``invariant`` of every :class:`Violation`).
INV_TERMINATION = "termination"
INV_AUTHORIZED_TRANSFER = "authorized-transfer"
INV_SINGLE_EXECUTION = "single-execution"
INV_BREAKER_TRANSITION = "breaker-transition"
INV_DEGRADE_LEVEL = "degrade-level"
INV_EPOCH_MONOTONIC = "epoch-monotonic"

#: Legal circuit-breaker edges (see ``distributed/health.py``).
_LEGAL_BREAKER_EDGES = frozenset(
    [
        (STATE_CLOSED, STATE_OPEN),
        (STATE_OPEN, STATE_HALF_OPEN),
        (STATE_HALF_OPEN, STATE_CLOSED),
        (STATE_HALF_OPEN, STATE_OPEN),
    ]
)


class Violation:
    """One observed invariant violation.

    Attributes:
        invariant: the ``INV_*`` identifier.
        detail: what was observed.
        seed: the chaos seed in force (replay handle; ``None`` when no
            schedule is bound).
        clock: the chaos schedule's logical clock at observation.
        context: structured observation data (JSON-safe).
    """

    __slots__ = ("invariant", "detail", "seed", "clock", "context")

    def __init__(
        self,
        invariant: str,
        detail: str,
        seed: Optional[int] = None,
        clock: float = 0.0,
        context: Optional[dict] = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.seed = seed
        self.clock = clock
        self.context = dict(context or {})

    def to_dict(self) -> dict:
        """JSON-safe rendering (rides in violation artifacts)."""
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "seed": self.seed,
            "clock": self.clock,
            "context": self.context,
        }

    def __repr__(self) -> str:
        return f"Violation({self.invariant}: {self.detail})"


def _reprobe(policy, transfer) -> bool:
    """Whether ``policy`` covers one recorded transfer, asked apart from
    the audit: a closed policy's rules are scanned directly, so a wrong
    answer in its memo cannot vouch for itself."""
    if transfer.sender == transfer.receiver:
        return True
    if isinstance(policy, Policy):
        rule = first_covering_authorization(policy, transfer.profile, transfer.receiver)
        return rule is not None
    return policy.can_view(transfer.profile, transfer.receiver)


class InvariantMonitor(ServiceHooks):
    """Live safety assertions over one :class:`QueryService`.

    Attach via ``QueryService(monitor=...)``; the service calls the
    listener events at the lifecycle points documented on each method.
    All hooks are cheap
    dict operations — the monitor never blocks the serving path and
    never raises into it.

    Args:
        metrics: optional
            :class:`~repro.obs.metrics.MetricsRegistry`; violations
            count into ``repro_invariant_violations_total`` (labelled
            by invariant) and checks into
            ``repro_invariant_checks_total``.
        trace: optional :class:`~repro.obs.trace.TraceContext`;
            violations emit ``invariant_violation`` events.
    """

    def __init__(self, metrics=None, trace=None) -> None:
        self._metrics = metrics
        self._trace = trace
        self._chaos = None
        self.violations: List[Violation] = []
        self._admitted: Dict[int, str] = {}
        self._settled: Dict[int, str] = {}
        self._checks = 0
        self._open_executions: Dict[object, int] = {}
        self._executions: Dict[object, int] = {}
        self._last_epoch: Optional[int] = None
        self._level = DEGRADE_NORMAL
        self._transfers_probed = 0
        # Probe-verdict memo: authorize() is a pure function of
        # (policy@epoch, sender, receiver, profile), and repeated
        # executions of the same cached plan re-ship value-equal
        # profiles, so identical probes recur constantly.  Values keep
        # the policy alive so the id()-based key component can never be
        # reused by a new object.
        self._probe_memo: Dict[tuple, tuple] = {}
        # Audit-identity memo: a flight's followers deliver the leader's
        # result object verbatim, so the same audit log would be
        # re-walked once per sharer.  The verdict is deterministic per
        # physical audit; values keep the audit alive so ids stay valid.
        self._audit_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind_chaos(self, schedule) -> None:
        """Stamp future violations with ``schedule``'s seed and clock."""
        self._chaos = schedule

    @property
    def ok(self) -> bool:
        """Whether no violation has been observed."""
        return not self.violations

    @property
    def checks(self) -> int:
        """Hook invocations evaluated so far."""
        return self._checks

    def _violate(self, invariant: str, detail: str, **context) -> None:
        violation = Violation(
            invariant,
            detail,
            seed=self._chaos.seed if self._chaos is not None else None,
            clock=self._chaos.clock if self._chaos is not None else 0.0,
            context=context,
        )
        self.violations.append(violation)
        if self._metrics is not None:
            self._metrics.inc(
                "repro_invariant_violations_total", invariant=invariant
            )
        if self._trace is not None:
            self._trace.event(
                "invariant_violation", "chaos", invariant=invariant,
                detail=detail,
            )

    def _checked(self) -> None:
        self._checks += 1
        if self._metrics is not None:
            self._metrics.inc("repro_invariant_checks_total")

    # ------------------------------------------------------------------
    # Termination: every admitted request reaches a terminal outcome
    # ------------------------------------------------------------------

    def admit(self, tenant, query, recipient, epoch, future, request_id=None) -> int:
        """The service admitted a request (pre-queue).  Without a
        journal the monitor issues the id: it outlives kill/restart
        cycles, so its ids never collide across service instances."""
        request_id = super().admit(
            tenant, query, recipient, epoch, future, request_id=request_id
        )
        self.on_admitted(request_id, tenant)
        return request_id

    def on_admitted(self, request_id: int, tenant: str) -> None:
        """Register the admission of ``request_id``."""
        self._checked()
        if request_id in self._admitted or request_id in self._settled:
            self._violate(
                INV_TERMINATION,
                f"request {request_id} admitted twice",
                request_id=request_id,
                tenant=tenant,
            )
            return
        self._admitted[request_id] = tenant

    def adopt(self, request_id: int, tenant: str) -> None:
        """Recovery adopts a predecessor's admission obligation.

        Idempotent: when the same monitor was threaded through the
        kill/restart (the chaos harness does), the obligation is already
        tracked and this is a no-op; with a fresh monitor it registers
        the journaled admission so the recovery outcome settles cleanly
        instead of reading as "resolved without admission"."""
        self._checked()
        if request_id in self._admitted or request_id in self._settled:
            return
        self._admitted[request_id] = tenant

    def resolve(self, request_id: int, outcome) -> None:
        """The service resolved ``request_id`` with ``outcome``."""
        self.on_outcome(request_id, outcome.status)
        if outcome.status == OK:
            self.on_result(request_id, outcome.result)

    def on_outcome(self, request_id: int, status: str) -> None:
        """Settle ``request_id`` with terminal ``status``."""
        self._checked()
        if request_id in self._settled:
            self._violate(
                INV_TERMINATION,
                f"request {request_id} resolved twice "
                f"({self._settled[request_id]} then {status})",
                request_id=request_id,
                status=status,
            )
            return
        if request_id not in self._admitted:
            self._violate(
                INV_TERMINATION,
                f"request {request_id} resolved without admission",
                request_id=request_id,
                status=status,
            )
            return
        del self._admitted[request_id]
        self._settled[request_id] = status

    def pending(self) -> List[int]:
        """Admitted requests without a terminal outcome (live view)."""
        return sorted(self._admitted)

    def assert_quiescent(self) -> None:
        """Settle the termination invariant: call once the service has
        drained (or been recovered) — any admitted request still without
        an outcome is a violation, as is any flight or execution left
        open."""
        self._checked()
        for request_id, tenant in sorted(self._admitted.items()):
            self._violate(
                INV_TERMINATION,
                f"request {request_id} (tenant {tenant}) admitted but never "
                "resolved",
                request_id=request_id,
                tenant=tenant,
            )
        self._admitted.clear()
        for key, depth in sorted(self._open_executions.items(), key=str):
            if depth > 0:
                self._violate(
                    INV_SINGLE_EXECUTION,
                    f"execution for key {key!r} still open at quiescence",
                    depth=depth,
                )
        self._open_executions.clear()

    # ------------------------------------------------------------------
    # Authorized transfers: re-probe every delivered result
    # ------------------------------------------------------------------

    def on_result(self, request_id: int, result) -> None:
        """An ``ok`` outcome delivered ``result`` — re-verify its audit.

        Checks the executor's own log (no recorded violations, every
        transfer stamped) and then *independently re-probes* each
        transfer against the policy the run was audited under — a
        closed policy through the reference scan, which reads neither
        the policy's memo nor its mask kernel.  Execution is
        synchronous, so for the run's own delivery that policy is still
        at the transfers' epoch; a late sharer of the result, delivered
        after an in-place update, is not re-probed (nor counted as
        probed).
        """
        self._checked()
        audit = getattr(result, "audit", None)
        if audit is None:
            self._violate(
                INV_AUTHORIZED_TRANSFER,
                f"request {request_id} delivered an unaudited result",
                request_id=request_id,
            )
            return
        # Coalesced followers deliver the leader's result object, so the
        # same physical audit arrives once per sharer; a clean verdict is
        # deterministic per audit, so re-walking it per follower buys
        # nothing.  Dirty audits fall through so every affected request
        # logs its own violation.
        hit = self._audit_memo.get(id(audit))
        if hit is not None and hit[0] is audit:
            self._transfers_probed += hit[1]
            return
        if audit.violations:
            self._violate(
                INV_AUTHORIZED_TRANSFER,
                f"request {request_id} shipped {len(audit.violations)} "
                "transfer(s) the audit flagged",
                request_id=request_id,
                violations=len(audit.violations),
            )
        clean = not audit.violations
        checked = audit.checked
        policy = audit.policy
        policy_id = id(policy)
        epoch = getattr(policy, "epoch", None)
        memo = self._probe_memo
        if len(memo) > 4096:
            memo.clear()
        if epoch != getattr(audit, "epoch", epoch):
            return
        self._transfers_probed += len(checked)
        for transfer in checked:
            key = (
                policy_id, epoch, transfer.sender, transfer.receiver,
                transfer.profile,
            )
            hit = memo.get(key)
            if hit is not None:
                allowed = hit[1]
            else:
                allowed = _reprobe(policy, transfer)
                memo[key] = (policy, allowed)
            if not allowed:
                clean = False
                self._violate(
                    INV_AUTHORIZED_TRANSFER,
                    f"transfer {transfer.sender} -> {transfer.receiver} of "
                    f"{transfer.profile} has no covering authorization at "
                    "its epoch",
                    request_id=request_id,
                    sender=transfer.sender,
                    receiver=transfer.receiver,
                )
        if clean:
            if len(self._audit_memo) > 2048:
                self._audit_memo.clear()
            self._audit_memo[id(audit)] = (audit, len(checked))

    # ------------------------------------------------------------------
    # Single execution per coalesced key
    # ------------------------------------------------------------------

    def flight_lead(self, key: object) -> None:
        """An admitted request opened the flight of ``key`` and queued
        as its leader."""
        self._checked()

    def flight_promote(self, key: object) -> None:
        """The leader of ``key``'s flight left by its own fate (deadline
        shed, spent chaos attempts, shutdown); its first follower leads now."""
        self._checked()

    def execution_begin(self, exec_key: object) -> None:
        """The service is about to run the pipeline for ``exec_key``
        (the ``(fingerprint, recipient, profiled, epoch)`` flight key)."""
        self._checked()
        open_now = self._open_executions.get(exec_key, 0)
        if open_now >= 1:
            self._violate(
                INV_SINGLE_EXECUTION,
                f"execution key {exec_key!r} started a second concurrent "
                "execution — coalescing must share the leader's run",
                depth=open_now + 1,
            )
        self._open_executions[exec_key] = open_now + 1
        self._executions[exec_key] = self._executions.get(exec_key, 0) + 1

    def execution_end(self, exec_key: object) -> None:
        """The pipeline run for ``exec_key`` returned (or raised)."""
        self._checked()
        open_now = self._open_executions.get(exec_key, 0)
        if open_now <= 0:
            self._violate(
                INV_SINGLE_EXECUTION,
                f"execution key {exec_key!r} ended without a start",
            )
            return
        self._open_executions[exec_key] = open_now - 1

    # ------------------------------------------------------------------
    # Legal health-state transitions
    # ------------------------------------------------------------------

    def breaker(self, tenant: str, old: str, new: str) -> None:
        """A tenant breaker moved ``old -> new`` (wired through
        :meth:`CircuitBreaker.set_transition_observer`)."""
        self._checked()
        if (old, new) not in _LEGAL_BREAKER_EDGES:
            self._violate(
                INV_BREAKER_TRANSITION,
                f"tenant {tenant!r} breaker took illegal edge "
                f"{old} -> {new}",
                tenant=tenant,
                old=old,
                new=new,
            )

    def degrade(self, new: int) -> None:
        """The service's degrade level at a submission; a move off the
        last level seen is checked."""
        old = self._level
        if new == old:
            return
        self._level = new
        self._checked()
        if not DEGRADE_NORMAL <= new <= DEGRADE_SHED:
            self._violate(
                INV_DEGRADE_LEVEL,
                f"degrade level left the ladder: {old} -> {new}",
                old=old,
                new=new,
            )

    def epoch(self, old: int, new: int) -> None:
        """The policy epoch moved ``old -> new`` (grant/revoke)."""
        self._checked()
        if new < old:
            self._violate(
                INV_EPOCH_MONOTONIC,
                f"policy epoch moved backwards: {old} -> {new}",
                old=old,
                new=new,
            )
        elif self._last_epoch is not None and new < self._last_epoch:
            self._violate(
                INV_EPOCH_MONOTONIC,
                f"policy epoch moved backwards: {self._last_epoch} -> {new}",
                old=old,
                new=new,
            )
        self._last_epoch = max(
            new, self._last_epoch if self._last_epoch is not None else new
        )

    # ------------------------------------------------------------------
    # Reporting / replay
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """JSON-safe monitor state (benches, artifacts, tests)."""
        return {
            "ok": self.ok,
            "checks": self._checks,
            "violations": [v.to_dict() for v in self.violations],
            "pending": self.pending(),
            "settled": len(self._settled),
            "transfers_probed": self._transfers_probed,
            "distinct_exec_keys": len(self._executions),
        }

    def write_artifact(self, path: str, extra: Optional[dict] = None) -> str:
        """Write a violation-replay artifact.

        The artifact carries every violation, the bound chaos
        schedule's full config and event log, and a ready-to-run replay
        command — one file is everything needed to reproduce the run
        deterministically (``repro.cli chaos --replay <path>``).
        """
        from repro.io.serialize import save_json

        payload: dict = {"report": self.report()}
        if self._chaos is not None:
            payload["chaos"] = {
                "config": self._chaos.config_dict(),
                "events": self._chaos.event_log(),
                "summary": self._chaos.summary(),
            }
            payload["replay"] = (
                f"python -m repro.cli chaos --replay {path}"
            )
        if extra:
            payload["run"] = dict(extra)
        save_json(payload, path)
        return path

    def __repr__(self) -> str:
        return (
            f"InvariantMonitor(checks={self._checks}, "
            f"violations={len(self.violations)}, pending={len(self._admitted)})"
        )
