"""Runtime authorization enforcement.

The planner proves an assignment safe *symbolically*; the audit layer
enforces the same property *operationally*: every transfer the executor
is about to perform is checked against the policy at the moment it
happens, and permitted transfers are stamped with the covering
authorization.  This defense-in-depth catches any divergence between
the symbolic flows and what the engine actually ships (and makes
``enforce=False`` runs useful for measuring how often an unsafe strategy
*would* have violated the policy).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.access import explain_denial
from repro.core.authorization import Authorization, Policy
from repro.core.profile import RelationProfile
from repro.engine.transfers import Transfer
from repro.exceptions import AuditViolationError


class AuditLog:
    """Decision log of an audited execution.

    Args:
        policy: the policy to enforce (a closed :class:`Policy` or any
            object with ``can_view(profile, server)``).
        enforce: when true (default), an unauthorized transfer raises
            :class:`~repro.exceptions.AuditViolationError`; when false it
            is recorded as a violation and execution continues.
        trace: optional :class:`~repro.obs.trace.TraceContext`; denials
            are counted into ``repro_audit_denials_total``.  Covering
            rules come from the policy's own memo
            (:meth:`~repro.core.authorization.Policy.covering_rule`), so
            the audit, the explain path and plan-cache revalidation agree
            by construction, traced or not.
    """

    def __init__(self, policy, enforce: bool = True, trace=None) -> None:
        self._policy = policy
        self.epoch = getattr(policy, "epoch", None)  # policies update in place
        self._enforce = enforce
        self._trace = trace
        self._checked: List[Transfer] = []
        self._violations: List[Transfer] = []

    @property
    def policy(self):
        """The enforced policy."""
        return self._policy

    def authorize(
        self, sender: str, receiver: str, profile: RelationProfile
    ) -> Tuple[bool, Optional[Authorization]]:
        """Decide one release with a single policy probe.

        Returns ``(allowed, covering_rule)``; the rule is ``None`` for
        local hand-offs, denials, and non-:class:`Policy` policies
        (which carry no rule objects).  Never raises — rejection is the
        caller's move (see :meth:`deny` / :meth:`check`).
        """
        if sender == receiver:
            return True, None
        if isinstance(self._policy, Policy):
            # A covering rule exists iff the transfer is authorized, so
            # one memo probe answers both questions for closed policies.
            rule = self._policy.covering_rule(profile, receiver)
            return rule is not None, rule
        return self._policy.can_view(profile, receiver), None

    def deny(self, sender: str, receiver: str, profile: RelationProfile) -> None:
        """Reject one unauthorized release.

        Raises:
            AuditViolationError: when enforcement is on; otherwise the
                denial is only counted (the caller records the transfer
                as a violation).
        """
        if self._trace is not None:
            self._trace.count("repro_audit_denials_total", receiver=receiver)
            self._trace.event(
                "audit_denial", "audit", sender=sender, receiver=receiver
            )
        if self._enforce:
            raise AuditViolationError(
                f"unauthorized transfer {sender} -> {receiver} of {profile}\n"
                + explain_denial(self._policy, profile, receiver),
                sender=sender,
                receiver=receiver,
            )

    def check(
        self, sender: str, receiver: str, profile: RelationProfile
    ) -> Optional[Authorization]:
        """Authorize (or reject) one release before it happens.

        Returns the covering authorization (``None`` for local hand-offs
        or non-:class:`Policy` policies, which carry no rule objects).

        Raises:
            AuditViolationError: when enforcement is on and no rule
                covers the release.
        """
        allowed, rule = self.authorize(sender, receiver, profile)
        if not allowed:
            self.deny(sender, receiver, profile)
        return rule

    def rule_id(self, rule: Optional[Authorization]) -> Optional[int]:
        """Stable id of a covering rule under the enforced policy, for
        stamping transfer spans (``None`` when unavailable)."""
        if rule is None:
            return None
        getter = getattr(self._policy, "rule_id", None)
        return getter(rule) if getter is not None else None

    def record(self, transfer: Transfer, violation: bool = False) -> None:
        """Log a performed transfer (flagging policy violations)."""
        self._checked.append(transfer)
        if violation:
            self._violations.append(transfer)

    @property
    def checked(self) -> Tuple[Transfer, ...]:
        """Every audited transfer, in order."""
        return tuple(self._checked)

    @property
    def violations(self) -> Tuple[Transfer, ...]:
        """Transfers that violated the policy (non-enforcing runs only)."""
        return tuple(self._violations)

    def all_authorized(self) -> bool:
        """Whether no violation was recorded."""
        return not self._violations

    def summary(self) -> str:
        """Counts of audited transfers and violations."""
        return (
            f"{len(self._checked)} transfers audited, "
            f"{len(self._violations)} violations"
        )
