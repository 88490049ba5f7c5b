"""Authorization rules against profiles (Definition 3.3).

A server ``S`` is authorized to view a relation with profile
:math:`[R^\\pi, R^\\bowtie, R^\\sigma]` iff some authorization
``[A, J] -> S`` satisfies **both**:

1. :math:`R^\\pi \\cup R^\\sigma \\subseteq A` — the rule grants every
   attribute the relation exposes, including those consumed by selection
   conditions along its construction; and
2. :math:`R^\\bowtie = J` — the join paths are *equal*.

Condition 2 is deliberately not a containment: a relation built with an
extra join condition carries extra information (which of its tuples have
matches in the joined relation), so an authorization whose join path is
a subset of the profile's does **not** imply the release — this is the
Disease_list counterexample of Section 3.2.

The paper's ``CanView`` itself is one method, ``policy.can_view(profile,
server)``, answered by :class:`~repro.core.authorization.Policy` and
:class:`~repro.core.openpolicy.OpenPolicy`; this module holds the
per-rule clause check, the covering-rule lookups and denial messages.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.authorization import Authorization, Policy
from repro.core.profile import RelationProfile
from repro.obs.trace import MISSING


def authorization_covers(authorization: Authorization, profile: RelationProfile) -> bool:
    """Whether one rule covers one profile (both Definition 3.3 clauses)."""
    if not profile.exposed_attributes <= authorization.attributes:
        return False
    return profile.join_path == authorization.join_path


def covering_authorizations(
    policy: Policy, profile: RelationProfile, server: str
) -> List[Authorization]:
    """All rules of ``server`` covering ``profile`` (for explanations,
    audit records and tests).

    Clause 2 of Definition 3.3 is a join-path *equality*, so only the
    exact-path bucket of the policy index can contain covering rules —
    rules with any other path are skipped without being inspected.
    Bucket order preserves per-server insertion order, so results match
    a full ``rules_for`` scan exactly.
    """
    exposed = profile.exposed_attributes
    return [
        rule
        for rule in policy.rules_for_path(server, profile.join_path)
        if exposed <= rule.attributes
    ]


def first_covering_authorization(
    policy: Policy, profile: RelationProfile, server: str, trace=None
) -> Optional[Authorization]:
    """The first covering rule in policy order, or ``None``.

    The runtime audit attaches this rule to every permitted transfer so
    that each release is accountable to a specific grant.  Like
    :func:`covering_authorizations` this probes only the exact-path
    bucket; within a server's rules the bucket preserves insertion
    order, so "first" is the same rule a full scan would return.

    With a :class:`~repro.obs.trace.TraceContext`, the answer is cached
    per ``(server, profile)`` so the audit and explain paths compute the
    covering rule once and agree by construction.  The cache is pinned
    to the policy epoch: a grant or revoke drops it, so a withdrawn rule
    is never "found" again and a fresh grant is never a cached denial.
    """
    if trace is not None:
        trace.pin_covering_epoch(policy.epoch)
        cached = trace.covering_for(server, profile)
        if cached is not MISSING:
            return cached
    exposed = profile.exposed_attributes
    found = None
    for rule in policy.rules_for_path(server, profile.join_path):
        if exposed <= rule.attributes:
            found = rule
            break
    if trace is not None:
        trace.record_covering(server, profile, found)
    return found


def explain_denial(policy: Policy, profile: RelationProfile, server: str) -> str:
    """Human-readable explanation of why ``server`` cannot view ``profile``.

    For each of the server's rules, reports which Definition 3.3 clause
    fails.  Returns an empty string when access is actually granted.
    """
    if policy.can_view(profile, server):
        return ""
    if not isinstance(policy, Policy):
        return f"{server} cannot view {profile} under {policy!r}"
    rules = policy.rules_for(server)
    if not rules:
        return f"{server} holds no authorizations at all"
    lines = [f"{server} cannot view {profile}:"]
    for rule in rules:
        missing = sorted(profile.exposed_attributes - rule.attributes)
        reasons = []
        if missing:
            reasons.append(f"attributes not granted: {missing}")
        if profile.join_path != rule.join_path:
            reasons.append(
                f"join path mismatch: profile has {profile.join_path}, rule has "
                f"{rule.join_path}"
            )
        lines.append(f"  {rule}: " + "; ".join(reasons))
    return "\n".join(lines)
