"""Planning explanations: *why* the planner decided what it decided.

The Figure 7 trace shows what the algorithm chose; operators reviewing
a strategy want to know why — which of the Figure 5 views were checked
at each join, which rule covered each admitted one, and which check
killed each rejected candidate.  :func:`explain_planning` recomputes
every check the planner performs (same order, same views) and records
the verdicts with their evidence, producing a per-join
:class:`JoinExplanation` and a rendered report.

Because the checks are recomputed from the same primitives the planner
uses (:mod:`repro.core.flows` + ``CanView``), the explanation cannot
drift from the implementation; a test asserts the explained admissions
equal the planner's actual candidate lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.tree import JoinNode, LeafNode, QueryTreePlan, UnaryNode
from repro.core.access import first_covering_authorization
from repro.core.authorization import Authorization, Policy
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError


class ViewCheck:
    """One ``CanView`` question the planner asked.

    Attributes:
        server: the would-be receiver.
        role: ``"slave"``, ``"semi master"`` or ``"regular master"``.
        profile: the view checked.
        allowed: the verdict.
        covering_rule: the first covering rule when allowed (``None``
            for duck-typed policies).
    """

    __slots__ = ("server", "role", "profile", "allowed", "covering_rule")

    def __init__(
        self,
        server: str,
        role: str,
        profile: RelationProfile,
        allowed: bool,
        covering_rule: Optional[Authorization],
    ) -> None:
        self.server = server
        self.role = role
        self.profile = profile
        self.allowed = allowed
        self.covering_rule = covering_rule

    def __repr__(self) -> str:
        verdict = "ALLOW" if self.allowed else "DENY"
        return f"ViewCheck({self.server} as {self.role}: {verdict})"


class JoinExplanation:
    """Every check performed at one join node.

    Attributes:
        node_id: the join.
        checks: the :class:`ViewCheck` records, in the planner's order.
        admitted: ``(server, mode)`` pairs that became candidates.
    """

    __slots__ = ("node_id", "checks", "admitted")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.checks: List[ViewCheck] = []
        self.admitted: List[Tuple[str, str]] = []

    def denials(self) -> List[ViewCheck]:
        """The failed checks (what killed the alternatives)."""
        return [check for check in self.checks if not check.allowed]


def explain_planning(
    policy, plan: QueryTreePlan, trace=None
) -> Tuple[Dict[int, JoinExplanation], bool]:
    """Recompute and record every planner check for ``plan``.

    Returns ``(explanations by join node id, feasible)``.  The
    recomputation mirrors ``Find_candidates`` exactly: profiles via
    Figure 4, views via Figure 5, slave-before-master ordering,
    semi-before-regular admission.

    With ``trace`` (a :class:`~repro.obs.trace.TraceContext`), covering
    rules are read from — and recorded into — the trace's
    covering-authorization cache, so an explanation following an audited
    execution reuses the very rules the audit stamped instead of
    re-probing the policy (and a test pins the two together).
    """
    explanations: Dict[int, JoinExplanation] = {}
    profiles: Dict[int, RelationProfile] = {}
    candidates: Dict[int, List[Tuple[str, int]]] = {}
    feasible = True

    def check(
        explanation: JoinExplanation, server: str, role: str, profile: RelationProfile
    ) -> bool:
        allowed = policy.can_view(profile, server)
        rule = None
        if allowed and isinstance(policy, Policy):
            rule = first_covering_authorization(policy, profile, server, trace=trace)
        explanation.checks.append(ViewCheck(server, role, profile, allowed, rule))
        return allowed

    for node in plan:
        node_id = node.node_id
        if isinstance(node, LeafNode):
            if node.server is None:
                raise PlanError(f"{node.relation.name!r} has no storing server")
            profiles[node_id] = RelationProfile.of_base_relation(node.relation)
            candidates[node_id] = [(node.server, 0)]
            continue
        if isinstance(node, UnaryNode):
            child = node.left.node_id
            if node.operator == "project":
                profiles[node_id] = profiles[child].project(node.projection_attributes)
            else:
                profiles[node_id] = profiles[child].select(node.predicate.attributes)
            candidates[node_id] = list(candidates[child])
            continue
        assert isinstance(node, JoinNode)
        left_id, right_id = node.left.node_id, node.right.node_id
        left_profile, right_profile = profiles[left_id], profiles[right_id]
        profiles[node_id] = left_profile.join(right_profile, node.path)
        explanation = JoinExplanation(node_id)
        explanations[node_id] = explanation
        j_left = node.path.attributes & left_profile.attributes
        j_right = node.path.attributes & right_profile.attributes
        right_slave_view = left_profile.project(j_left)
        left_slave_view = right_profile.project(j_right)
        right_master_view = right_profile.project(j_right).join(left_profile, node.path)
        left_master_view = left_profile.project(j_left).join(right_profile, node.path)

        admitted: List[Tuple[str, int]] = []

        def admit_side(
            slave_pool, master_pool, slave_view, master_view, full_view
        ) -> None:
            slave_found = False
            for server, _count in sorted(slave_pool, key=lambda c: -c[1]):
                if check(explanation, server, "slave", slave_view):
                    slave_found = True
                    break
            for server, count in sorted(master_pool, key=lambda c: -c[1]):
                if slave_found and check(explanation, server, "semi master", master_view):
                    admitted.append((server, count + 1))
                    explanation.admitted.append((server, "semi"))
                elif check(explanation, server, "regular master", full_view):
                    admitted.append((server, count + 1))
                    explanation.admitted.append((server, "regular"))

        admit_side(
            candidates[left_id], candidates[right_id],
            left_slave_view, right_master_view, left_profile,
        )
        admit_side(
            candidates[right_id], candidates[left_id],
            right_slave_view, left_master_view, right_profile,
        )
        candidates[node_id] = admitted
        if not admitted:
            feasible = False
            break
    return explanations, feasible


def render_explanation(
    policy, plan: QueryTreePlan, explanations: Dict[int, JoinExplanation]
) -> str:
    """Human-readable rendering, one block per join."""
    lines: List[str] = []
    for node_id in sorted(explanations):
        node = plan.node(node_id)
        explanation = explanations[node_id]
        lines.append(f"join n{node_id} {node.label()}:")
        for check in explanation.checks:
            verdict = "ALLOW" if check.allowed else "deny "
            lines.append(
                f"  [{verdict}] {check.server} as {check.role}: {check.profile}"
            )
            if check.covering_rule is not None:
                lines.append(f"            covered by {check.covering_rule}")
        if explanation.admitted:
            summary = ", ".join(f"{s} ({m})" for s, m in explanation.admitted)
            lines.append(f"  candidates: {summary}")
        else:
            lines.append("  candidates: NONE — plan infeasible here")
    return "\n".join(lines)


def consistent_with_planner(policy, plan: QueryTreePlan) -> bool:
    """Whether the explanation's admissions match the real planner's
    candidate lists (used by tests to pin the two together)."""
    explanations, feasible = explain_planning(policy, plan)
    planner = SafePlanner(policy)
    try:
        _, trace = planner.plan(plan)
    except Exception:
        return not feasible
    for node in plan.joins():
        explained = sorted(s for s, _ in explanations[node.node_id].admitted)
        actual = sorted(trace.decision(node.node_id).candidates.servers())
        if explained != actual:
            return False
    return feasible
