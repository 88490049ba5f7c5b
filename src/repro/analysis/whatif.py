"""What-if analysis: the smallest grants that unlock an infeasible query.

When the planner reports ``InfeasiblePlanError``, the policy author's
next question is *what would I have to authorize to make this run?* —
and they want the least disclosive answer.  This module computes it:

* :func:`missing_grants_for_join` — for one join (operand profiles +
  holders), every Figure 5 mode with the exact rules it lacks;
* :func:`suggest_repair` — a greedy bottom-up pass over a whole plan
  choosing, per join, the mode that needs the least *additional*
  exposure (new (server, attribute) pairs granted), and returning the
  rule set that provably makes the plan feasible.

The suggested rules are exactly-covering authorizations
``[profile.exposed, profile.join_path] -> receiver`` for each missing
flow — never broader than the strategy needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.tree import JoinNode, LeafNode, PlanNode, QueryTreePlan, UnaryNode
from repro.core.authorization import Authorization, Policy
from repro.core.flows import JoinExecution, join_executions
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError


class ModeRepair:
    """One execution mode of one join, with the rules it lacks.

    Attributes:
        node_id: the join node.
        mode_tag: the Figure 5 mode.
        master: result holder if this mode is chosen.
        missing: exactly-covering rules required, in flow order (empty
            when the mode is already safe).
        exposure_cost: new (receiver, attribute) pairs the rules grant.
    """

    __slots__ = ("node_id", "mode_tag", "master", "missing", "exposure_cost")

    def __init__(
        self,
        node_id: int,
        mode_tag: str,
        master: str,
        missing: Tuple[Authorization, ...],
        exposure_cost: int,
    ) -> None:
        self.node_id = node_id
        self.mode_tag = mode_tag
        self.master = master
        self.missing = missing
        self.exposure_cost = exposure_cost

    @property
    def is_safe(self) -> bool:
        """Whether the mode needs no new grants."""
        return not self.missing

    def __repr__(self) -> str:
        return (
            f"ModeRepair(n{self.node_id} {self.mode_tag}: "
            f"{len(self.missing)} missing, cost {self.exposure_cost})"
        )


class RepairPlan:
    """A complete repair: per-join mode choices and the combined grants.

    Attributes:
        choices: one :class:`ModeRepair` per join, post-order.
        grants: deduplicated rules to add, in first-needed order.
    """

    __slots__ = ("choices", "grants")

    def __init__(self, choices: List[ModeRepair], grants: List[Authorization]) -> None:
        self.choices = choices
        self.grants = grants

    @property
    def is_already_feasible(self) -> bool:
        """Whether no grants are needed at all."""
        return not self.grants

    def augmented_policy(self, policy: Policy) -> Policy:
        """A copy of ``policy`` with the suggested grants added."""
        augmented = policy.copy()
        augmented.extend_ignoring_duplicates(self.grants)
        return augmented

    def describe(self) -> str:
        """Human-readable repair summary."""
        lines = []
        for choice in self.choices:
            status = "ok" if choice.is_safe else f"+{len(choice.missing)} grants"
            lines.append(
                f"join n{choice.node_id}: {choice.mode_tag} at {choice.master} ({status})"
            )
        if self.grants:
            lines.append("grants to add:")
            for rule in self.grants:
                lines.append(f"  {rule}")
        else:
            lines.append("no grants needed")
        return "\n".join(lines)


def missing_grants_for_execution(
    policy, execution: JoinExecution, node_id: int
) -> ModeRepair:
    """The rules one mode lacks under ``policy``."""
    missing: List[Authorization] = []
    cost = 0
    for receiver, profile in execution.required_views():
        if policy.can_view(profile, receiver):
            continue
        missing.append(
            Authorization(profile.exposed_attributes, profile.join_path, receiver)
        )
        cost += len(profile.exposed_attributes)
    return ModeRepair(
        node_id, execution.mode.tag, execution.master, tuple(missing), cost
    )


def missing_grants_for_join(
    policy,
    left_profile: RelationProfile,
    right_profile: RelationProfile,
    left_holder: str,
    right_holder: str,
    conditions,
    node_id: int = -1,
) -> List[ModeRepair]:
    """Every Figure 5 mode of one join with its missing rules, ordered
    cheapest (least new exposure) first; already-safe modes lead."""
    repairs = [
        missing_grants_for_execution(policy, execution, node_id)
        for execution in join_executions(
            left_profile, right_profile, left_holder, right_holder, conditions
        )
    ]
    repairs.sort(key=lambda r: (r.exposure_cost, r.mode_tag))
    return repairs


def suggest_repair(policy, plan: QueryTreePlan) -> RepairPlan:
    """Greedy bottom-up repair of a whole plan.

    Walks the plan in post-order; at each join, evaluates all four modes
    against the policy *plus the grants already suggested*, picks the
    cheapest, and commits its master as the result holder for the joins
    above.  The returned grants provably make the plan feasible (the
    greedy path becomes a safe assignment; tests assert the planner
    succeeds on the augmented policy).

    Raises:
        PlanError: on structurally broken plans (unplaced leaves).
    """
    working = policy.copy() if isinstance(policy, Policy) else None
    effective = working if working is not None else policy
    grants: List[Authorization] = []
    choices: List[ModeRepair] = []
    profiles: Dict[int, RelationProfile] = {}
    holders: Dict[int, str] = {}

    for node in plan:
        if isinstance(node, LeafNode):
            if node.server is None:
                raise PlanError(
                    f"relation {node.relation.name!r} has no storing server"
                )
            profiles[node.node_id] = RelationProfile.of_base_relation(node.relation)
            holders[node.node_id] = node.server
        elif isinstance(node, UnaryNode):
            child_profile = profiles[node.left.node_id]
            if node.operator == "project":
                profiles[node.node_id] = child_profile.project(
                    node.projection_attributes
                )
            else:
                profiles[node.node_id] = child_profile.select(
                    node.predicate.attributes
                )
            holders[node.node_id] = holders[node.left.node_id]
        elif isinstance(node, JoinNode):
            left_id, right_id = node.left.node_id, node.right.node_id
            profiles[node.node_id] = profiles[left_id].join(
                profiles[right_id], node.path
            )
            if holders[left_id] == holders[right_id]:
                # Local join: free and safe, nothing to repair.
                holders[node.node_id] = holders[left_id]
                continue
            repairs = missing_grants_for_join(
                effective,
                profiles[left_id],
                profiles[right_id],
                holders[left_id],
                holders[right_id],
                node.path,
                node_id=node.node_id,
            )
            chosen = repairs[0]
            choices.append(chosen)
            holders[node.node_id] = chosen.master
            for rule in chosen.missing:
                grants.append(rule)
                if working is not None and rule not in working:
                    working.add(rule)
    # Deduplicate grants preserving order (non-Policy backends get the
    # raw list; duplicates are harmless there).
    deduplicated: List[Authorization] = []
    for rule in grants:
        if rule not in deduplicated:
            deduplicated.append(rule)
    return RepairPlan(choices, deduplicated)
