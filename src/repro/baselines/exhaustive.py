"""Exhaustive safe-assignment enumeration — the optimal baseline.

The Figure 6 algorithm is a greedy heuristic: it keeps only one slave
per side, prefers semi-joins, and breaks ties by join counters.  To
measure what that greed costs (and to catch any unsafe output — none is
expected), this module enumerates the full space of Definition 4.1
assignments:

* each leaf is pinned to its storing server;
* each unary node follows its operand;
* each join independently picks one of its (up to) four Figure 5 modes —
  regular at either operand or semi-join mastered by either operand —
  plus the degenerate local join when both operands land on one server.

Safety is checked per join during enumeration (the flows of a join
depend only on the child masters, known at that point), so unsafe
subtrees prune early.  The space is :math:`O(4^{\\text{joins}})`; fine
for paper-scale queries, and the benchmarks keep within that scale.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.algebra.tree import JoinNode, LeafNode, PlanNode, QueryTreePlan, UnaryNode
from repro.core.assignment import Assignment, Executor
from repro.core.flows import join_executions
from repro.core.profile import RelationProfile
from repro.engine.coster import CostModel, TableStats, estimate_assignment_cost
from repro.exceptions import PlanError

#: One enumeration branch: executor per node id, plus the resulting
#: holder of each node's output.
_Partial = Tuple[Dict[int, Executor], str]


def _profiles(plan: QueryTreePlan) -> Dict[int, RelationProfile]:
    profiles: Dict[int, RelationProfile] = {}
    for node in plan:
        if isinstance(node, LeafNode):
            profiles[node.node_id] = RelationProfile.of_base_relation(node.relation)
        elif isinstance(node, UnaryNode):
            child = profiles[node.left.node_id]
            if node.operator == "project":
                profiles[node.node_id] = child.project(node.projection_attributes)
            else:
                profiles[node.node_id] = child.select(node.predicate.attributes)
        elif isinstance(node, JoinNode):
            profiles[node.node_id] = profiles[node.left.node_id].join(
                profiles[node.right.node_id], node.path
            )
    return profiles


def _branches(
    node: PlanNode,
    profiles: Mapping[int, RelationProfile],
    policy,
    check_safety: bool,
) -> Iterator[_Partial]:
    if isinstance(node, LeafNode):
        if node.server is None:
            raise PlanError(f"relation {node.relation.name!r} has no storing server")
        yield {node.node_id: Executor(node.server)}, node.server
        return
    if isinstance(node, UnaryNode):
        for executors, holder in _branches(node.left, profiles, policy, check_safety):
            extended = dict(executors)
            extended[node.node_id] = Executor(holder)
            yield extended, holder
        return
    if not isinstance(node, JoinNode):  # pragma: no cover - closed kinds
        raise PlanError(f"unknown node kind: {type(node).__name__}")
    left_profile = profiles[node.left.node_id]
    right_profile = profiles[node.right.node_id]
    # The right subtree's branches are materialized once instead of being
    # re-enumerated (and re-safety-checked) for every left branch — for
    # the common left-deep plans the right child is a leaf or small
    # subtree, so the memory cost is negligible while the saved work is
    # multiplicative in the left branch count.
    right_branches = list(_branches(node.right, profiles, policy, check_safety))
    # The admissible executions of this join depend only on the operand
    # *holders*, not on how the subtrees arranged themselves internally,
    # so the (possibly safety-filtered) mode list is cached per holder
    # pair — at most servers² entries.
    modes_cache: Dict[Tuple[str, str], List[Executor]] = {}
    for left_exec, left_holder in _branches(node.left, profiles, policy, check_safety):
        for right_exec, right_holder in right_branches:
            base = dict(left_exec)
            base.update(right_exec)
            if left_holder == right_holder:
                # Both operands on one server: the only sensible execution
                # is the free local join (every other mode just adds cost).
                executors = dict(base)
                executors[node.node_id] = Executor(left_holder)
                yield executors, left_holder
                continue
            pair = (left_holder, right_holder)
            admitted = modes_cache.get(pair)
            if admitted is None:
                admitted = []
                for execution in join_executions(
                    left_profile, right_profile, left_holder, right_holder, node.path
                ):
                    if check_safety:
                        safe = all(
                            policy.can_view(profile, receiver)
                            for receiver, profile in execution.required_views()
                        )
                        if not safe:
                            continue
                    admitted.append(Executor(execution.master, execution.slave))
                modes_cache[pair] = admitted
            for executor in admitted:
                executors = dict(base)
                executors[node.node_id] = executor
                yield executors, executor.master


def _assemble(
    plan: QueryTreePlan,
    profiles: Mapping[int, RelationProfile],
    executors: Mapping[int, Executor],
) -> Assignment:
    assignment = Assignment(plan)
    for node in plan:
        assignment.set_profile(node.node_id, profiles[node.node_id])
        assignment.set_executor(node.node_id, executors[node.node_id])
    return assignment


def enumerate_structural_assignments(plan: QueryTreePlan) -> Iterator[Assignment]:
    """Every Definition 4.1 assignment of ``plan``, safety ignored."""
    profiles = _profiles(plan)
    for executors, _ in _branches(plan.root, profiles, None, check_safety=False):
        yield _assemble(plan, profiles, executors)


def enumerate_safe_assignments(policy, plan: QueryTreePlan) -> Iterator[Assignment]:
    """Every *safe* (Definition 4.2) assignment of ``plan`` under
    ``policy``, pruning unsafe joins during enumeration."""
    profiles = _profiles(plan)
    for executors, _ in _branches(plan.root, profiles, policy, check_safety=True):
        yield _assemble(plan, profiles, executors)


def optimal_safe_assignment(
    policy,
    plan: QueryTreePlan,
    base_stats: Mapping[str, TableStats],
    cost_model: Optional[CostModel] = None,
    selectivities=None,
) -> Optional[Tuple[Assignment, float]]:
    """The cheapest safe assignment by estimated communication cost.

    Returns ``(assignment, cost)``, or ``None`` when the plan is
    infeasible.  Ties break toward the assignment enumerated first, which
    makes results deterministic.  ``selectivities`` optionally refines
    join cardinalities with observed per-path values (see
    :func:`~repro.engine.coster.estimate_assignment_cost`).
    """
    best: Optional[Tuple[Assignment, float]] = None
    for assignment in enumerate_safe_assignments(policy, plan):
        cost = estimate_assignment_cost(
            assignment, base_stats, cost_model, selectivities
        )
        if best is None or cost < best[1]:
            best = (assignment, cost)
    return best
