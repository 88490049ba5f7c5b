"""Exhaustive safe-assignment search — the optimal baseline.

The Figure 6 algorithm is a greedy heuristic: it keeps only one slave
per side, prefers semi-joins, and breaks ties by join counters.  To
measure what that greed costs (and to catch any unsafe output — none is
expected), this module searches the full space of Definition 4.1
assignments:

* each leaf is pinned to its storing server;
* each unary node follows its operand;
* each join independently picks one of its (up to) four Figure 5 modes —
  regular at either operand or semi-join mastered by either operand —
  plus the local join when both operands land on one server (priced
  like a regular join: a full-size hand-off, see
  :func:`~repro.engine.coster.join_flows`).

:func:`enumerate_safe_assignments` lists the space (``O(4^joins)``,
unsafe joins pruned as they are reached); :func:`optimal_safe_assignment`
finds its cheapest member by dynamic programming without listing it, and
:func:`cheapest_safe_plan` runs that over every connected left-deep join
order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.schema import Catalog
from repro.algebra.tree import JoinNode, LeafNode, PlanNode, QueryTreePlan, UnaryNode
from repro.core.assignment import Assignment, Executor
from repro.core.flows import join_executions
from repro.core.profile import RelationProfile
from repro.engine.coster import (
    CostModel,
    TableStats,
    estimate_assignment_cost,
    join_flows,
    plan_stats,
)
from repro.exceptions import InfeasiblePlanError, PlanError

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


def _modes(node: JoinNode, profiles, left_holder: str, right_holder: str, policy) -> List[Executor]:
    """The executions tried for ``node`` with its operands at these
    holders, in enumeration order: the local join when the holders
    coincide (every other mode just adds cost), otherwise each Figure 5
    execution whose views ``policy`` admits (all four when ``policy`` is
    ``None``).  They depend on the holders alone, not on how the
    subtrees arranged themselves internally."""
    if left_holder == right_holder:
        return [Executor(left_holder)]
    return [
        Executor(execution.master, execution.slave)
        for execution in join_executions(
            profiles[node.left.node_id], profiles[node.right.node_id],
            left_holder, right_holder, node.path,
        )
        if policy is None
        or all(policy.can_view(view, receiver) for receiver, view in execution.required_views())
    ]


def _branches(node: PlanNode, profiles: Mapping[int, RelationProfile], policy) -> Iterator[_Partial]:
    if isinstance(node, LeafNode):
        if node.server is None:
            raise PlanError(f"relation {node.relation.name!r} has no storing server")
        yield {node.node_id: Executor(node.server)}, node.server
        return
    if isinstance(node, UnaryNode):
        for executors, holder in _branches(node.left, profiles, policy):
            yield {**executors, node.node_id: Executor(holder)}, holder
        return
    # The right subtree's branches are materialized once instead of being
    # re-enumerated (and re-safety-checked) for every left branch, and
    # the modes are cached per holder pair — at most servers² entries.
    right_branches = list(_branches(node.right, profiles, policy))
    modes_cache: Dict[Tuple[str, str], List[Executor]] = {}
    for left_execs, left_holder in _branches(node.left, profiles, policy):
        for right_execs, right_holder in right_branches:
            pair = (left_holder, right_holder)
            if pair not in modes_cache:
                modes_cache[pair] = _modes(node, profiles, left_holder, right_holder, policy)
            for executor in modes_cache[pair]:
                yield {**left_execs, **right_execs, node.node_id: executor}, executor.master


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
    for executors, _ in _branches(plan.root, profiles, None):
        yield _assemble(plan, profiles, executors)


def enumerate_safe_assignments(policy, plan: QueryTreePlan) -> Iterator[Assignment]:
    """Every *safe* (Definition 4.2) assignment of ``plan`` under
    ``policy``, pruning unsafe joins during enumeration."""
    profiles = _profiles(plan)
    for executors, _ in _branches(plan.root, profiles, policy):
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
    infeasible.  A dynamic program over ``(node, holder)`` in post-order:
    a join's admissible Figure 5 modes and its priced flows
    (:func:`~repro.engine.coster.join_flows`) depend only on its two
    operand holders, so the cheapest subtree per holder is all a parent
    needs — ``O(joins x servers^2 x 4)``.  Each entry carries the rank
    ``(left rank, right rank, mode index)``, the position of its
    assignment in :func:`enumerate_safe_assignments`' order, so ties
    break toward the assignment enumerated first.  ``selectivities``
    optionally refines join cardinalities with observed per-path values;
    the returned cost is :func:`~repro.engine.coster.estimate_assignment_cost`'s.
    """
    model = cost_model or CostModel()
    profiles = _profiles(plan)
    stats = plan_stats(plan, base_stats, selectivities)
    # node id -> holder -> (cost, rank, executor per node id)
    best: Dict[int, Dict[str, tuple]] = {}
    for node in plan:
        node_id = node.node_id
        if isinstance(node, LeafNode):
            if node.server is None:
                raise PlanError(f"relation {node.relation.name!r} has no storing server")
            best[node_id] = {node.server: (0.0, (), {node_id: Executor(node.server)})}
            continue
        if isinstance(node, UnaryNode):
            best[node_id] = {
                holder: (cost, rank, {**executors, node_id: Executor(holder)})
                for holder, (cost, rank, executors) in best[node.left.node_id].items()
            }
            continue
        left_profile, right_profile = profiles[node.left.node_id], profiles[node.right.node_id]
        entries: Dict[str, tuple] = {}
        for left_holder, (left_cost, left_rank, left_execs) in best[node.left.node_id].items():
            for right_holder, (right_cost, right_rank, right_execs) in best[node.right.node_id].items():
                modes = _modes(node, profiles, left_holder, right_holder, policy)
                for index, executor in enumerate(modes):
                    flows = join_flows(
                        node, executor, left_holder, right_holder, stats,
                        left_profile.attributes, right_profile.attributes,
                    )
                    cost = left_cost + right_cost + sum(
                        model.transfer_cost(sender, receiver, size)
                        for sender, receiver, size, _ in flows
                    )
                    rank = (left_rank, right_rank, index)
                    held = entries.get(executor.master)
                    if held is None or (cost, rank) < held[:2]:
                        entries[executor.master] = (
                            cost, rank, {**left_execs, **right_execs, node_id: executor}
                        )
        best[node_id] = entries
    if not best[plan.root.node_id]:
        return None
    _, _, executors = min(best[plan.root.node_id].values(), key=lambda entry: entry[:2])
    assignment = _assemble(plan, profiles, executors)
    return assignment, estimate_assignment_cost(
        assignment, base_stats, cost_model, selectivities
    )


def cheapest_safe_plan(
    policy,
    catalog: Catalog,
    spec: QuerySpec,
    base_stats: Mapping[str, TableStats],
    cost_model: Optional[CostModel] = None,
    selectivities=None,
) -> Tuple[QueryTreePlan, Assignment, float]:
    """The cheapest safe ``(tree, assignment, cost)`` over every connected
    left-deep join order of ``spec`` — the two-step optimization of the
    paper's Section 5 with :func:`optimal_safe_assignment` as step two.

    Orders are tried in :func:`~repro.algebra.optimizer.enumerate_join_orders`
    order and ties keep the earlier one, so the user's order wins ties.

    Raises:
        InfeasiblePlanError: when no order admits a safe assignment.
    """
    best: Optional[Tuple[QueryTreePlan, Assignment, float]] = None
    for candidate in enumerate_join_orders(catalog, spec):
        tree = build_plan(catalog, candidate)
        found = optimal_safe_assignment(policy, tree, base_stats, cost_model, selectivities)
        if found is not None and (best is None or found[1] < best[2]):
            best = (tree, found[0], found[1])
    if best is None:
        raise InfeasiblePlanError(
            "no connected left-deep join order admits a safe assignment"
        )
    return best
