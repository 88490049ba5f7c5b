"""Independent safety verification (Definitions 4.2 and 4.3).

Given *any* complete executor assignment — produced by the Figure 6
planner, by the exhaustive baseline, or by hand — this module re-derives
from first principles (Figure 5) every data flow the assignment entails
and checks each against the policy with ``CanView``.  The planner is
never trusted: tests assert that everything it emits passes this
verifier, and the tuple-level engine audits the same flows again at
runtime.

Flow derivation per node kind:

* leaf — no flow (a server reads its own relation);
* unary — no flow (executed where the operand already is);
* join with operands held at ``S_l``/``S_r`` (the child masters) and
  executor ``[M, V]``:

  - ``[S_l, NULL]``: one flow ``S_r -> S_l`` carrying the right operand;
  - ``[S_r, NULL]``: one flow ``S_l -> S_r`` carrying the left operand;
  - ``[S_l, S_r]``: the master ships its join-attribute projection to
    the slave and receives the slave-side join back (two flows);
  - ``[S_r, S_l]``: symmetric.

Flows between a server and itself are local hand-offs, not releases, and
are skipped (they are how degenerate both-operands-on-one-server joins
stay trivially safe).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.tree import JoinNode, LeafNode, QueryTreePlan, UnaryNode
from repro.core.access import explain_denial
from repro.core.assignment import Assignment
from repro.core.authorization import Policy
from repro.core.flows import Flow, semi_join_probe_profile, semi_join_result_profile
from repro.exceptions import PlanError, UnsafeAssignmentError


def enumerate_assignment_flows(
    assignment: Assignment, recipient: Optional[str] = None
) -> List[Flow]:
    """All data flows (including local hand-offs) the assignment entails.

    Args:
        assignment: a complete assignment with node profiles.
        recipient: if given, the party the final result is delivered to;
            a closing flow ``root master -> recipient`` carrying the root
            profile is appended.

    Raises:
        PlanError: if the assignment is structurally invalid
            (Definition 4.1) or incomplete.

    The recipient-free list is derived once per finished assignment
    (:meth:`Assignment.memoized`); callers get their own list.
    """
    flows = list(assignment.memoized("flows", _derive_flows))
    if recipient is not None:
        root = assignment.plan.root
        flows.append(
            Flow(
                assignment.master(root.node_id),
                recipient,
                assignment.profile(root.node_id),
                f"result of n{root.node_id} -> recipient",
            )
        )
    return flows


def _derive_flows(assignment: Assignment) -> List[Flow]:
    assignment.validate_structure()
    flows: List[Flow] = []
    skipped = assignment.skipped_node_ids()
    for node in assignment.plan:
        if node.node_id in skipped or assignment.is_materialized(node.node_id):
            # Materialized subtrees (failover reuse) entail no flow: the
            # result already sits at its server, put there by a previous
            # execution attempt whose flows were verified and audited.
            continue
        if isinstance(node, (LeafNode, UnaryNode)):
            continue
        if not isinstance(node, JoinNode):  # pragma: no cover - closed kinds
            raise PlanError(f"unknown node kind: {type(node).__name__}")
        flows.extend(_join_flows(assignment, node))
    return flows


def _join_flows(assignment: Assignment, node: JoinNode) -> List[Flow]:
    left_master = assignment.master(node.left.node_id)
    right_master = assignment.master(node.right.node_id)
    left_profile = assignment.profile(node.left.node_id)
    right_profile = assignment.profile(node.right.node_id)
    executor = assignment.executor(node.node_id)
    where = f"join n{node.node_id}"

    coordinator = assignment.coordinator(node.node_id)
    if coordinator is not None:
        # Third-party coordinator (footnote 3): both operands are shipped
        # to a server holding neither, which computes the join.
        return [
            Flow(left_master, coordinator, left_profile, f"{where}: R_l -> coordinator"),
            Flow(right_master, coordinator, right_profile, f"{where}: R_r -> coordinator"),
        ]

    if executor.slave is None:
        # Regular join at the master; the opposite operand is shipped in.
        if executor.master == left_master:
            return [
                Flow(right_master, left_master, right_profile, f"{where}: R_r -> master")
            ]
        if executor.master == right_master:
            return [
                Flow(left_master, right_master, left_profile, f"{where}: R_l -> master")
            ]
        raise PlanError(
            f"{where}: master {executor.master} holds neither operand "
            f"({left_master}, {right_master})"
        )

    # Semi-join: identify which operand the master holds.
    if executor.master == left_master and executor.slave == right_master:
        master_operand, slave_operand = left_profile, right_profile
    elif executor.master == right_master and executor.slave == left_master:
        master_operand, slave_operand = right_profile, left_profile
    else:
        raise PlanError(
            f"{where}: executor {executor} does not match operand servers "
            f"({left_master}, {right_master})"
        )
    master_join_attrs = node.path.attributes & master_operand.attributes
    if not master_join_attrs:
        raise PlanError(f"{where}: master operand carries no join attributes")
    probe = semi_join_probe_profile(master_operand, master_join_attrs)
    shipped_back = semi_join_result_profile(
        master_operand, slave_operand, master_join_attrs, node.path
    )
    return [
        Flow(executor.master, executor.slave, probe, f"{where}: probe -> slave"),
        Flow(executor.slave, executor.master, shipped_back, f"{where}: join -> master"),
    ]


def unauthorized_flows(
    policy: Policy, assignment: Assignment, recipient: Optional[str] = None
) -> List[Flow]:
    """The subset of the assignment's release flows the policy forbids.

    Distinct flows of one assignment frequently expose the same
    ``(profile, receiver)`` pair (e.g. both directions of a semi-join
    chain at the same server), so the verdicts are memoized locally —
    this also spares an :class:`~repro.core.openpolicy.OpenPolicy`,
    which has no cache of its own, from re-deciding identical releases.
    """
    verdicts: dict = {}
    violations: List[Flow] = []
    for flow in enumerate_assignment_flows(assignment, recipient):
        if not flow.is_release:
            continue
        key = (flow.receiver, flow.profile)
        allowed = verdicts.get(key)
        if allowed is None:
            allowed = verdicts[key] = policy.can_view(flow.profile, flow.receiver)
        if not allowed:
            violations.append(flow)
    return violations


def verify_assignment(
    policy: Policy, assignment: Assignment, recipient: Optional[str] = None
) -> None:
    """Assert that an assignment is safe (Definition 4.2).

    Raises:
        UnsafeAssignmentError: listing every unauthorized flow, each with
            the per-rule explanation of :func:`explain_denial`.
        PlanError: if the assignment is structurally invalid.
    """
    violations = unauthorized_flows(policy, assignment, recipient)
    if not violations:
        return
    details = []
    for flow in violations:
        details.append(
            f"{flow.description}: {flow.sender} -> {flow.receiver} "
            f"exposing {flow.profile}\n"
            + explain_denial(policy, flow.profile, flow.receiver)
        )
    raise UnsafeAssignmentError(
        "assignment is unsafe; unauthorized flows:\n" + "\n".join(details)
    )


def is_safe(
    policy: Policy, assignment: Assignment, recipient: Optional[str] = None
) -> bool:
    """Boolean form of :func:`verify_assignment`."""
    try:
        verify_assignment(policy, assignment, recipient)
    except UnsafeAssignmentError:
        return False
    return True
