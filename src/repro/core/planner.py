"""The safe query planning algorithm (Section 5, Figure 6).

The algorithm solves Problem 4.1 — decide whether a query tree plan is
feasible under a policy and, if so, produce a safe executor assignment —
with two traversals:

* **Find_candidates** (post-order): computes every node's profile
  (Figure 4) and its candidate masters.  A leaf's only candidate is its
  storing server; a unary node inherits its child's candidates; a join
  node admits, from each child's candidate list, the servers that can
  master the join either as a semi-join (preferred — the opposite child
  must first yield a slave able to view the join-attribute projection)
  or as a regular join.  Admitted candidates carry their child's counter
  incremented by one; if no candidate survives, the plan is infeasible
  and the failing node is reported (the paper's ``exit(n)``).

* **Assign_ex** (pre-order): commits executors top-down.  At the root
  the highest-counter candidate wins; the chosen master is pushed to the
  child it came from and the recorded slave (if any) to the other child,
  recursively.

Two aspects deserve a note (both documented in DESIGN.md):

* The published pseudocode's indentation would make the regular-join
  check reachable only when a slave exists, contradicting the paper's
  own Figure 7 trace (node ``n_2``); we implement the trace-consistent
  reading: try semi-join admission first, fall back to the regular-join
  check.
* ``Assign_ex`` as published pairs any chosen master with the recorded
  slave even if that master was admitted only via the regular-join
  check, silently changing the exposed views.  Our candidates remember
  their admission mode, and only semi-admitted masters get the slave.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.algebra.tree import (
    PROJECT,
    JoinNode,
    LeafNode,
    PlanNode,
    QueryTreePlan,
    UnaryNode,
)
from repro.core.assignment import Assignment, Executor
from repro.core.authorization import Policy
from repro.core.candidates import (
    FROM_LEAF,
    FROM_LEFT,
    FROM_RIGHT,
    MODE_LEAF,
    MODE_PINNED,
    MODE_REGULAR,
    MODE_SEMI,
    MODE_UNARY,
    Candidate,
    CandidateList,
)
from repro.core.profile import RelationProfile
from repro.exceptions import InfeasiblePlanError, PlanError
from repro.obs.hooks import hooks_for


class NodeDecision:
    """Planner state recorded for one node (one Figure 7 table row)."""

    __slots__ = ("node_id", "candidates", "left_slave", "right_slave", "executor")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.candidates = CandidateList()
        self.left_slave: Optional[Candidate] = None
        self.right_slave: Optional[Candidate] = None
        self.executor: Optional[Executor] = None


class PlannerTrace:
    """Complete record of a planning run, for Figure 7 style reporting.

    Attributes:
        find_order: node ids in ``Find_candidates`` visit order.
        assign_order: ``(node_id, pushed_server)`` pairs in ``Assign_ex``
            call order (``pushed_server`` is ``None`` at the root and
            where a NULL slave was pushed).
        decisions: per-node :class:`NodeDecision` records.
    """

    def __init__(self) -> None:
        self.find_order: List[int] = []
        self.assign_order: List[Tuple[int, Optional[str]]] = []
        self.decisions: Dict[int, NodeDecision] = {}

    def decision(self, node_id: int) -> NodeDecision:
        """The decision record for a node (created on first access)."""
        if node_id not in self.decisions:
            self.decisions[node_id] = NodeDecision(node_id)
        return self.decisions[node_id]


class SafePlanner:
    """Figure 6's algorithm bound to one policy.

    Args:
        policy: the authorization policy (ideally already closed under
            the chase, see :func:`repro.core.closure.close_policy`).
        excluded_servers: servers that may not appear in any executor —
            the failover layer passes the currently-crashed servers here,
            so re-planning only considers surviving assignments.  The
            candidate space shrinks but safety checks are unchanged: a
            restricted plan is always also a plan of the full problem.
        pinned: ``node_id -> server`` for subtrees whose results already
            sit at a surviving server (completed by an earlier execution
            attempt).  A pinned node plans as a materialized source: its
            only candidate is the given server, nothing below it is
            planned, and no flow is entailed at or below it.
        obs: optional :class:`~repro.obs.trace.TraceContext`.  The
            traversals below report their phases and every join's
            candidate enumeration to one
            :class:`~repro.obs.hooks.Hooks` object; with a context that
            object renders them as spans and counters and wraps the
            CanView entry point to count calls and memo-cache
            hits/misses, without one (the default) it is the null
            listener (the ABL12 bench gates that at <5% over the
            uninstrumented algorithm).
        batch_canview: whether each join's candidate enumeration should
            warm the CanView kernel with one
            :meth:`~repro.core.authorization.Policy.can_view_batch` call
            per distinct candidate server (all six views a join consults
            answered in one kernel pass) before running the admission
            loops on memo hits.  Admitted candidates, slaves and
            assignments are **identical** either way — batching only
            changes how answers are computed (a property the Hypothesis
            differential suite asserts).  Default ``None`` resolves to
            batched when untraced and scalar when traced, because the
            warm-up changes *when* misses happen and would skew the
            ``repro_canview_*`` hit/miss counters; it also requires a
            closed :class:`Policy` (an open policy has no batch kernel and
            always probes scalar).
    """

    def __init__(
        self,
        policy: Policy,
        excluded_servers: Iterable[str] = (),
        pinned: Optional[Mapping[int, str]] = None,
        obs=None,
        batch_canview: Optional[bool] = None,
    ) -> None:
        self._policy = policy
        self._hooks = hooks_for(obs)
        # Bound once: the planner issues thousands of probes per run.
        self._can_view = self._hooks.counting_can_view(policy.can_view, policy)
        if batch_canview is None:
            batch_canview = obs is None
        self._batch_canview = batch_canview and isinstance(policy, Policy)
        self._excluded = frozenset(excluded_servers)
        self._pinned = dict(pinned or {})
        for node_id, server in self._pinned.items():
            if server in self._excluded:
                raise PlanError(
                    f"pinned node n{node_id} sits at excluded server {server!r}"
                )

    @property
    def policy(self) -> Policy:
        """The policy the planner enforces."""
        return self._policy

    @property
    def excluded_servers(self) -> frozenset:
        """Servers barred from every executor role."""
        return self._excluded

    @property
    def pinned(self) -> Dict[int, str]:
        """Materialized subtree roots: node id -> holding server."""
        return dict(self._pinned)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def plan(self, tree: QueryTreePlan) -> Tuple[Assignment, PlannerTrace]:
        """Solve Problem 4.1 for ``tree``.

        Returns:
            ``(assignment, trace)`` — a complete safe executor assignment
            and the full planning trace.

        Raises:
            InfeasiblePlanError: if some node admits no candidate; the
                error carries the failing node's id (the paper's
                ``exit(n)``).
        """
        trace = PlannerTrace()
        assignment = Assignment(tree)
        hooks = self._hooks
        hooks.plan_begin()
        planned = None
        try:
            hooks.plan_phase("find_candidates")
            self._find_candidates(tree.root, assignment, trace)
            hooks.plan_phase("assign_ex")
            self._assign_ex(tree.root, None, assignment, trace)
            planned = assignment
        finally:
            hooks.plan_end(planned)
        return assignment, trace

    def is_feasible(self, tree: QueryTreePlan) -> bool:
        """Whether a safe assignment exists (Definition 4.3)."""
        try:
            self.plan(tree)
        except InfeasiblePlanError:
            return False
        return True

    # ------------------------------------------------------------------
    # First traversal: Find_candidates (post-order)
    # ------------------------------------------------------------------

    def _find_candidates(
        self, node: PlanNode, assignment: Assignment, trace: PlannerTrace
    ) -> None:
        if node.node_id in self._pinned:
            # Materialized source: fill the subtree's profiles (parents
            # need this node's profile for their view checks) but plan
            # nothing below — the result already exists at the server.
            self._fill_profiles(node, assignment)
            trace.find_order.append(node.node_id)
            decision = trace.decision(node.node_id)
            decision.candidates.add(
                Candidate(self._pinned[node.node_id], FROM_LEAF, 0, MODE_PINNED)
            )
            return
        for child in node.children():
            self._find_candidates(child, assignment, trace)
        trace.find_order.append(node.node_id)
        decision = trace.decision(node.node_id)
        if isinstance(node, LeafNode):
            self._visit_leaf(node, assignment, decision)
        elif isinstance(node, UnaryNode):
            self._visit_unary(node, assignment, trace, decision)
        elif isinstance(node, JoinNode):
            hooks = self._hooks
            hooks.enumerate_begin(node)
            enumerated = None
            try:
                self._visit_join(node, assignment, trace, decision)
                enumerated = trace
            finally:
                hooks.enumerate_end(node, enumerated)
        else:  # pragma: no cover - node kinds are closed
            raise PlanError(f"unknown node kind: {type(node).__name__}")
        if decision.candidates.is_empty():
            raise self._infeasible(node)

    def _infeasible(self, node: PlanNode) -> InfeasiblePlanError:
        suffix = (
            f" (excluded servers: {sorted(self._excluded)})"
            if self._excluded
            else ""
        )
        return InfeasiblePlanError(
            f"no safe assignment exists: node n{node.node_id} "
            f"({node.label()}) admits no candidate executor{suffix}",
            node_id=node.node_id,
        )

    def _fill_profiles(self, node: PlanNode, assignment: Assignment) -> None:
        """Post-order profile computation without candidate search."""
        for child in node.children():
            self._fill_profiles(child, assignment)
        assignment.set_profile(node.node_id, self._node_profile(node, assignment))

    def _node_profile(
        self, node: PlanNode, assignment: Assignment
    ) -> RelationProfile:
        """The Figure 4 profile of one node, children already profiled."""
        if isinstance(node, LeafNode):
            return RelationProfile.of_base_relation(node.relation)
        if isinstance(node, UnaryNode):
            child_profile = assignment.profile(node.left.node_id)
            if node.operator == PROJECT:
                return child_profile.project(node.projection_attributes)
            return child_profile.select(node.predicate.attributes)
        if isinstance(node, JoinNode):
            return assignment.profile(node.left.node_id).join(
                assignment.profile(node.right.node_id), node.path
            )
        raise PlanError(f"unknown node kind: {type(node).__name__}")

    def _visit_leaf(
        self, node: LeafNode, assignment: Assignment, decision: NodeDecision
    ) -> None:
        if node.server is None:
            raise PlanError(
                f"base relation {node.relation.name!r} is not placed at any server"
            )
        assignment.set_profile(node.node_id, RelationProfile.of_base_relation(node.relation))
        if node.server in self._excluded:
            return
        decision.candidates.add(Candidate(node.server, FROM_LEAF, 0, MODE_LEAF))

    def _visit_unary(
        self,
        node: UnaryNode,
        assignment: Assignment,
        trace: PlannerTrace,
        decision: NodeDecision,
    ) -> None:
        child = node.left
        child_profile = assignment.profile(child.node_id)
        if node.operator == PROJECT:
            profile = child_profile.project(node.projection_attributes)
        else:
            profile = child_profile.select(node.predicate.attributes)
        assignment.set_profile(node.node_id, profile)
        for candidate in trace.decision(child.node_id).candidates:
            decision.candidates.add(
                candidate.propagated(FROM_LEFT, candidate.count, MODE_UNARY)
            )

    def _visit_join(
        self,
        node: JoinNode,
        assignment: Assignment,
        trace: PlannerTrace,
        decision: NodeDecision,
    ) -> None:
        left, right = node.left, node.right
        left_profile = assignment.profile(left.node_id)
        right_profile = assignment.profile(right.node_id)
        profile = left_profile.join(right_profile, node.path)
        assignment.set_profile(node.node_id, profile)

        j_left = node.path.attributes & left_profile.attributes
        j_right = node.path.attributes & right_profile.attributes

        # Views exposed by each Figure 5 mode (see repro.core.flows).
        right_slave_view = left_profile.project(j_left)
        left_slave_view = right_profile.project(j_right)
        right_master_view = right_profile.project(j_right).join(left_profile, node.path)
        left_master_view = left_profile.project(j_left).join(right_profile, node.path)
        right_full_view = left_profile
        left_full_view = right_profile

        left_candidates = trace.decision(left.node_id).candidates
        right_candidates = trace.decision(right.node_id).candidates

        if self._batch_canview:
            # Warm the CanView kernel: one batched call per distinct
            # candidate server answers all six views this join consults
            # (both slave projections, both semi-join master views, both
            # full operand profiles), so the admission loops below run
            # entirely on memo hits.  Extra answers are only ever
            # warm-up — the loops' logic and outcomes are unchanged.
            views = [
                left_slave_view,
                right_slave_view,
                right_master_view,
                left_master_view,
                right_full_view,
                left_full_view,
            ]
            excluded = self._excluded
            can_view_batch = self._policy.can_view_batch
            warmed = set()
            for candidates in (left_candidates, right_candidates):
                for server in candidates.distinct_servers():
                    if server not in excluded and server not in warmed:
                        warmed.add(server)
                        can_view_batch(views, server)

        # --- cases [S_r, NULL] and [S_r, S_l]: masters from the right ---
        decision.left_slave = self._first_slave(left_candidates, left_slave_view)
        for candidate in right_candidates.in_count_order():
            self._admit_master(
                decision,
                candidate,
                FROM_RIGHT,
                slave_found=decision.left_slave is not None,
                master_view=right_master_view,
                full_view=right_full_view,
            )

        # --- cases [S_l, NULL] and [S_l, S_r]: masters from the left ---
        decision.right_slave = self._first_slave(right_candidates, right_slave_view)
        for candidate in left_candidates.in_count_order():
            self._admit_master(
                decision,
                candidate,
                FROM_LEFT,
                slave_found=decision.right_slave is not None,
                master_view=left_master_view,
                full_view=left_full_view,
            )

    def _first_slave(
        self, candidates: CandidateList, slave_view: RelationProfile
    ) -> Optional[Candidate]:
        """First candidate (by decreasing counter) able to act as slave —
        one slave is enough, slaves are not propagated upwards."""
        for candidate in candidates.in_count_order():
            if candidate.server in self._excluded:
                continue
            if self._can_view(slave_view, candidate.server):
                return candidate
        return None

    def _admit_master(
        self,
        decision: NodeDecision,
        candidate: Candidate,
        from_child: str,
        slave_found: bool,
        master_view: RelationProfile,
        full_view: RelationProfile,
    ) -> None:
        """Admit one child candidate as a join master, if authorized.

        Semi-join admission is attempted first (the paper favours
        semi-joins); the regular-join check is the fallback.
        """
        if candidate.server in self._excluded:
            return
        if slave_found and self._can_view(master_view, candidate.server):
            mode = MODE_SEMI
        elif self._can_view(full_view, candidate.server):
            mode = MODE_REGULAR
        else:
            return
        decision.candidates.add(
            candidate.propagated(from_child, candidate.count + 1, mode)
        )

    # ------------------------------------------------------------------
    # Second traversal: Assign_ex (pre-order)
    # ------------------------------------------------------------------

    def _assign_ex(
        self,
        node: PlanNode,
        from_parent: Optional[str],
        assignment: Assignment,
        trace: PlannerTrace,
    ) -> None:
        trace.assign_order.append((node.node_id, from_parent))
        decision = trace.decision(node.node_id)
        if from_parent is not None:
            chosen = decision.candidates.search(from_parent)
            if chosen is None:
                raise PlanError(
                    f"server {from_parent!r} pushed down to node n{node.node_id} "
                    "is not among its candidates (planner invariant violated)"
                )
        else:
            chosen = decision.candidates.get_first()
            if chosen is None:  # pragma: no cover - Find_candidates guarantees one
                raise PlanError(f"node n{node.node_id} has no candidates")

        if chosen.mode == MODE_PINNED:
            # Materialized source: the result already sits at the server;
            # nothing below is assigned and no flow happens here.
            executor = Executor(chosen.server, None)
            decision.executor = executor
            assignment.set_executor(node.node_id, executor)
            assignment.set_materialized(node.node_id, chosen.server)
            return

        slave_candidate: Optional[Candidate] = None
        if isinstance(node, JoinNode) and chosen.mode == MODE_SEMI:
            slave_candidate = (
                decision.right_slave if chosen.from_child == FROM_LEFT else decision.left_slave
            )
        # What gets pushed down the slave-side child: the slave server (so
        # that the child's result materializes where the semi-join expects
        # it), or NULL for regular joins.
        push_to_slave_side = slave_candidate.server if slave_candidate is not None else None
        slave_server = push_to_slave_side
        if slave_server == chosen.server:
            # Degenerate semi-join: the same server is both master and
            # slave, so it holds both operands and every flow is local.
            # The executor records a plain local join, but the chosen
            # server is still pushed down both children so the operands
            # really do materialize there.
            slave_server = None
        executor = Executor(chosen.server, slave_server)
        decision.executor = executor
        assignment.set_executor(node.node_id, executor)

        if isinstance(node, JoinNode):
            if chosen.from_child == FROM_LEFT:
                self._assign_ex(node.left, executor.master, assignment, trace)
                self._assign_ex(node.right, push_to_slave_side, assignment, trace)
            else:
                self._assign_ex(node.left, push_to_slave_side, assignment, trace)
                self._assign_ex(node.right, executor.master, assignment, trace)
        elif isinstance(node, UnaryNode):
            self._assign_ex(node.left, executor.master, assignment, trace)


def plan_safely(policy: Policy, tree: QueryTreePlan) -> Assignment:
    """Convenience wrapper: plan ``tree`` under ``policy``, return only
    the assignment.

    Raises:
        InfeasiblePlanError: when the plan is not feasible.
    """
    assignment, _ = SafePlanner(policy).plan(tree)
    return assignment
