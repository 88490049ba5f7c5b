"""Executor assignments (Definitions 4.1-4.3).

An *executor assignment* maps every node of a query tree plan to a pair
``[master, slave]``:

1. leaves get ``[storing server, NULL]``;
2. unary nodes get ``[S_l, NULL]`` where ``S_l`` is the server holding
   the operand (the child's master);
3. join nodes get ``[master, slave]`` with the master drawn from the two
   operand servers, the slave from the other operand's server or
   ``NULL``, and ``master != slave``.

An assignment is *safe* when every data flow it entails (Figure 5) is an
authorized release; a plan is *feasible* when a safe assignment exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.algebra.tree import JoinNode, LeafNode, PlanNode, QueryTreePlan, UnaryNode
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError


class Executor:
    """The ``[master, slave]`` pair assigned to one node."""

    __slots__ = ("master", "slave")

    def __init__(self, master: str, slave: Optional[str] = None) -> None:
        if not master:
            raise PlanError("executor master must be a server name")
        if slave is not None and slave == master:
            raise PlanError("executor master and slave must differ (Definition 4.1)")
        self.master = master
        self.slave = slave

    @property
    def is_semi_join(self) -> bool:
        """Whether the executor denotes a semi-join (slave present)."""
        return self.slave is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Executor):
            return NotImplemented
        return self.master == other.master and self.slave == other.slave

    def __hash__(self) -> int:
        return hash((self.master, self.slave))

    def __repr__(self) -> str:
        slave = self.slave if self.slave is not None else "NULL"
        return f"[{self.master}, {slave}]"

    __str__ = __repr__


class Assignment:
    """A complete executor assignment for a plan, plus node profiles.

    Produced by the safe planner (or the exhaustive baseline); consumed
    by the safety verifier, the cost model and the execution engine.

    What is a pure function of a finished assignment — the Definition
    4.1 structure check and the Figure 5 flow list — is memoized on it;
    every ``set_*`` clears the memo, so mutate only through them.
    """

    def __init__(self, plan: QueryTreePlan) -> None:
        self._plan = plan
        self._executors: Dict[int, Executor] = {}
        self._profiles: Dict[int, RelationProfile] = {}
        self._coordinators: Dict[int, str] = {}
        self._materialized: Dict[int, str] = {}
        self._memo: Dict[str, object] = {}

    @property
    def plan(self) -> QueryTreePlan:
        """The plan being assigned."""
        return self._plan

    def memoized(self, key: str, derive: Callable[["Assignment"], object]):
        """``derive(self)``, computed once per finished assignment and
        kept until the next ``set_*`` (the Definition 4.1 check here,
        the Figure 5 flow list of :mod:`repro.core.safety`)."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = derive(self)
            return value

    def rebound(self, plan: QueryTreePlan) -> "Assignment":
        """This assignment over ``plan``, a tree that matches its own
        node for node in everything a profile reads — kinds, relations,
        projection sets, join paths, the *attribute sets* of selections
        — so that only selection constants can differ.  Executors,
        coordinators, profiles, marks and the memo carry over by node id.

        Raises:
            PlanError: if any node differs; never a silent fallback.
        """
        mine, theirs = self._plan.nodes(), plan.nodes()
        differing = [
            other.node_id for ours, other in zip(mine, theirs)
            if _reads(ours) != _reads(other)
        ]
        if differing or len(mine) != len(theirs):
            raise PlanError(
                f"cannot rebind {len(mine)} assigned nodes to a plan of "
                f"{len(theirs)}: nodes {differing} differ"
            )
        twin = Assignment(plan)
        for name in ("_executors", "_profiles", "_coordinators", "_materialized", "_memo"):
            setattr(twin, name, dict(getattr(self, name)))
        return twin

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------

    def set_executor(self, node_id: int, executor: Executor) -> None:
        """Record the executor of one node (planner-internal)."""
        self._plan.node(node_id)  # validates the id
        self._executors[node_id] = executor
        self._memo.clear()

    def executor(self, node_id: int) -> Executor:
        """Executor of a node.

        Raises:
            PlanError: if the node has no executor (incomplete assignment).
        """
        try:
            return self._executors[node_id]
        except KeyError:
            raise PlanError(f"node {node_id} has no executor assigned") from None

    def master(self, node_id: int) -> str:
        """Master server of a node — who holds the node's result."""
        return self.executor(node_id).master

    def is_complete(self) -> bool:
        """Whether every *live* node of the plan has an executor.

        Nodes strictly below a materialized subtree root never execute
        (their result already exists), so they need no executor.
        """
        skipped = self.skipped_node_ids()
        return all(
            node.node_id in self._executors
            for node in self._plan
            if node.node_id not in skipped
        )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------

    def set_profile(self, node_id: int, profile: RelationProfile) -> None:
        """Record the profile of one node's output (planner-internal)."""
        self._plan.node(node_id)
        self._profiles[node_id] = profile
        self._memo.clear()

    def profile(self, node_id: int) -> RelationProfile:
        """Profile of a node's output relation.

        Raises:
            PlanError: if the profile was never computed.
        """
        try:
            return self._profiles[node_id]
        except KeyError:
            raise PlanError(f"node {node_id} has no profile computed") from None

    # ------------------------------------------------------------------
    # Third-party coordinators (footnote 3 extension)
    # ------------------------------------------------------------------

    def set_coordinator(self, node_id: int, server: str) -> None:
        """Mark a join as executed by a third-party coordinator.

        The coordinator is a server holding neither operand: both operand
        results are shipped to it and it computes the join (the paper's
        footnote 3).  The node's executor must name the coordinator as
        master with no slave.
        """
        node = self._plan.node(node_id)
        if not isinstance(node, JoinNode):
            raise PlanError(f"node n{node_id} is not a join; coordinators apply to joins")
        self._coordinators[node_id] = server
        self._memo.clear()

    def coordinator(self, node_id: int) -> Optional[str]:
        """The third-party coordinator of a join, or ``None``."""
        return self._coordinators.get(node_id)

    def uses_third_party(self) -> bool:
        """Whether any node is executed by a third-party coordinator."""
        return bool(self._coordinators)

    # ------------------------------------------------------------------
    # Materialized subtrees (failover reuse)
    # ------------------------------------------------------------------

    def set_materialized(self, node_id: int, server: str) -> None:
        """Mark a node's result as already available at ``server``.

        Used by failover re-planning: a subtree completed by an earlier
        execution attempt need not re-execute — its result sits at the
        recorded server, no flow happens at or below the node, and the
        node's executor must be ``[server, NULL]``.
        """
        self._plan.node(node_id)
        self._materialized[node_id] = server
        self._memo.clear()

    def materialized_server(self, node_id: int) -> Optional[str]:
        """Where a materialized node's result sits, or ``None``."""
        return self._materialized.get(node_id)

    def is_materialized(self, node_id: int) -> bool:
        """Whether the node's result is reused rather than computed."""
        return node_id in self._materialized

    def materialized_nodes(self) -> Tuple[int, ...]:
        """Materialized node ids, sorted."""
        return tuple(sorted(self._materialized))

    def servers_used(self) -> Tuple[str, ...]:
        """Every server the assignment involves, sorted.

        Masters and slaves of live nodes, coordinators, and the holders
        of materialized subtree results; nodes below a materialized root
        contribute nothing (they never execute).
        """
        skipped = self.skipped_node_ids()
        names = set()
        for node in self._plan:
            node_id = node.node_id
            if node_id in skipped:
                continue
            if node_id in self._materialized:
                names.add(self._materialized[node_id])
                continue
            executor = self._executors.get(node_id)
            if executor is not None:
                names.add(executor.master)
                if executor.slave is not None:
                    names.add(executor.slave)
            coordinator = self._coordinators.get(node_id)
            if coordinator is not None:
                names.add(coordinator)
        return tuple(sorted(names))

    def skipped_node_ids(self) -> frozenset:
        """Ids of nodes strictly below a materialized root.

        These nodes are never executed, carry no executor, and entail
        no flow — their work happened in a previous execution attempt.
        """
        if not self._materialized:
            return frozenset()
        skipped = set()

        def collect(node: PlanNode) -> None:
            for child in node.children():
                skipped.add(child.node_id)
                collect(child)

        for node_id in self._materialized:
            collect(self._plan.node(node_id))
        return frozenset(skipped)

    # ------------------------------------------------------------------
    # Structural validation (Definition 4.1)
    # ------------------------------------------------------------------

    def validate_structure(self) -> None:
        """Check the three structural clauses of Definition 4.1.

        Raises:
            PlanError: on any violation or on an incomplete assignment.
        """
        self.memoized("structure", Assignment._check_structure)

    def _check_structure(self) -> None:
        skipped = self.skipped_node_ids()
        if not self.is_complete():
            missing = [
                n.node_id
                for n in self._plan
                if n.node_id not in self._executors and n.node_id not in skipped
            ]
            raise PlanError(f"assignment is incomplete; unassigned nodes: {missing}")
        for node in self._plan:
            if node.node_id in skipped:
                continue
            executor = self._executors[node.node_id]
            if node.node_id in self._materialized:
                server = self._materialized[node.node_id]
                if executor.master != server or executor.slave is not None:
                    raise PlanError(
                        f"materialized node n{node.node_id} must be assigned "
                        f"[{server}, NULL], got {executor}"
                    )
                continue
            if isinstance(node, LeafNode):
                if node.server is None:
                    raise PlanError(f"leaf {node.label()} has no storing server")
                if executor.master != node.server or executor.slave is not None:
                    raise PlanError(
                        f"leaf {node.label()} must be assigned [{node.server}, NULL], "
                        f"got {executor}"
                    )
            elif isinstance(node, UnaryNode):
                child_master = self.master(node.left.node_id)  # type: ignore[union-attr]
                if executor.master != child_master or executor.slave is not None:
                    raise PlanError(
                        f"unary node n{node.node_id} must run at its operand's "
                        f"server [{child_master}, NULL], got {executor}"
                    )
            elif isinstance(node, JoinNode):
                left_master = self.master(node.left.node_id)  # type: ignore[union-attr]
                right_master = self.master(node.right.node_id)  # type: ignore[union-attr]
                operands = {left_master, right_master}
                coordinator = self._coordinators.get(node.node_id)
                if coordinator is not None:
                    if executor.master != coordinator or executor.slave is not None:
                        raise PlanError(
                            f"join n{node.node_id} with coordinator {coordinator} "
                            f"must be assigned [{coordinator}, NULL], got {executor}"
                        )
                    if coordinator in operands:
                        raise PlanError(
                            f"join n{node.node_id}: coordinator {coordinator} holds "
                            "an operand; use a plain executor instead"
                        )
                    continue
                if executor.master not in operands:
                    raise PlanError(
                        f"join n{node.node_id} master {executor.master} is neither "
                        f"operand server ({sorted(operands)})"
                    )
                if executor.slave is not None and executor.slave not in operands:
                    raise PlanError(
                        f"join n{node.node_id} slave {executor.slave} is neither "
                        f"operand server ({sorted(operands)})"
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[PlanNode, Executor]]:
        """(node, executor) pairs in post-order (skipping the unexecuted
        interiors of materialized subtrees)."""
        skipped = self.skipped_node_ids()
        for node in self._plan:
            if node.node_id in skipped:
                continue
            yield node, self.executor(node.node_id)

    def result_server(self) -> str:
        """Server holding the final query result (root master)."""
        return self.master(self._plan.root.node_id)

    def describe(self) -> str:
        """One line per node: ``n<id> <label>: [master, slave]``."""
        lines = []
        for node, executor in self.items():
            lines.append(f"n{node.node_id} {node.label()}: {executor}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Assignment({len(self._executors)}/{len(self._plan)} nodes)"


def _reads(node: PlanNode) -> tuple:
    """What a profile reads of one node: everything but a selection's
    constants.  (Node ids are post-order, so equal kinds at every id
    mean equal tree structure.)"""
    if isinstance(node, LeafNode):
        return LeafNode, node.relation
    if isinstance(node, JoinNode):
        return JoinNode, node.path
    parameter = node.parameter  # a projection's attribute set, or a predicate
    return node.operator, getattr(parameter, "attributes", parameter)
