"""Query tree plans.

A query tree plan (Section 2) is a binary tree whose leaves are base
relations and whose internal nodes are relational operators; the root
produces the query result.  The planner of :mod:`repro.core.planner`
walks such trees in post-order (``Find_candidates``) and pre-order
(``Assign_ex``), so nodes expose the paper's ``n.left`` / ``n.right``
accessors: a unary node's single operand is its *left* child.

Plan nodes are immutable; all mutable planner state (profiles,
candidates, executors) lives outside the tree, keyed by the stable
``node_id`` assigned by :class:`QueryTreePlan` in post-order —
matching the numbering convention of the paper's Figure 7 trace is the
job of :meth:`QueryTreePlan.node`/`nodes`, not of the ids themselves.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.algebra.attributes import AttributeSet, format_attribute_set
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Predicate
from repro.algebra.schema import RelationSchema
from repro.exceptions import PlanError

#: Operator tags used by :class:`UnaryNode`.
PROJECT = "project"
SELECT = "select"


class PlanNode:
    """Abstract base class of query-tree-plan nodes."""

    __slots__ = ("_node_id",)

    def __init__(self) -> None:
        self._node_id: Optional[int] = None

    @property
    def node_id(self) -> int:
        """Stable id assigned by the owning :class:`QueryTreePlan`.

        Raises:
            PlanError: if the node is not part of a plan yet.
        """
        if self._node_id is None:
            raise PlanError("node does not belong to a QueryTreePlan yet")
        return self._node_id

    @property
    def left(self) -> Optional["PlanNode"]:
        """Left child (the only child, for unary nodes)."""
        return None

    @property
    def right(self) -> Optional["PlanNode"]:
        """Right child (``None`` for unary and leaf nodes)."""
        return None

    @property
    def is_leaf(self) -> bool:
        """Whether the node is a base-relation leaf."""
        return False

    @property
    def schema(self) -> AttributeSet:
        """Attributes carried by the node's output."""
        raise NotImplementedError

    def children(self) -> List["PlanNode"]:
        """Existing children, left first."""
        result = []
        if self.left is not None:
            result.append(self.left)
        if self.right is not None:
            result.append(self.right)
        return result

    def label(self) -> str:
        """Short operator label for rendering."""
        raise NotImplementedError


class LeafNode(PlanNode):
    """A leaf: direct access to a stored base relation."""

    __slots__ = ("_relation",)

    def __init__(self, relation: RelationSchema) -> None:
        super().__init__()
        if not isinstance(relation, RelationSchema):
            raise PlanError("LeafNode requires a RelationSchema")
        self._relation = relation

    @property
    def relation(self) -> RelationSchema:
        """The accessed base relation."""
        return self._relation

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def schema(self) -> AttributeSet:
        return self._relation.attribute_set

    @property
    def server(self) -> Optional[str]:
        """Server storing the relation (Definition 4.1 requires one)."""
        return self._relation.server

    def label(self) -> str:
        return self._relation.name


class UnaryNode(PlanNode):
    """A unary operator node: projection or selection.

    Args:
        operator: :data:`PROJECT` or :data:`SELECT`.
        parameter: the retained :class:`AttributeSet` for projections, the
            :class:`Predicate` for selections.
        child: operand subtree.
    """

    __slots__ = ("_operator", "_parameter", "_child")

    def __init__(
        self,
        operator: str,
        parameter: Union[AttributeSet, Predicate],
        child: PlanNode,
    ) -> None:
        super().__init__()
        if operator not in (PROJECT, SELECT):
            raise PlanError(f"unknown unary operator: {operator!r}")
        if not isinstance(child, PlanNode):
            raise PlanError("UnaryNode child must be a PlanNode")
        if operator == PROJECT:
            parameter = frozenset(parameter)  # type: ignore[arg-type]
            if not parameter:
                raise PlanError("projection must keep at least one attribute")
            missing = parameter - child.schema
            if missing:
                raise PlanError(
                    f"projection keeps attributes absent from child schema: {sorted(missing)}"
                )
        else:
            if not isinstance(parameter, Predicate):
                raise PlanError("selection parameter must be a Predicate")
            missing = parameter.attributes - child.schema
            if missing:
                raise PlanError(
                    f"selection references attributes absent from child schema: {sorted(missing)}"
                )
        self._operator = operator
        self._parameter = parameter
        self._child = child

    @property
    def operator(self) -> str:
        """Operator tag (:data:`PROJECT` or :data:`SELECT`)."""
        return self._operator

    @property
    def parameter(self) -> Union[AttributeSet, Predicate]:
        """Operator parameter (attribute set or predicate)."""
        return self._parameter

    @property
    def left(self) -> Optional[PlanNode]:
        return self._child

    @property
    def schema(self) -> AttributeSet:
        if self._operator == PROJECT:
            return self._parameter  # type: ignore[return-value]
        return self._child.schema

    @property
    def projection_attributes(self) -> AttributeSet:
        """The retained attributes; only valid for projections."""
        if self._operator != PROJECT:
            raise PlanError("projection_attributes on a non-projection node")
        return self._parameter  # type: ignore[return-value]

    @property
    def predicate(self) -> Predicate:
        """The selection predicate; only valid for selections."""
        if self._operator != SELECT:
            raise PlanError("predicate on a non-selection node")
        return self._parameter  # type: ignore[return-value]

    def label(self) -> str:
        if self._operator == PROJECT:
            return f"π{format_attribute_set(self.projection_attributes)}"
        return f"σ[{self.predicate}]"


class JoinNode(PlanNode):
    """An equi-join node with its own conditions ``j`` (a join path)."""

    __slots__ = ("_left", "_right", "_path")

    def __init__(self, left: PlanNode, right: PlanNode, path: JoinPath) -> None:
        super().__init__()
        if not isinstance(left, PlanNode) or not isinstance(right, PlanNode):
            raise PlanError("JoinNode operands must be PlanNodes")
        if not isinstance(path, JoinPath) or path.is_empty():
            raise PlanError("JoinNode requires a non-empty JoinPath")
        overlap = left.schema & right.schema
        if overlap:
            raise PlanError(
                f"join operands share attributes {sorted(overlap)}; attribute "
                "names must be globally distinct"
            )
        for condition in path:
            in_left = condition.first in left.schema or condition.second in left.schema
            in_right = condition.first in right.schema or condition.second in right.schema
            if not (in_left and in_right):
                raise PlanError(f"join condition {condition} does not bridge the operands")
        self._left = left
        self._right = right
        self._path = path

    @property
    def left(self) -> Optional[PlanNode]:
        return self._left

    @property
    def right(self) -> Optional[PlanNode]:
        return self._right

    @property
    def path(self) -> JoinPath:
        """The join's own conditions ``j``."""
        return self._path

    @property
    def schema(self) -> AttributeSet:
        return self._left.schema | self._right.schema

    def left_join_attributes(self) -> AttributeSet:
        """:math:`J_l` — condition attributes owned by the left operand."""
        return self._path.attributes & self._left.schema

    def right_join_attributes(self) -> AttributeSet:
        """:math:`J_r` — condition attributes owned by the right operand."""
        return self._path.attributes & self._right.schema

    def label(self) -> str:
        return f"⋈{self._path}"


class QueryTreePlan:
    """An immutable query tree plan with post-order node ids.

    Node ids are assigned 0..n-1 in post-order (children before parent),
    so the root always has the largest id.  Post-order matches the visit
    order of the paper's ``Find_candidates``.
    """

    def __init__(self, root: PlanNode) -> None:
        if not isinstance(root, PlanNode):
            raise PlanError("plan root must be a PlanNode")
        self._root = root
        self._nodes: List[PlanNode] = []
        self._parents: Dict[int, Optional[int]] = {}
        self._assign_ids(root, set())
        self._record_parents(root, None)

    def _assign_ids(self, node: PlanNode, seen: set) -> None:
        if id(node) in seen:
            # The same node object appearing twice would make the tree a DAG.
            raise PlanError("plan nodes must form a tree; shared subtree detected")
        seen.add(id(node))
        for child in node.children():
            self._assign_ids(child, seen)
        node._node_id = len(self._nodes)
        self._nodes.append(node)

    def _record_parents(self, node: PlanNode, parent: Optional[PlanNode]) -> None:
        self._parents[node.node_id] = parent.node_id if parent is not None else None
        for child in node.children():
            self._record_parents(child, node)

    def with_selections(self, where: Predicate) -> "QueryTreePlan":
        """This plan for the same query under other WHERE constants:
        every selection keeps its place and tests, in ``where``'s order,
        the atoms of ``where`` over the attribute sets its own atoms read
        (where the plan builder puts them).

        Nodes carry no parent pointer, so subtrees without a selection
        are shared with this plan; a selection and its ancestors are new
        nodes (validated by their constructors) under the ids of the
        ones they replace, and the parent table carries over.

        Raises:
            PlanError: if an atom of ``where`` belongs to no selection.
        """
        atoms = where.comparisons
        nodes = list(self._nodes)
        placed = 0
        for node_id, node in enumerate(nodes):  # post-order: operands first
            if isinstance(node, LeafNode):
                continue
            if isinstance(node, JoinNode):
                left, right = nodes[node._left._node_id], nodes[node._right._node_id]
                if left is node._left and right is node._right:
                    continue
                twin: PlanNode = JoinNode(left, right, node._path)
            else:
                child = nodes[node._child._node_id]
                parameter = node._parameter
                if node._operator == SELECT:
                    reads = {atom.attributes for atom in parameter.comparisons}
                    parameter = Predicate(a for a in atoms if a.attributes in reads)
                    placed += len(parameter)
                elif child is node._child:
                    continue
                twin = UnaryNode(node._operator, parameter, child)
            twin._node_id = node_id
            nodes[node_id] = twin
        if placed != len(atoms):
            raise PlanError(
                f"{len(atoms) - placed} of {len(atoms)} WHERE atoms belong to "
                "no selection of the plan"
            )
        plan = QueryTreePlan.__new__(QueryTreePlan)
        plan._root = nodes[-1]
        plan._nodes = nodes
        plan._parents = self._parents
        return plan

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> PlanNode:
        """The root node (last operation of the query)."""
        return self._root

    def node(self, node_id: int) -> PlanNode:
        """Node by post-order id."""
        try:
            return self._nodes[node_id]
        except IndexError:
            raise PlanError(f"no node with id {node_id}") from None

    def nodes(self) -> Tuple[PlanNode, ...]:
        """All nodes in post-order."""
        return tuple(self._nodes)

    def parent_id(self, node_id: int) -> Optional[int]:
        """Id of the parent node, or ``None`` for the root."""
        return self._parents[node_id]

    def leaves(self) -> List[LeafNode]:
        """All leaf nodes in post-order."""
        return [n for n in self._nodes if isinstance(n, LeafNode)]

    def joins(self) -> List[JoinNode]:
        """All join nodes in post-order."""
        return [n for n in self._nodes if isinstance(n, JoinNode)]

    def base_relations(self) -> List[RelationSchema]:
        """Base relations at the leaves, in post-order."""
        return [leaf.relation for leaf in self.leaves()]

    def servers(self) -> List[str]:
        """Distinct servers storing the plan's base relations, sorted."""
        return sorted({leaf.relation.server for leaf in self.leaves() if leaf.relation.server})

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self._nodes)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def post_order(self) -> Iterator[PlanNode]:
        """Nodes in post-order (the ``Find_candidates`` visit order)."""
        return iter(self._nodes)

    def pre_order(self) -> Iterator[PlanNode]:
        """Nodes in pre-order (the ``Assign_ex`` visit order)."""

        def walk(node: PlanNode) -> Iterator[PlanNode]:
            yield node
            for child in node.children():
                yield from walk(child)

        return walk(self._root)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering of the tree, one node per line.

        The root comes first; children are indented below their parent,
        annotated with their node id.  Useful in examples and failure
        messages.
        """
        lines: List[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            lines.append(f"{'  ' * depth}[n{node.node_id}] {node.label()}")
            for child in node.children():
                walk(child, depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)
