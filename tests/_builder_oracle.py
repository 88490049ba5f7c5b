"""The frozen tree builders the one shape builder replaced.

``build_plan`` (left-deep, with its ``project_intermediate`` option),
``build_shaped_plan`` (an explicit join shape) and ``bind_plan`` (a
parenthesized FROM clause bound straight to a tree), with their helpers,
are the earlier ``repro.algebra.builder`` / ``repro.sql.binder`` code
kept verbatim as the differential-testing oracle for
:func:`repro.algebra.builder.build_plan`, and ``fingerprint_tree`` (the
structural identity the plan cache once keyed explicitly shaped plans
on) as the trees' comparison key.  If the one builder and these ever
build different trees for one query, the one builder is wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.algebra.attributes import AttributeSet
from repro.algebra.builder import QuerySpec
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import Catalog
from repro.algebra.tree import (
    PROJECT,
    SELECT,
    JoinNode,
    LeafNode,
    PlanNode,
    QueryTreePlan,
    UnaryNode,
)
from repro.exceptions import BindingError, PlanError, UnknownAttributeError
from repro.sql.ast import RawCondition, SelectQuery


def build_plan(
    catalog: Catalog,
    spec: QuerySpec,
    project_intermediate: bool = False,
) -> QueryTreePlan:
    """Build a minimized left-deep query tree plan from a bound spec.

    The construction proceeds in FROM order:

    1. validate every referenced name against the catalog;
    2. at each leaf, apply single-relation WHERE atoms as a selection,
       then project to the attributes needed above the leaf (SELECT
       attributes plus join attributes of *any* step plus attributes of
       cross-relation WHERE atoms);
    3. join left-deep following ``spec.join_paths``, attaching every
       cross-relation WHERE atom at the lowest join covering it;
    4. optionally project after each join to drop dead attributes
       (``project_intermediate=True``), and finally project to the SELECT
       attributes at the root.

    Raises:
        PlanError: on structurally invalid specs (bad join steps, SELECT
            attributes not produced by the FROM clause).
        UnknownAttributeError / UnknownRelationError: on unresolved names.
    """
    # Activate the catalog's representation kernel: from here on every
    # schema's attribute set is the interned bitset form, so the profiles
    # the planner derives from this plan carry masks throughout.
    catalog.universe
    schemas = [catalog.relation(name) for name in spec.relations]
    available: set = set()
    for schema in schemas:
        available.update(schema.attribute_set)
    _check_known(spec.select, available, "SELECT clause")
    _check_known(spec.where.attributes, available, "WHERE clause")
    for path in spec.join_paths:
        _check_known(path.attributes, available, "JOIN conditions")

    # Attributes that must survive past the leaves.
    join_attributes: set = set()
    for path in spec.join_paths:
        join_attributes.update(path.attributes)
    single, cross = _split_where(spec, schemas)
    needed_above_leaves = set(spec.select) | join_attributes | cross.attributes

    # Build (possibly selected and projected) leaves.
    nodes: List[PlanNode] = []
    for schema in schemas:
        node: PlanNode = LeafNode(schema)
        leaf_predicate = single.get(schema.name)
        if leaf_predicate is not None and not leaf_predicate.is_true():
            node = UnaryNode(SELECT, leaf_predicate, node)
        keep = frozenset(needed_above_leaves & schema.attribute_set)
        if keep and keep != schema.attribute_set:
            node = UnaryNode(PROJECT, keep, node)
        nodes.append(node)

    # Left-deep joins, attaching cross-relation WHERE atoms as soon as
    # their attributes are all available.
    current = nodes[0]
    pending = list(cross.comparisons)
    for index, path in enumerate(spec.join_paths):
        right = nodes[index + 1]
        _validate_join_step(path, current.schema, right.schema, index)
        current = JoinNode(current, right, path)
        if pending:
            ready = [c for c in pending if c.attributes <= current.schema]
            if ready:
                current = UnaryNode(SELECT, Predicate(ready), current)
                pending = [c for c in pending if c not in ready]
        if project_intermediate and index < len(spec.join_paths) - 1:
            still_needed = set(spec.select) | Predicate(pending).attributes
            for later in spec.join_paths[index + 1 :]:
                still_needed.update(later.attributes)
            keep = frozenset(still_needed & current.schema)
            if keep and keep != current.schema:
                current = UnaryNode(PROJECT, keep, current)
    if pending:
        raise PlanError(
            f"WHERE atoms never became applicable: {[str(c) for c in pending]}"
        )

    missing = spec.select - current.schema
    if missing:
        raise PlanError(f"SELECT attributes not produced by FROM clause: {sorted(missing)}")
    if spec.select != current.schema:
        current = UnaryNode(PROJECT, spec.select, current)
    return QueryTreePlan(current)


#: A join shape: a relation name, or ``(left_shape, right_shape, JoinPath)``.
#: Shapes let callers (notably the SQL binder, for parenthesized FROM
#: clauses) request arbitrary binary tree forms.
JoinShape = Union[str, Tuple[object, object, JoinPath]]


def build_shaped_plan(
    catalog: Catalog,
    shape: JoinShape,
    select: AttributeSet,
    where: Optional[Predicate] = None,
) -> QueryTreePlan:
    """Build a minimized plan with an explicitly requested tree shape.

    Args:
        catalog: the schema catalog.
        shape: a relation name, or a ``(left, right, JoinPath)`` triple
            nesting recursively — e.g. the shape of
            ``(A JOIN B ON ...) JOIN (C JOIN D ON ...) ON ...``.
        select: output attributes.
        where: selection predicate; single-relation atoms are pushed to
            the leaves, the rest applies above the lowest covering join.

    Push-down follows :func:`build_plan`: leaves are filtered and
    projected to what survives upward, and the root projects to
    ``select``.

    Raises:
        PlanError: on malformed shapes, duplicate relations, non-bridging
            join conditions, or SELECT attributes the shape cannot
            produce.
    """
    where = where if where is not None else Predicate.true()
    names: List[str] = []

    def collect(node: JoinShape) -> None:
        if isinstance(node, str):
            names.append(node)
            return
        if not (isinstance(node, tuple) and len(node) == 3):
            raise PlanError(
                f"shape nodes must be relation names or (left, right, JoinPath) "
                f"triples, got {node!r}"
            )
        collect(node[0])  # type: ignore[index]
        collect(node[1])  # type: ignore[index]
        if not isinstance(node[2], JoinPath) or node[2].is_empty():
            raise PlanError("shape joins require a non-empty JoinPath")

    collect(shape)
    if len(set(names)) != len(names):
        raise PlanError(f"duplicate relations in shape: {names}")
    schemas = [catalog.relation(name) for name in names]
    available: set = set()
    for schema in schemas:
        available.update(schema.attribute_set)
    _check_known(select, available, "SELECT clause")
    _check_known(where.attributes, available, "WHERE clause")

    join_attributes: set = set()

    def collect_conditions(node: JoinShape) -> None:
        if isinstance(node, str):
            return
        collect_conditions(node[0])  # type: ignore[index]
        collect_conditions(node[1])  # type: ignore[index]
        join_attributes.update(node[2].attributes)  # type: ignore[union-attr]

    collect_conditions(shape)
    _check_known(frozenset(join_attributes), available, "JOIN conditions")
    single, cross = _split_where_for(where, schemas)
    needed_above_leaves = set(select) | join_attributes | cross.attributes
    pending = list(cross.comparisons)

    def build(node: JoinShape) -> PlanNode:
        nonlocal pending
        if isinstance(node, str):
            schema = catalog.relation(node)
            built: PlanNode = LeafNode(schema)
            leaf_predicate = single.get(schema.name)
            if leaf_predicate is not None and not leaf_predicate.is_true():
                built = UnaryNode(SELECT, leaf_predicate, built)
            keep = frozenset(needed_above_leaves & schema.attribute_set)
            if keep and keep != schema.attribute_set:
                built = UnaryNode(PROJECT, keep, built)
            return built
        left = build(node[0])  # type: ignore[index]
        right = build(node[1])  # type: ignore[index]
        joined: PlanNode = JoinNode(left, right, node[2])  # type: ignore[arg-type]
        ready = [c for c in pending if c.attributes <= joined.schema]
        if ready:
            joined = UnaryNode(SELECT, Predicate(ready), joined)
            pending = [c for c in pending if c not in ready]
        return joined

    current = build(shape)
    if pending:
        raise PlanError(
            f"WHERE atoms never became applicable: {[str(c) for c in pending]}"
        )
    missing = select - current.schema
    if missing:
        raise PlanError(
            f"SELECT attributes not produced by the shape: {sorted(missing)}"
        )
    if frozenset(select) != current.schema:
        current = UnaryNode(PROJECT, frozenset(select), current)
    return QueryTreePlan(current)


def _split_where_for(where: Predicate, schemas: Sequence) -> Tuple[dict, Predicate]:
    """Like :func:`_split_where` but taking the predicate directly."""
    single: dict = {}
    cross = []
    for comparison in where.comparisons:
        owner = None
        for schema in schemas:
            if comparison.attributes <= schema.attribute_set:
                owner = schema.name
                break
        if owner is None:
            cross.append(comparison)
        else:
            existing = single.get(owner, Predicate.true())
            single[owner] = existing.conjoin(Predicate([comparison]))
    return single, Predicate(cross)


def _check_known(attributes: AttributeSet, available: set, context: str) -> None:
    unknown = sorted(a for a in attributes if a not in available)
    if unknown:
        raise UnknownAttributeError(unknown[0], context)


def _split_where(spec: QuerySpec, schemas: Sequence) -> Tuple[dict, Predicate]:
    """Split the WHERE predicate into per-relation parts and the rest."""
    return _split_where_for(spec.where, schemas)


def _validate_join_step(
    path: JoinPath, left_schema: AttributeSet, right_schema: AttributeSet, index: int
) -> None:
    for condition in path:
        in_left = condition.first in left_schema or condition.second in left_schema
        in_right = condition.first in right_schema or condition.second in right_schema
        if not (in_left and in_right):
            raise PlanError(
                f"join step {index}: condition {condition} does not connect the "
                "accumulated left side with the next relation; reorder the FROM "
                "clause or fix the ON clause"
            )


def _bind_condition(condition: RawCondition, available: Dict[str, str]) -> Comparison:
    if condition.left not in available:
        raise BindingError(
            f"WHERE references {condition.left!r}, which belongs to no FROM relation"
        )
    if condition.right_is_identifier:
        right = str(condition.right)
        if right not in available:
            raise BindingError(
                f"WHERE references {right!r}, which belongs to no FROM relation"
            )
        return Comparison.attr_vs_attr(condition.left, condition.op, right)
    return Comparison(condition.left, condition.op, condition.right)


def bind_plan(query: SelectQuery, catalog: Catalog):
    """Resolve a query of *any* FROM shape into a minimized
    :class:`~repro.algebra.tree.QueryTreePlan`.

    Parenthesization is preserved: ``(A JOIN B ON ...) JOIN (C JOIN D
    ON ...) ON ...`` becomes a bushy tree.  Validations mirror
    :func:`bind`: relations must exist and not repeat, every ON
    condition must bridge its join's two subtrees, and SELECT/WHERE
    names must resolve.

    Raises:
        BindingError: on any unresolved or ill-placed name.
    """
    from repro.sql.ast import FromJoin, FromRelation

    names = query.relations
    seen: Set[str] = set()
    for name in names:
        if name not in catalog:
            raise BindingError(f"unknown relation in FROM clause: {name!r}")
        if name in seen:
            raise BindingError(f"relation {name!r} appears twice in FROM clause")
        seen.add(name)
    available: Dict[str, str] = {}
    for name in names:
        for attribute in catalog.relation(name).attributes:
            available[attribute] = name

    def to_shape(node):
        if isinstance(node, FromRelation):
            return node.name, set(catalog.relation(node.name).attributes)
        assert isinstance(node, FromJoin)
        left_shape, left_attrs = to_shape(node.left)
        right_shape, right_attrs = to_shape(node.right)
        pairs = []
        for left, right in node.conditions:
            for attribute in (left, right):
                if attribute not in available:
                    raise BindingError(
                        f"ON clause references {attribute!r}, which belongs to "
                        "no FROM relation"
                    )
            bridges = (left in left_attrs and right in right_attrs) or (
                right in left_attrs and left in right_attrs
            )
            if not bridges:
                raise BindingError(
                    f"ON condition {left} = {right} does not connect the two "
                    "sides of its parenthesized join"
                )
            pairs.append((left, right))
        return (left_shape, right_shape, JoinPath.of(*pairs)), left_attrs | right_attrs

    shape, _ = to_shape(query.from_tree)

    if query.is_select_star:
        select = frozenset(available)
    else:
        for attribute in query.select or ():
            if attribute not in available:
                raise BindingError(
                    f"SELECT references {attribute!r}, which belongs to no "
                    "FROM relation"
                )
        select = frozenset(query.select or ())
    comparisons = [_bind_condition(c, available) for c in query.where]
    return build_shaped_plan(catalog, shape, select, Predicate(comparisons))


def fingerprint_tree(tree: QueryTreePlan) -> Tuple[object, ...]:
    """A canonical, hashable identity of an explicitly shaped plan.

    Used for queries that bypass :class:`~repro.algebra.builder.QuerySpec`
    (parenthesized/bushy SQL FROM clauses bind straight to a tree): the
    fingerprint is the recursive structure of the tree — operator kinds,
    relation names, sorted projection sets, sorted predicate atoms and
    :meth:`~repro.algebra.joins.JoinPath.canonical_key` join paths.
    """

    def walk(node: PlanNode) -> Tuple[object, ...]:
        if isinstance(node, LeafNode):
            return ("leaf", node.relation.name)
        if isinstance(node, UnaryNode):
            if node.operator == PROJECT:
                parameter: Tuple[object, ...] = tuple(sorted(node.parameter))
            else:
                parameter = tuple(sorted(str(c) for c in node.parameter.comparisons))
            return (node.operator, parameter, walk(node.left))
        if isinstance(node, JoinNode):
            return (
                "join",
                node.path.canonical_key(),
                walk(node.left),
                walk(node.right),
            )
        raise PlanError(f"unknown node kind: {type(node).__name__}")  # pragma: no cover

    return ("tree", walk(tree.root))
