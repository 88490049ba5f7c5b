"""Query specification and minimized plan construction.

A :class:`QuerySpec` captures the paper's query form — ``SELECT A FROM
R_1 JOIN ... JOIN R_{n+1} WHERE C`` — independently of any surface
syntax (the SQL front-end of :mod:`repro.sql` produces one, and tests
build them directly).

:func:`build_plan` turns a spec into a :class:`QueryTreePlan` applying
the minimization the paper assumes (Section 2): projections are pushed
down to eliminate unnecessary attributes as early as possible, and
single-relation selections are evaluated at the leaves.  As the paper
notes, push-down matters for security as much as efficiency — it
discloses only the attributes needed for the computation.

The default construction reproduces the paper's Figure 2 exactly:
projections are pushed to the *leaves* (below which no join attribute
may be dropped) plus one final projection at the root; pass
``project_intermediate=True`` to also insert projections above joins
whenever attributes become dead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.algebra.attributes import AttributeSet, attribute_set
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
from repro.exceptions import PlanError, UnknownAttributeError


class QuerySpec:
    """A bound select-from-where query.

    Args:
        relations: relation names in FROM order (left-deep join order).
        join_paths: one :class:`JoinPath` per join step; ``join_paths[i]``
            joins the accumulated result of ``relations[:i+1]`` with
            ``relations[i+1]``.  Must have ``len(relations) - 1`` entries.
        select: output attributes (the SELECT clause).
        where: selection predicate (the WHERE clause); defaults to true.
    """

    __slots__ = ("_relations", "_join_paths", "_select", "_where", "_identities")

    def __init__(
        self,
        relations: Sequence[str],
        join_paths: Sequence[JoinPath],
        select: AttributeSet,
        where: Optional[Predicate] = None,
    ) -> None:
        if not relations:
            raise PlanError("query must reference at least one relation")
        if len(set(relations)) != len(relations):
            raise PlanError(f"duplicate relations in FROM clause: {list(relations)}")
        if len(join_paths) != len(relations) - 1:
            raise PlanError(
                f"{len(relations)} relations require {len(relations) - 1} join "
                f"paths, got {len(join_paths)}"
            )
        select = frozenset(select)
        if not select:
            raise PlanError("SELECT clause must name at least one attribute")
        self._relations = tuple(relations)
        self._join_paths = tuple(join_paths)
        self._select = select
        self._where = where if where is not None else Predicate.true()
        self._identities: Optional[Tuple[tuple, tuple]] = None

    @property
    def relations(self) -> Tuple[str, ...]:
        """Relation names in FROM order."""
        return self._relations

    @property
    def join_paths(self) -> Tuple[JoinPath, ...]:
        """Join paths of the successive join steps."""
        return self._join_paths

    @property
    def select(self) -> AttributeSet:
        """Output attributes."""
        return self._select

    @property
    def where(self) -> Predicate:
        """Selection predicate."""
        return self._where

    def full_join_path(self) -> JoinPath:
        """Union of every join step's conditions — the query's join path."""
        if not self._join_paths:
            return JoinPath.empty()
        return self._join_paths[0].union(*self._join_paths[1:])

    def reordered(self, relations: Sequence[str], join_paths: Sequence[JoinPath]) -> "QuerySpec":
        """A copy of the spec with a different FROM order / join steps."""
        return QuerySpec(relations, join_paths, self._select, self._where)

    def constants(self) -> Tuple[object, ...]:
        """The literal operands of the WHERE atoms, in atom order."""
        return tuple(
            c.operand for c in self._where.comparisons if not c.operand_is_attribute
        )

    def with_constants(self, values: Sequence[object]) -> "QuerySpec":
        """The query of this :meth:`shape` whose :meth:`constants` are
        ``values``, in the same order.

        Raises:
            PlanError: unless there is one value per constant.
        """
        atoms = list(self._where.comparisons)
        slots = [i for i, c in enumerate(atoms) if not c.operand_is_attribute]
        if len(slots) != len(values):
            raise PlanError(f"{len(slots)} WHERE constants, got {len(values)} values")
        for slot, value in zip(slots, values):
            atoms[slot] = Comparison(atoms[slot].attribute, atoms[slot].op, value)
        return QuerySpec(self._relations, self._join_paths, self._select, Predicate(atoms))

    def fingerprint(self) -> Tuple[object, ...]:
        """A canonical, hashable identity of the bound query.

        Two specs that plan identically share one fingerprint: the FROM
        order and per-step join paths (via
        :meth:`~repro.algebra.joins.JoinPath.canonical_key`, so condition
        insertion order never matters), the SELECT set sorted, and the
        WHERE conjunction as sorted atom renderings (conjunct order never
        matters either).  The plan cache
        (:mod:`repro.core.plancache`) keys on this value.
        """
        return (self._identities or self._identity())[0]

    def shape(self) -> Tuple[object, ...]:
        """The fingerprint with the *constants* of the WHERE atoms erased
        (``A op 'v'`` renders ``A op ?``; attribute, operator and an
        attribute-valued operand stay).  A profile (Definition 3.2)
        records the attributes a selection touches, never a constant, so
        ``CanView``, the Figure 6 planner and every Figure 5 flow are
        functions of this value and the policy: all specs of one shape
        share one plan decision.  Without constants, ``shape() ==
        fingerprint()``."""
        return (self._identities or self._identity())[1]

    def _identity(self) -> Tuple[tuple, tuple]:
        """``(fingerprint, shape)`` in one walk, kept on the spec: it is
        immutable, so the pair dies with it and nothing invalidates it."""
        atoms = self._where.comparisons
        head = (
            self._relations,
            tuple(path.canonical_key() for path in self._join_paths),
            tuple(sorted(self._select)),
        )
        erased = (
            str(c) if c.operand_is_attribute else f"{c.attribute}{c.op}?" for c in atoms
        )
        self._identities = (
            head + (tuple(sorted(map(str, atoms))),),
            head + (tuple(sorted(erased)),),
        )
        return self._identities

    def __repr__(self) -> str:
        return (
            f"QuerySpec(select={sorted(self._select)}, from={list(self._relations)}, "
            f"where={self._where})"
        )


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


def build_bushy_plan(catalog: Catalog, spec: QuerySpec) -> QueryTreePlan:
    """Build a *bushy* (balanced) plan from a bound spec.

    The paper's algorithm (and this library's planner, verifier and
    engine) work on arbitrary binary trees; :func:`build_plan` emits the
    conventional left-deep shape, while this builder recursively splits
    the FROM list in half and joins the two sides, giving independent
    subtrees that can execute on disjoint server groups.

    Join conditions attach to the lowest node whose two subtrees contain
    their endpoints.  Leaf selections and projections are pushed down as
    in :func:`build_plan`; the WHERE's cross-relation atoms apply above
    the lowest covering join, and the root projects to the SELECT list.

    Raises:
        PlanError: if some half-split would require a cartesian product
            (no condition bridges the halves) — such specs are left-deep
            only; and on the same structural errors as :func:`build_plan`.
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

    conditions = set()
    for path in spec.join_paths:
        conditions.update(path.conditions)
    join_attributes = {a for c in conditions for a in c.attributes}
    single, cross = _split_where(spec, schemas)
    needed_above_leaves = set(spec.select) | join_attributes | cross.attributes

    def leaf_node(schema) -> PlanNode:
        node: PlanNode = LeafNode(schema)
        leaf_predicate = single.get(schema.name)
        if leaf_predicate is not None and not leaf_predicate.is_true():
            node = UnaryNode(SELECT, leaf_predicate, node)
        keep = frozenset(needed_above_leaves & schema.attribute_set)
        if keep and keep != schema.attribute_set:
            node = UnaryNode(PROJECT, keep, node)
        return node

    def build(subset) -> PlanNode:
        if len(subset) == 1:
            return leaf_node(subset[0])
        middle = len(subset) // 2
        left = build(subset[:middle])
        right = build(subset[middle:])
        bridge = [
            c
            for c in conditions
            if (c.first in left.schema and c.second in right.schema)
            or (c.second in left.schema and c.first in right.schema)
        ]
        if not bridge:
            raise PlanError(
                f"bushy split {[s.name for s in subset[:middle]]} | "
                f"{[s.name for s in subset[middle:]]} has no bridging join "
                "condition; use build_plan (left-deep) or reorder the FROM "
                "clause"
            )
        return JoinNode(left, right, JoinPath(bridge))

    current = build(schemas)
    pending = [c for c in cross.comparisons if not (c.attributes <= current.schema)]
    applicable = [c for c in cross.comparisons if c.attributes <= current.schema]
    if pending:
        raise PlanError(
            f"WHERE atoms reference unavailable attributes: {[str(c) for c in pending]}"
        )
    if applicable:
        current = UnaryNode(SELECT, Predicate(applicable), current)
    missing = spec.select - current.schema
    if missing:
        raise PlanError(f"SELECT attributes not produced by FROM clause: {sorted(missing)}")
    if spec.select != current.schema:
        current = UnaryNode(PROJECT, spec.select, current)
    return QueryTreePlan(current)


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
