"""Query specification and minimized plan construction.

A :class:`QuerySpec` captures the paper's query form — ``SELECT A FROM
R_1 JOIN ... JOIN R_{n+1} WHERE C`` — independently of any surface
syntax (the SQL front-end of :mod:`repro.sql` produces one, and tests
build them directly).  A parenthesized FROM clause binds to a spec that
also carries its explicit :attr:`~QuerySpec.join_tree`.

:func:`build_shaped_plan` is the one tree builder: it turns a join shape
into a :class:`QueryTreePlan` applying the minimization the paper
assumes (Section 2) — single-relation selections are evaluated at the
leaves, projections are pushed to the *leaves* (below which no join
attribute may be dropped), cross-relation selections apply above the
lowest join covering them, and one final projection sits at the root.
This reproduces the paper's Figure 2 exactly.  As the paper notes,
push-down matters for security as much as efficiency — it discloses only
the attributes needed for the computation.  :func:`build_plan` (the
spec's own shape, left-deep for a chain) and :func:`build_bushy_plan`
(a balanced split) only choose the shape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.algebra.attributes import AttributeSet
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

#: A join shape: a relation name, or ``(left_shape, right_shape, JoinPath)``.
#: Shapes let callers (notably the SQL binder, for parenthesized FROM
#: clauses) request arbitrary binary tree forms.
JoinShape = Union[str, Tuple[object, object, JoinPath]]


class QuerySpec:
    """A bound select-from-where query.

    Args:
        relations: relation names in FROM order (left-deep join order).
        join_paths: one :class:`JoinPath` per join step; ``join_paths[i]``
            joins the accumulated result of ``relations[:i+1]`` with
            ``relations[i+1]``.  Must have ``len(relations) - 1`` entries.
        select: output attributes (the SELECT clause).
        where: selection predicate (the WHERE clause); defaults to true.

    A parenthesized FROM clause's spec (:meth:`of_join_tree`) also
    carries its explicit :attr:`join_tree`; its relations are the tree's
    leaves left to right and its join paths the tree's in post-order.
    """

    __slots__ = (
        "_relations", "_join_paths", "_select", "_where", "_join_tree", "_identities"
    )

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
        self._join_tree: Optional[JoinShape] = None
        self._identities: Optional[Tuple[tuple, tuple]] = None

    @classmethod
    def of_join_tree(
        cls, join_tree: JoinShape, select: AttributeSet, where: Optional[Predicate] = None
    ) -> "QuerySpec":
        """The spec of the join shape ``join_tree``: its relations left
        to right, its join paths in post-order, and the shape itself
        unless it is the left-deep chain those two already spell.

        Raises:
            PlanError: on a malformed shape.
        """
        relations, join_paths = _flatten(join_tree)
        spec = cls(relations, join_paths, select, where)
        node = join_tree
        while isinstance(node, tuple) and isinstance(node[1], str):
            node = node[0]
        if not isinstance(node, str):
            spec._join_tree = join_tree
        return spec

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

    @property
    def join_tree(self) -> Optional[JoinShape]:
        """The explicit join shape of a parenthesized FROM clause —
        planned as written, never order-searched — or ``None`` for the
        left-deep chain of :attr:`relations` and :attr:`join_paths`."""
        return self._join_tree

    def full_join_path(self) -> JoinPath:
        """Union of every join step's conditions — the query's join path."""
        if not self._join_paths:
            return JoinPath.empty()
        return self._join_paths[0].union(*self._join_paths[1:])

    def reordered(self, relations: Sequence[str], join_paths: Sequence[JoinPath]) -> "QuerySpec":
        """A left-deep copy of the spec with a different FROM order /
        join steps."""
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
        if self._join_tree is not None:
            return QuerySpec.of_join_tree(self._join_tree, self._select, Predicate(atoms))
        return QuerySpec(self._relations, self._join_paths, self._select, Predicate(atoms))

    def fingerprint(self) -> Tuple[object, ...]:
        """A canonical, hashable identity of the bound query.

        Two specs that plan identically share one fingerprint: the FROM
        order and per-step join paths (via
        :meth:`~repro.algebra.joins.JoinPath.canonical_key`, so condition
        insertion order never matters), the explicit :attr:`join_tree`
        if any, the SELECT set sorted, and the
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
        if self._join_tree is not None:
            head += (_tree_key(self._join_tree),)
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


def build_plan(catalog: Catalog, spec: QuerySpec) -> QueryTreePlan:
    """Build the minimized plan of a bound spec: in its explicit
    :attr:`~QuerySpec.join_tree` (a parenthesized FROM clause), else
    left-deep in FROM order, one join per ``spec.join_paths`` step —
    :func:`build_shaped_plan` builds either.

    Raises:
        PlanError: on structurally invalid specs (a join step whose
            condition does not connect its two sides, ...).
        UnknownAttributeError / UnknownRelationError: on unresolved names.
    """
    shape = spec.join_tree
    if shape is None:
        shape = spec.relations[0]
        for name, path in zip(spec.relations[1:], spec.join_paths):
            shape = (shape, name, path)
    return build_shaped_plan(catalog, shape, spec.select, spec.where)


def build_bushy_plan(catalog: Catalog, spec: QuerySpec) -> QueryTreePlan:
    """Build a *bushy* (balanced) plan from a bound spec.

    The paper's algorithm (and this library's planner, verifier and
    engine) work on arbitrary binary trees; :func:`build_plan` emits the
    conventional left-deep shape, while this builder recursively splits
    the FROM list in half and joins the two sides, giving independent
    subtrees that can execute on disjoint server groups.  Each join
    takes the spec's conditions bridging its two halves; the rest is
    :func:`build_shaped_plan`'s.

    Raises:
        PlanError: if some half-split would require a cartesian product
            (no condition bridges the halves) — such specs are left-deep
            only; and on the same structural errors as :func:`build_plan`.
    """
    conditions = spec.full_join_path()

    def split(names: Sequence[str]) -> Tuple[JoinShape, AttributeSet]:
        if len(names) == 1:
            return names[0], catalog.relation(names[0]).attribute_set
        middle = len(names) // 2
        left, left_attributes = split(names[:middle])
        right, right_attributes = split(names[middle:])
        bridge = [c for c in conditions if c.bridges(left_attributes, right_attributes)]
        if not bridge:
            raise PlanError(
                f"bushy split {list(names[:middle])} | {list(names[middle:])} has no "
                "bridging join condition; use build_plan (left-deep) or reorder the "
                "FROM clause"
            )
        return (left, right, JoinPath(bridge)), left_attributes | right_attributes

    return build_shaped_plan(catalog, split(spec.relations)[0], spec.select, spec.where)


def build_shaped_plan(
    catalog: Catalog,
    shape: JoinShape,
    select: AttributeSet,
    where: Optional[Predicate] = None,
) -> QueryTreePlan:
    """Build a minimized plan of an explicitly given tree shape — the
    one body behind :func:`build_plan` and :func:`build_bushy_plan`.

    Args:
        catalog: the schema catalog.
        shape: a relation name, or a ``(left, right, JoinPath)`` triple
            nesting recursively — e.g. the shape of
            ``(A JOIN B ON ...) JOIN (C JOIN D ON ...) ON ...``.
        select: output attributes.
        where: selection predicate; defaults to true.

    The construction:

    1. validate every referenced name against the catalog;
    2. at each leaf, apply single-relation WHERE atoms as a selection,
       then project to the attributes needed above the leaf (SELECT
       attributes plus join attributes of *any* join plus attributes of
       cross-relation WHERE atoms);
    3. join bottom-up, checking that every condition connects its
       join's two sides and attaching every cross-relation WHERE atom at
       the lowest join covering it;
    4. project to the SELECT attributes at the root.

    Raises:
        PlanError: on malformed shapes, duplicate relations, or join
            conditions that do not connect their join's two sides.
        UnknownAttributeError / UnknownRelationError: on unresolved names.
    """
    where = where if where is not None else Predicate.true()
    names, paths = _flatten(shape)
    if len(set(names)) != len(names):
        raise PlanError(f"duplicate relations in shape: {names}")
    # Activate the catalog's representation kernel: from here on every
    # schema's attribute set is the interned bitset form, so the profiles
    # the planner derives from this plan carry masks throughout.
    catalog.universe
    schemas = [catalog.relation(name) for name in names]
    available: set = set()
    for schema in schemas:
        available.update(schema.attribute_set)
    join_attributes: set = set()
    for path in paths:
        join_attributes.update(path.attributes)
    _check_known(select, available, "SELECT clause")
    _check_known(where.attributes, available, "WHERE clause")
    _check_known(join_attributes, available, "JOIN conditions")

    # Split the WHERE into per-relation parts and the cross-relation rest.
    single: dict = {}
    cross = []
    for comparison in where.comparisons:
        owner = next(
            (s.name for s in schemas if comparison.attributes <= s.attribute_set), None
        )
        if owner is None:
            cross.append(comparison)
        else:
            existing = single.get(owner, Predicate.true())
            single[owner] = existing.conjoin(Predicate([comparison]))
    crossing = Predicate(cross)
    needed_above_leaves = set(select) | join_attributes | crossing.attributes
    pending = list(crossing.comparisons)
    joins = 0

    def build(node: JoinShape) -> PlanNode:
        nonlocal pending, joins
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
        path: JoinPath = node[2]  # type: ignore[index, assignment]
        for condition in path:
            if not condition.bridges(left.schema, right.schema):
                raise PlanError(
                    f"join step {joins}: condition {condition} does not connect the "
                    "join's left side with its right side; reorder the FROM clause "
                    "or fix the ON clause"
                )
        joins += 1
        joined: PlanNode = JoinNode(left, right, path)
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
    if frozenset(select) != current.schema:
        current = UnaryNode(PROJECT, frozenset(select), current)
    return QueryTreePlan(current)


def _flatten(shape: JoinShape) -> Tuple[List[str], List[JoinPath]]:
    """A join shape's relations, left to right, and its join paths in
    post-order (for a left-deep chain: FROM order and join steps).

    Raises:
        PlanError: on a node that is neither a relation name nor a
            ``(left, right, JoinPath)`` triple with a non-empty path.
    """
    if isinstance(shape, str):
        return [shape], []
    if not (isinstance(shape, tuple) and len(shape) == 3):
        raise PlanError(
            f"shape nodes must be relation names or (left, right, JoinPath) "
            f"triples, got {shape!r}"
        )
    left_names, left_paths = _flatten(shape[0])
    right_names, right_paths = _flatten(shape[1])
    if not isinstance(shape[2], JoinPath) or shape[2].is_empty():
        raise PlanError("shape joins require a non-empty JoinPath")
    return left_names + right_names, left_paths + right_paths + [shape[2]]


def _tree_key(shape: JoinShape) -> object:
    """A join shape with its paths as canonical keys (hashable, ordered)."""
    if isinstance(shape, str):
        return shape
    return (_tree_key(shape[0]), _tree_key(shape[1]), shape[2].canonical_key())  # type: ignore[index]


def _check_known(attributes: AttributeSet, available: set, context: str) -> None:
    unknown = sorted(a for a in attributes if a not in available)
    if unknown:
        raise UnknownAttributeError(unknown[0], context)
