"""Name resolution: unbound AST -> bound :class:`QuerySpec`.

The binder checks every name against the catalog, once, for a FROM
clause of any shape:

* FROM relations must exist and not repeat;
* every ON equality must connect the two sides of its join — for the
  unparenthesized chain, the relations joined so far with the next one;
* SELECT and WHERE attributes must belong to the FROM relations
  (``SELECT *`` expands to all of them, in schema order);
* WHERE atoms comparing two attributes must reference FROM attributes on
  both sides.

A chain binds to a left-deep spec; a parenthesized FROM clause binds to
a spec carrying its explicit join tree
(:meth:`~repro.algebra.builder.QuerySpec.of_join_tree`).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinCondition, JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import Catalog
from repro.exceptions import BindingError
from repro.sql.ast import FromRelation, RawCondition, SelectQuery
from repro.sql.parser import parse


def bind(query: SelectQuery, catalog: Catalog) -> QuerySpec:
    """Resolve an unbound query of any FROM shape against ``catalog``.

    Raises:
        BindingError: on any unresolved or ill-placed name.
    """
    seen: Set[str] = set()
    for name in query.relations:
        if name not in catalog:
            raise BindingError(f"unknown relation in FROM clause: {name!r}")
        if name in seen:
            raise BindingError(f"relation {name!r} appears twice in FROM clause")
        seen.add(name)

    available: Dict[str, str] = {}
    for name in query.relations:
        for attribute in catalog.relation(name).attributes:
            available[attribute] = name

    def resolve(node):
        """``node``'s join shape and attributes, its ON clauses checked."""
        if isinstance(node, FromRelation):
            return node.name, catalog.relation(node.name).attribute_set
        left_shape, left_attributes = resolve(node.left)
        right_shape, right_attributes = resolve(node.right)
        for left, right in node.conditions:
            for attribute in (left, right):
                if attribute not in available:
                    raise BindingError(
                        f"ON clause references {attribute!r}, which belongs to "
                        "no FROM relation"
                    )
            if left == right or not JoinCondition.of(left, right).bridges(
                left_attributes, right_attributes
            ):
                raise BindingError(
                    f"ON condition {left} = {right} does not connect "
                    f"{node.right!r} with {node.left!r}"
                )
        shape = (left_shape, right_shape, JoinPath.of(*node.conditions))
        return shape, left_attributes | right_attributes

    join_tree, _ = resolve(query.from_tree)

    # SELECT clause.
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

    # WHERE clause.
    where = Predicate([_bind_condition(condition, available) for condition in query.where])
    return QuerySpec.of_join_tree(join_tree, select, where)


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
    """:func:`bind`, then the minimized plan of the bound spec
    (:func:`~repro.algebra.builder.build_plan`): parenthesization is
    preserved, so ``(A JOIN B ON ...) JOIN (C JOIN D ON ...) ON ...``
    becomes a bushy tree."""
    return build_plan(catalog, bind(query, catalog))


def parse_query(text: str, catalog: Catalog) -> QuerySpec:
    """Parse and bind SQL text in one step."""
    return bind(parse(text), catalog)


def parse_query_plan(text: str, catalog: Catalog):
    """Parse and bind SQL of any FROM shape into a minimized plan."""
    return bind_plan(parse(text), catalog)
