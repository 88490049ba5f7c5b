"""Parsed (unbound) query representation.

The parser produces a :class:`SelectQuery` mirroring the surface syntax;
names are plain strings, not yet checked against any catalog — that is
the binder's job.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

Literal = Union[str, int, float]


class RawCondition:
    """One unbound WHERE atom ``left op right``.

    Attributes:
        left: attribute name.
        op: comparison operator symbol.
        right: literal value or attribute name.
        right_is_identifier: whether ``right`` is an attribute reference
            rather than a literal.
    """

    __slots__ = ("left", "op", "right", "right_is_identifier")

    def __init__(
        self, left: str, op: str, right: Literal, right_is_identifier: bool
    ) -> None:
        self.left = left
        self.op = op
        self.right = right
        self.right_is_identifier = right_is_identifier

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawCondition):
            return NotImplemented
        return (
            self.left == other.left
            and self.op == other.op
            and self.right == other.right
            and self.right_is_identifier == other.right_is_identifier
        )

    def __repr__(self) -> str:
        rhs = self.right if self.right_is_identifier else repr(self.right)
        return f"{self.left} {self.op} {rhs}"


class FromRelation:
    """A FROM-tree leaf: one relation reference."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def relation_names(self) -> List[str]:
        """The single relation name, as a list (tree protocol)."""
        return [self.name]

    @property
    def is_left_deep(self) -> bool:
        """Leaves are trivially left-deep."""
        return True

    def __repr__(self) -> str:
        return self.name


class FromJoin:
    """A FROM-tree join: two subtrees and the ON conditions.

    Parenthesized FROM clauses produce right- or bushy-nested trees;
    the unparenthesized ``A JOIN B ON ... JOIN C ON ...`` chain is the
    usual left-deep left fold.
    """

    __slots__ = ("left", "right", "conditions")

    def __init__(
        self,
        left: "FromTree",
        right: "FromTree",
        conditions: Sequence[Tuple[str, str]],
    ) -> None:
        self.left = left
        self.right = right
        self.conditions = list(conditions)

    def relation_names(self) -> List[str]:
        """All referenced relations, left-to-right."""
        return self.left.relation_names() + self.right.relation_names()

    @property
    def is_left_deep(self) -> bool:
        """Whether every right operand is a single relation."""
        return isinstance(self.right, FromRelation) and self.left.is_left_deep

    def __repr__(self) -> str:
        conds = " AND ".join(f"{l} = {r}" for l, r in self.conditions)
        return f"({self.left!r} JOIN {self.right!r} ON {conds})"


FromTree = Union[FromRelation, FromJoin]


class SelectQuery:
    """An unbound select-from-where query.

    Attributes:
        select: projected attribute names, or ``None`` for ``SELECT *``.
        from_tree: the FROM clause as a binary tree (parenthesization
            preserved).
        relations: relation names in FROM order (flattened tree).
        where: WHERE atoms (conjunction).
    """

    __slots__ = ("select", "from_tree", "relations", "where")

    def __init__(
        self,
        select: Optional[Sequence[str]],
        from_tree: FromTree,
        where: Sequence[RawCondition] = (),
    ) -> None:
        self.select = list(select) if select is not None else None
        self.from_tree = from_tree
        self.relations = from_tree.relation_names()
        self.where = list(where)

    @property
    def is_select_star(self) -> bool:
        """Whether the query projects every available attribute."""
        return self.select is None

    @property
    def is_left_deep(self) -> bool:
        """Whether the FROM tree is the conventional left-deep chain."""
        return self.from_tree.is_left_deep

    def __repr__(self) -> str:
        select = ", ".join(self.select) if self.select is not None else "*"
        return (
            f"SelectQuery(SELECT {select} FROM {self.from_tree!r} "
            f"WHERE {self.where})"
        )
