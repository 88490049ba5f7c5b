"""Equi-join conditions and join paths (Definition 2.1).

The paper denotes a conjunction of equi-join conditions as a pair
``<J_l, J_r>`` of attribute lists paired positionally, and a *join path*
as the set of such pairs accumulated along a sequence of joins.

Two requirements drive the representation chosen here:

* **Order insensitivity.**  Figure 3 writes the same semantic condition in
  both orders (authorization 2 uses ``(Holder, Patient)`` for server
  ``S_I`` while authorization 5 uses ``(Patient, Holder)`` for ``S_H``),
  and the worked example of Figure 7 requires the query's
  ``Citizen=Patient`` to match authorization 7's ``(Patient, Citizen)``.
  A join condition ``A = B`` is therefore normalized so that
  ``JoinCondition("A", "B") == JoinCondition("B", "A")``.

* **Exact path equality.**  Definition 3.3 compares join paths with
  equality, *not* containment: an extra join condition always adds
  information (which tuples have matches elsewhere), so a superset path is
  never implied.  Representing a join path as a frozenset of normalized
  atomic conditions makes this comparison canonical.

A ``<J_l, J_r>`` conjunction with ``len(J_l) == len(J_r) == k`` decomposes
into ``k`` atomic :class:`JoinCondition` objects; :meth:`JoinPath.of_pairs`
performs the decomposition.

Because join-path equality sits on the hottest paths of the system (every
``CanView`` probe keys on it, every policy index buckets by it), paths
built through the public constructors and combinators are **interned**:
structurally equal paths share one canonical instance, so equality is
usually an identity check and hashes are computed once.  Direct
``JoinPath(...)`` construction remains supported and remains value-equal
to the canonical instance — interning is an optimization, never a
semantic requirement.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Sequence, Tuple

from repro.algebra.attributes import AttributeSet, validate_attribute_name
from repro.exceptions import JoinPathError

#: Caps on the intern pools.  Past them, construction simply stops
#: memoizing (still correct, value-equality does the work), so pathological
#: workloads cannot grow the pools without bound.
_MAX_INTERNED_CONDITIONS = 1 << 16
_MAX_INTERNED_PATHS = 1 << 16


class JoinCondition:
    """A single normalized equi-join condition ``A = B``.

    Instances are immutable, hashable, and order-insensitive in their two
    attributes.  The two attributes must be distinct: ``A = A`` carries no
    join semantics and almost certainly indicates a naming bug under the
    paper's globally-unique-attribute-names assumption.
    """

    __slots__ = ("_first", "_second", "_hash", "_attrs")

    _POOL: Dict[Tuple[str, str], "JoinCondition"] = {}

    def __init__(self, left: str, right: str) -> None:
        left = validate_attribute_name(left)
        right = validate_attribute_name(right)
        if left == right:
            raise JoinPathError(
                f"join condition must relate two distinct attributes, got {left!r} = {right!r}"
            )
        # Canonical order: lexicographic, so (A, B) and (B, A) coincide.
        if left <= right:
            self._first, self._second = left, right
        else:
            self._first, self._second = right, left
        self._hash = hash((self._first, self._second))
        self._attrs: AttributeSet = None  # type: ignore[assignment]

    @classmethod
    def of(cls, left: str, right: str) -> "JoinCondition":
        """Interned constructor: equal conditions share one instance."""
        key = (left, right) if left <= right else (right, left)
        cached = cls._POOL.get(key)
        if cached is not None:
            return cached
        condition = cls(left, right)
        if len(cls._POOL) < _MAX_INTERNED_CONDITIONS:
            cls._POOL[(condition._first, condition._second)] = condition
        return condition

    @property
    def first(self) -> str:
        """Lexicographically smaller attribute of the condition."""
        return self._first

    @property
    def second(self) -> str:
        """Lexicographically larger attribute of the condition."""
        return self._second

    @property
    def attributes(self) -> AttributeSet:
        """The two attributes equated by this condition."""
        if self._attrs is None:
            self._attrs = frozenset((self._first, self._second))
        return self._attrs

    def mentions(self, attribute: str) -> bool:
        """Whether ``attribute`` participates in this condition."""
        return attribute == self._first or attribute == self._second

    def bridges(self, left: AttributeSet, right: AttributeSet) -> bool:
        """Whether the condition equates an attribute of ``left`` with
        one of ``right`` — the one rule every join of two sides obeys."""
        return (self._first in left and self._second in right) or (
            self._second in left and self._first in right
        )

    def other(self, attribute: str) -> str:
        """Return the attribute equated with ``attribute``.

        Raises:
            JoinPathError: if ``attribute`` is not part of the condition.
        """
        if attribute == self._first:
            return self._second
        if attribute == self._second:
            return self._first
        raise JoinPathError(f"{attribute!r} does not appear in {self}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, JoinCondition):
            return NotImplemented
        return self._first == other._first and self._second == other._second

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "JoinCondition") -> bool:
        if not isinstance(other, JoinCondition):
            return NotImplemented
        return (self._first, self._second) < (other._first, other._second)

    def __repr__(self) -> str:
        return f"JoinCondition({self._first!r}, {self._second!r})"

    def __str__(self) -> str:
        return f"({self._first}, {self._second})"


class JoinPath:
    """An immutable set of :class:`JoinCondition` objects (Definition 2.1).

    The empty join path (``JoinPath.empty()``) is the profile of any base
    relation.  Join paths form a commutative, idempotent monoid under
    :meth:`union`, which is exactly what the Figure 4 composition rules
    require (:math:`R^\\bowtie = R_l^\\bowtie \\cup R_r^\\bowtie \\cup j`).

    Hashes, sorted renderings, mentioned-attribute sets and the canonical
    sort key are all computed once per instance; combinators return
    interned canonical instances (see the module docstring).
    """

    __slots__ = ("_conditions", "_hash", "_key", "_attrs", "_sorted")

    _EMPTY: "JoinPath" = None  # type: ignore[assignment]
    _POOL: Dict[FrozenSet[JoinCondition], "JoinPath"] = {}

    def __init__(self, conditions: Iterable[JoinCondition] = ()) -> None:
        conds = frozenset(conditions)
        for cond in conds:
            if not isinstance(cond, JoinCondition):
                raise JoinPathError(
                    f"join path elements must be JoinCondition, got {type(cond).__name__}"
                )
        self._conditions = conds
        self._hash = hash(conds)
        self._key: Tuple[Tuple[str, str], ...] = None  # type: ignore[assignment]
        self._attrs: AttributeSet = None  # type: ignore[assignment]
        self._sorted: Tuple[JoinCondition, ...] = None  # type: ignore[assignment]

    @classmethod
    def interned(cls, conditions: Iterable[JoinCondition]) -> "JoinPath":
        """The canonical shared instance for ``conditions``.

        Structurally equal paths interned through this constructor are
        the *same* object, so downstream equality checks (the Definition
        3.3 clause 2, policy index probes) reduce to identity.
        """
        conds = conditions if isinstance(conditions, frozenset) else frozenset(conditions)
        cached = cls._POOL.get(conds)
        if cached is not None:
            return cached
        path = cls(conds)
        if len(cls._POOL) < _MAX_INTERNED_PATHS:
            cls._POOL[path._conditions] = path
        return path

    @classmethod
    def empty(cls) -> "JoinPath":
        """The empty join path (shared singleton)."""
        if cls._EMPTY is None:
            cls._EMPTY = cls.interned(())
        return cls._EMPTY

    @classmethod
    def of(cls, *pairs: Tuple[str, str]) -> "JoinPath":
        """Build a join path from ``(left, right)`` attribute-name pairs.

        >>> JoinPath.of(("Holder", "Patient")) == JoinPath.of(("Patient", "Holder"))
        True
        """
        return cls.interned(JoinCondition.of(left, right) for left, right in pairs)

    @classmethod
    def of_pairs(cls, pairs: Iterable[Tuple[Sequence[str], Sequence[str]]]) -> "JoinPath":
        """Build a join path from the paper's ``<J_l, J_r>`` list pairs.

        Each pair consists of two equal-length attribute lists matched
        positionally; every position contributes one atomic condition.

        Raises:
            JoinPathError: if a pair's lists differ in length or are empty.
        """
        conditions = []
        for j_left, j_right in pairs:
            if len(j_left) != len(j_right):
                raise JoinPathError(
                    f"join pair lists must have equal length, got {list(j_left)!r} and {list(j_right)!r}"
                )
            if not j_left:
                raise JoinPathError("join pair lists must be non-empty")
            for left, right in zip(j_left, j_right):
                conditions.append(JoinCondition.of(left, right))
        return cls.interned(conditions)

    @property
    def conditions(self) -> FrozenSet[JoinCondition]:
        """The atomic conditions of the path."""
        return self._conditions

    @property
    def attributes(self) -> AttributeSet:
        """All attributes mentioned anywhere in the path (cached)."""
        if self._attrs is None:
            result: set = set()
            for cond in self._conditions:
                result.add(cond._first)
                result.add(cond._second)
            self._attrs = frozenset(result)
        return self._attrs

    def union(self, *others: "JoinPath") -> "JoinPath":
        """Set-union of this path with ``others`` (Figure 4 join rule)."""
        conditions = self._conditions
        changed = False
        for other in others:
            if other._conditions is not conditions and not (other._conditions <= conditions):
                if not changed:
                    conditions = set(conditions)
                    changed = True
                conditions.update(other._conditions)
        if not changed:
            return self if self._conditions in JoinPath._POOL else JoinPath.interned(self._conditions)
        return JoinPath.interned(conditions)

    def with_condition(self, condition: JoinCondition) -> "JoinPath":
        """Return a new path extended with one atomic condition."""
        if condition in self._conditions:
            return JoinPath.interned(self._conditions)
        return JoinPath.interned(self._conditions | {condition})

    def canonical_key(self) -> Tuple[Tuple[str, str], ...]:
        """A deterministic total-order key: the sorted tuple of the
        conditions' canonical ``(first, second)`` pairs.  Used wherever
        rule groups must be processed in a stable, hash-independent
        order (e.g. :func:`repro.core.closure.minimize_policy`)."""
        if self._key is None:
            self._key = tuple(
                sorted((c._first, c._second) for c in self._conditions)
            )
        return self._key

    def is_empty(self) -> bool:
        """Whether the path contains no conditions."""
        return not self._conditions

    def issubset(self, other: "JoinPath") -> bool:
        """Whether every condition of this path appears in ``other``."""
        return self._conditions <= other._conditions

    def sorted_conditions(self) -> Tuple[JoinCondition, ...]:
        """The conditions in deterministic (lexicographic) order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._conditions))
        return self._sorted

    def __iter__(self) -> Iterator[JoinCondition]:
        return iter(self.sorted_conditions())

    def __len__(self) -> int:
        return len(self._conditions)

    def __contains__(self, condition: object) -> bool:
        return condition in self._conditions

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, JoinPath):
            return NotImplemented
        return self._hash == other._hash and self._conditions == other._conditions

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.sorted_conditions())
        return f"JoinPath({{{inner}}})"

    def __str__(self) -> str:
        if self.is_empty():
            return "-"
        return "{" + ", ".join(str(c) for c in self.sorted_conditions()) + "}"


def intern_path(path: JoinPath) -> JoinPath:
    """The canonical instance value-equal to ``path``.

    Identity-returning for already-canonical instances; used by the
    policy layer so index keys always hash and compare at interned speed.
    """
    cached = JoinPath._POOL.get(path._conditions)
    if cached is not None:
        return cached
    if len(JoinPath._POOL) < _MAX_INTERNED_PATHS:
        JoinPath._POOL[path._conditions] = path
    return path
