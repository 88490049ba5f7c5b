"""The interned representation kernel: attribute universes and bitset sets.

Every decision the model makes — Definition 3.3's ``CanView``, Figure 4
profile composition, the Section 3.2 chase, candidate enumeration, the
exhaustive baseline and the runtime audit — reduces to set algebra over
attribute names.  Representing those sets as Python ``frozenset`` objects
re-hashes the same strings over and over on large workloads.

This module fixes the representation without changing the semantics:

* :class:`AttributeUniverse` interns attribute names to stable *bit
  positions* (append-only, so positions never move as the universe
  grows), and

* :class:`AttrSet` is a ``frozenset`` **subclass** that additionally
  carries the universe it was interned in and the integer bitmask of its
  members.  Because it *is* a frozenset, every public API that consumed
  or produced ``AttributeSet`` values keeps working unchanged —
  equality, hashing, iteration, rendering and pickling against plain
  frozensets are exactly the built-in behaviour — while operations
  between two sets of the same universe (``|``, ``&``, ``-``, ``<=``,
  ``==`` …) short-circuit to single integer instructions.

Interning is by mask: asking a universe twice for the same member set
returns the same ``AttrSet`` object, so equality usually hits the
identity fast path and hashes are computed once per distinct set.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.algebra.attributes import validate_attribute_name
from repro.exceptions import SchemaError

#: Soft cap on the number of distinct interned sets a universe caches.
#: Past it, operations still return correct ``AttrSet`` objects — they
#: just stop being memoized, bounding memory on adversarial workloads.
_MAX_INTERNED_SETS = 1 << 16


class AttrSet(frozenset):
    """A bitmask-backed attribute set: a ``frozenset`` of names plus the
    :class:`AttributeUniverse` that interned it and the members' bitmask.

    Instances are created by :class:`AttributeUniverse`; calling
    ``AttrSet(iterable)`` directly degrades gracefully to a plain
    ``frozenset`` (no universe to intern against).

    Binary operations between two ``AttrSet`` of the *same* universe run
    on the masks; mixed operations against plain frozensets adopt the
    other operand into the universe when possible and otherwise fall
    back to the built-in frozenset behaviour, so correctness never
    depends on which representation an operand happens to use.
    """

    __slots__ = ("universe", "mask")

    def __new__(cls, names: Iterable[str] = ()):  # pragma: no cover - guard
        # Direct construction has no universe: degrade to a frozenset.
        return frozenset(names)

    @classmethod
    def _make(cls, universe: "AttributeUniverse", mask: int, names: Iterable[str]) -> "AttrSet":
        self = frozenset.__new__(cls, names)
        self.universe = universe
        self.mask = mask
        return self

    # -- mask helpers ---------------------------------------------------

    def _mask_of(self, other: object) -> Optional[int]:
        """Mask of ``other`` in this set's universe, adopting plain sets
        of known names; ``None`` when not maskable."""
        if isinstance(other, AttrSet) and other.universe is self.universe:
            return other.mask
        if isinstance(other, (frozenset, set)):
            return self.universe.try_mask(other)
        return None

    # -- algebra (mask fast paths, frozenset fallback) ------------------

    def __or__(self, other):
        if isinstance(other, (frozenset, set)):
            merged = self.universe.try_union(self, other)
            if merged is not None:
                return merged
        return frozenset.__or__(self, other)

    def __ror__(self, other):
        if isinstance(other, (frozenset, set)):
            merged = self.universe.try_union(self, other)
            if merged is not None:
                return merged
        return frozenset.__or__(self, frozenset(other))

    def __and__(self, other):
        other_mask = self._mask_of(other)
        if other_mask is not None:
            return self.universe.from_mask(self.mask & other_mask)
        return frozenset.__and__(self, other)

    __rand__ = __and__

    def __sub__(self, other):
        other_mask = self._mask_of(other)
        if other_mask is not None:
            return self.universe.from_mask(self.mask & ~other_mask)
        return frozenset.__sub__(self, other)

    def __rsub__(self, other):
        # other - self: unmaskable names in ``other`` survive, so only
        # the fully-known case can run on masks.
        if isinstance(other, (frozenset, set)):
            other_mask = self.universe.try_mask(other)
            if other_mask is not None:
                return self.universe.from_mask(other_mask & ~self.mask)
            return frozenset(other) - frozenset(self)
        return NotImplemented

    def __le__(self, other):
        other_mask = self._mask_of(other)
        if other_mask is not None:
            return (self.mask & ~other_mask) == 0
        return frozenset.__le__(self, other)

    def __lt__(self, other):
        other_mask = self._mask_of(other)
        if other_mask is not None:
            return self.mask != other_mask and (self.mask & ~other_mask) == 0
        return frozenset.__lt__(self, other)

    def __ge__(self, other):
        if isinstance(other, AttrSet) and other.universe is self.universe:
            return (other.mask & ~self.mask) == 0
        if isinstance(other, (frozenset, set)):
            other_mask = self.universe.try_mask(other)
            if other_mask is not None:
                return (other_mask & ~self.mask) == 0
            # A name unknown to the universe cannot be a member of self.
            return False
        return frozenset.__ge__(self, other)

    def __gt__(self, other):
        if isinstance(other, (frozenset, set)):
            return self.__ge__(other) and len(self) > len(other)
        return frozenset.__gt__(self, other)

    def issubset(self, other):
        return self.__le__(frozenset(other) if not isinstance(other, (set, frozenset)) else other)

    def issuperset(self, other):
        return self.__ge__(frozenset(other) if not isinstance(other, (set, frozenset)) else other)

    def __eq__(self, other):
        if isinstance(other, AttrSet) and other.universe is self.universe:
            return self.mask == other.mask
        return frozenset.__eq__(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Equality stays value-compatible with frozenset, so the hash must too.
    __hash__ = frozenset.__hash__

    def __repr__(self) -> str:
        return f"AttrSet({sorted(self)!r})"

    def __reduce__(self):
        # Pickle as a plain frozenset: universes are process-local.
        return (frozenset, (list(self),))


class AttributeUniverse:
    """Append-only interner mapping attribute names to bit positions.

    A universe is catalog-scoped in normal use (see
    :attr:`repro.algebra.schema.Catalog.universe`); policies without a
    catalog own a private one.  Positions are assigned in first-seen
    order and never change, so masks remain valid as the universe grows.
    """

    __slots__ = ("_positions", "_names", "_sets")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._positions: Dict[str, int] = {}
        self._names: List[str] = []
        self._sets: Dict[int, AttrSet] = {}
        for name in names:
            self.add(name)

    # -- membership -----------------------------------------------------

    def add(self, name: str) -> int:
        """Intern ``name`` (validating it) and return its bit position."""
        position = self._positions.get(name)
        if position is None:
            validate_attribute_name(name)
            position = len(self._names)
            self._positions[name] = position
            self._names.append(name)
        return position

    def position(self, name: str) -> int:
        """The bit position of an interned name.

        Raises:
            SchemaError: if the name was never interned.
        """
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"attribute {name!r} is not in this universe") from None

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    # -- masks ----------------------------------------------------------

    def try_mask(self, names: Iterable[str]) -> Optional[int]:
        """Bitmask of ``names``, or ``None`` if any name is unknown."""
        positions = self._positions
        mask = 0
        for name in names:
            position = positions.get(name)
            if position is None:
                return None
            mask |= 1 << position
        return mask

    def try_masks(self, name_sets: Iterable[Iterable[str]]) -> List[Optional[int]]:
        """Bitmasks of several name sets in one pass, ``None`` where a
        set contains an unknown name.

        The chase gathers its rules' masks through this:
        :class:`AttrSet` operands of this universe short-circuit to
        their cached masks without touching the name table, so N
        interned sets cost N attribute lookups total, not N set walks.
        """
        results: List[Optional[int]] = []
        for names in name_sets:
            if isinstance(names, AttrSet) and names.universe is self:
                results.append(names.mask)
            else:
                results.append(self.try_mask(names))
        return results

    def mask_of(self, names: Iterable[str]) -> int:
        """Bitmask of ``names``, interning unknown names on the fly."""
        positions = self._positions
        mask = 0
        for name in names:
            position = positions.get(name)
            if position is None:
                position = self.add(name)
            mask |= 1 << position
        return mask

    # -- interned sets --------------------------------------------------

    def attr_set(self, names: Iterable[str]) -> AttrSet:
        """The interned :class:`AttrSet` of ``names`` (names are interned
        too, so any validated name is acceptable)."""
        if isinstance(names, AttrSet) and names.universe is self:
            return names
        return self.from_mask(self.mask_of(names))

    def from_mask(self, mask: int) -> AttrSet:
        """The interned :class:`AttrSet` for ``mask``."""
        cached = self._sets.get(mask)
        if cached is not None:
            return cached
        names = self._names
        members = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            members.append(names[low.bit_length() - 1])
            remaining ^= low
        result = AttrSet._make(self, mask, members)
        if len(self._sets) < _MAX_INTERNED_SETS:
            self._sets[mask] = result
        return result

    def try_union(self, left: AttrSet, right: Iterable[str]) -> Optional[AttrSet]:
        """Union with adoption: interns ``right``'s names (they reached a
        set, so they are validated) and returns the interned union, or
        ``None`` when ``right`` cannot be interned."""
        if isinstance(right, AttrSet) and right.universe is left.universe:
            return self.from_mask(left.mask | right.mask)
        try:
            return self.from_mask(left.mask | self.mask_of(right))
        except SchemaError:  # pragma: no cover - unvalidated foreign names
            return None

    def empty(self) -> AttrSet:
        """The interned empty set."""
        return self.from_mask(0)

    def __repr__(self) -> str:
        return f"AttributeUniverse({len(self._names)} attributes)"
