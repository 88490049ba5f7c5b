"""Horizontal partition schemes and authorization-lifted server groups.

The paper places each relation as a single copy on one server; ROADMAP
item #2 extends the model with *horizontal sharding*: a relation's rows
are split across a :class:`PartitionGroup` of servers according to a
:class:`PartitionScheme` — hash or range on (join) attributes — so a
large join can run partition-parallel, one shard per group member.

Two invariants anchor everything in this module:

* **Routing respects value equality.**  The columnar engine's intern
  pool treats ``1``, ``1.0`` and ``True`` as one equivalence class
  (plain Python ``==``), and join keys match by class.  Shard routing
  therefore canonicalizes values to their class representative before
  hashing or comparing, so two rows that *would join* can never be
  routed apart by a representation difference (``shard_of`` is a
  function of the value class, which the differential suite asserts on
  the alias corners).

* **Groups never widen visibility.**  A :class:`PartitionGroup` lifts
  ``CanView`` from single servers to the whole group by conjunction —
  the group can view a profile only if *every* member can.  Placing a
  shard at a member is an information release to that member, so the
  parallel-correctness checker (:mod:`repro.sharding.checker`) gates
  partitioned execution on the group-lifted check; no shard placement
  can expose a view some member is not individually authorized for.

Scheme constructors validate eagerly (empty groups, overlapping range
boundaries, unknown or duplicate attributes, degenerate shard counts all
raise :class:`~repro.exceptions.PartitionSchemeError`), mirroring the
fault-schedule constructor validation in
:mod:`repro.distributed.faults`.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.algebra.schema import Catalog
from repro.engine.data import Table
from repro.exceptions import PartitionSchemeError

#: Hard ceiling on shard counts — far above any sensible fan-out, low
#: enough that a typo (``shards=4000``) fails fast instead of building
#: thousands of empty tables.
MAX_SHARDS = 64


def canonical_shard_key(value: object) -> object:
    """The routing representative of ``value``'s equality class.

    The intern pool's classes are plain ``==`` classes, so ``1``,
    ``1.0`` and ``True`` must route identically: booleans collapse to
    ints, integral floats collapse to ints (which also folds ``-0.0``
    into ``0``), and everything else represents itself.
    """
    if value is None or value is True or value is False:
        return int(value) if value is not None else None
    if isinstance(value, bool):  # pragma: no cover - covered by identity above
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _hash_token(value: object) -> bytes:
    """A deterministic byte rendering of a canonical routing key.

    Type-tagged so ``1`` and ``"1"`` stay distinct (they are different
    equality classes), stable across processes (no reliance on
    ``hash()`` and its per-run string seed).
    """
    value = canonical_shard_key(value)
    if value is None:
        return b"\x00none"
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f:" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8", "surrogatepass")
    return b"o:" + repr(value).encode("utf-8", "surrogatepass")


class PartitionGroup:
    """A named, ordered group of servers hosting one relation's shards.

    Shard ``i`` of a scheme over this group is placed at
    ``member(i)`` (round-robin when there are more shards than
    members).  The group's ``CanView`` is the *conjunction* of its
    members' — lifting authorization checks to the group can only ever
    shrink what is viewable, never widen it.
    """

    __slots__ = ("_name", "_servers")

    def __init__(self, name: str, servers: Sequence[str]) -> None:
        if not name or not isinstance(name, str):
            raise PartitionSchemeError(f"invalid partition group name: {name!r}")
        members = tuple(servers)
        if not members:
            raise PartitionSchemeError(
                f"partition group {name!r} has no member servers"
            )
        seen = set()
        for server in members:
            if not server or not isinstance(server, str):
                raise PartitionSchemeError(
                    f"partition group {name!r} has an invalid server: {server!r}"
                )
            if server in seen:
                raise PartitionSchemeError(
                    f"partition group {name!r} lists server {server!r} twice"
                )
            seen.add(server)
        self._name = name
        self._servers = members

    @property
    def name(self) -> str:
        """Group name (used in traces and error messages)."""
        return self._name

    @property
    def servers(self) -> Tuple[str, ...]:
        """Member servers, in placement order."""
        return self._servers

    def member(self, shard: int) -> str:
        """The server hosting shard ``shard`` (round-robin placement)."""
        return self._servers[shard % len(self._servers)]

    def __len__(self) -> int:
        return len(self._servers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionGroup):
            return NotImplemented
        return self._name == other._name and self._servers == other._servers

    def __hash__(self) -> int:
        return hash((self._name, self._servers))

    def __repr__(self) -> str:
        return f"PartitionGroup({self._name!r}, {list(self._servers)!r})"


class PartitionScheme:
    """Base class: how one relation's rows map to shard indexes.

    Subclasses implement :meth:`shard_of` over the canonical routing
    keys of the scheme's partition attributes.  Everything else —
    validation, splitting a :class:`~repro.engine.data.Table` into
    per-shard tables, placement — is shared.

    Args:
        relation: name of the partitioned relation.
        attributes: partition-key attributes, in alignment order (the
            checker aligns the k-th attribute of one scheme with the
            k-th of its join partner).
        shards: number of shards, ``2 <= shards <= MAX_SHARDS``.
        group: the :class:`PartitionGroup` hosting the shards.
    """

    kind = "abstract"

    __slots__ = ("_relation", "_attributes", "_shards", "_group")

    def __init__(
        self,
        relation: str,
        attributes: Sequence[str],
        shards: int,
        group: PartitionGroup,
    ) -> None:
        if not relation or not isinstance(relation, str):
            raise PartitionSchemeError(f"invalid relation name: {relation!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise PartitionSchemeError(
                f"partition scheme for {relation!r} has no partition attributes"
            )
        if len(set(attrs)) != len(attrs):
            raise PartitionSchemeError(
                f"partition scheme for {relation!r} repeats attributes: {list(attrs)}"
            )
        if not isinstance(shards, int) or isinstance(shards, bool):
            raise PartitionSchemeError(
                f"shard count must be an int, got {shards!r}"
            )
        if shards < 2 or shards > MAX_SHARDS:
            raise PartitionSchemeError(
                f"shard count must be in [2, {MAX_SHARDS}], got {shards}"
            )
        if not isinstance(group, PartitionGroup):
            raise PartitionSchemeError(
                f"group must be a PartitionGroup, got {type(group).__name__}"
            )
        self._relation = relation
        self._attributes = attrs
        self._shards = shards
        self._group = group

    # -- accessors ------------------------------------------------------

    @property
    def relation(self) -> str:
        """The partitioned relation's name."""
        return self._relation

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Partition-key attributes in alignment order."""
        return self._attributes

    @property
    def shards(self) -> int:
        """Number of shards."""
        return self._shards

    @property
    def group(self) -> PartitionGroup:
        """The hosting server group."""
        return self._group

    def placement(self, shard: int) -> str:
        """The server hosting ``shard``."""
        return self._group.member(shard)

    # -- routing --------------------------------------------------------

    def shard_of(self, key: Tuple[object, ...]) -> int:
        """Shard index of one partition-key valuation (canonical-class
        semantics; subclasses implement)."""
        raise NotImplementedError

    def compatibility_signature(self) -> Tuple[object, ...]:
        """What must agree for two schemes to co-partition a join.

        Two schemes whose signatures differ can route equal join keys to
        different shard indexes, so the checker refuses to certify a
        partitioned join across them.
        """
        raise NotImplementedError

    def routing_key(self) -> Tuple[object, ...]:
        """What :meth:`split` depends on, by value: two schemes with
        equal routing keys split any table identically (the group only
        says where the shards live), so resident shards are shared
        between equal schemes built twice."""
        return (self.compatibility_signature(), self._attributes)

    def split(self, table: Table) -> List[Table]:
        """Partition ``table`` into ``shards`` disjoint tables.

        Routing reads the partition attributes of each (deduplicated)
        row, so the shards are pairwise disjoint and their union is
        exactly the input — the algebraic fact the differential suite
        leans on.  The kernel is columnar: each *distinct* key (as
        interned ids) goes through :meth:`shard_of` once, and the id
        columns are bucketed by :meth:`Table.partition
        <repro.engine.data.Table.partition>` without
        materializing rows.

        Raises:
            PartitionSchemeError: if the table lacks a partition
                attribute.
        """
        columns = table.attributes
        missing = [a for a in self._attributes if a not in columns]
        if missing:
            raise PartitionSchemeError(
                f"table for {self._relation!r} is missing partition "
                f"attributes {missing} (has {list(columns)})"
            )
        key_columns = [table.column_ids(a) for a in self._attributes]
        value = table.pool.value
        shard_of = self.shard_of
        if len(key_columns) == 1:
            keys: Sequence = key_columns[0]
            route = {i: shard_of((value(i),)) for i in set(keys)}
        else:
            keys = list(zip(*key_columns))
            route = {
                key: shard_of(tuple(value(i) for i in key)) for key in set(keys)
            }
        return table.partition([route[key] for key in keys], self._shards)

    def validate_against(self, catalog: Catalog) -> None:
        """Check the scheme names a real relation and real attributes.

        Raises:
            PartitionSchemeError: unknown relation, or a partition
                attribute the relation does not have.
        """
        if self._relation not in catalog:
            raise PartitionSchemeError(
                f"partition scheme names unknown relation {self._relation!r}"
            )
        schema = catalog.relation(self._relation)
        unknown = [a for a in self._attributes if a not in schema.attributes]
        if unknown:
            raise PartitionSchemeError(
                f"partition scheme for {self._relation!r} names attributes "
                f"{unknown} not in the relation (has {list(schema.attributes)})"
            )

    def describe(self) -> str:
        """One line for traces and the CLI."""
        flavor = getattr(self, "function", "")
        label = f"{self.kind}[{flavor}]" if flavor else self.kind
        return (
            f"{label}({', '.join(self._attributes)}) x{self._shards} "
            f"@ {self._group.name}[{', '.join(self._group.servers)}]"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._relation!r}: {self.describe()})"


class HashPartitionScheme(PartitionScheme):
    """Hash partitioning on one or more attributes.

    The hash family is named by ``function``; two hash schemes
    co-partition a join only when they share the family, the shard
    count and the key arity — a join key split across *incompatible*
    hash functions is exactly the adversarial case the checker must
    reject, because equal keys would land on different shards.

    The default family ``crc32`` is CRC-32 over the type-tagged
    canonical byte rendering of the key — deterministic across
    processes and runs, and constant on each intern-pool value class.
    """

    kind = "hash"

    __slots__ = ("_function", "_salt")

    def __init__(
        self,
        relation: str,
        attributes: Sequence[str],
        shards: int,
        group: PartitionGroup,
        function: str = "crc32",
    ) -> None:
        super().__init__(relation, attributes, shards, group)
        if not function or not isinstance(function, str):
            raise PartitionSchemeError(f"invalid hash function name: {function!r}")
        self._function = function
        self._salt = zlib.crc32(function.encode("utf-8"))

    @property
    def function(self) -> str:
        """The hash family name."""
        return self._function

    def shard_of(self, key: Tuple[object, ...]) -> int:
        digest = self._salt
        for value in key:
            token = _hash_token(value)
            digest = zlib.crc32(token, digest)
            digest = zlib.crc32(b"\x1f", digest)  # field separator
        return digest % self._shards

    def compatibility_signature(self) -> Tuple[object, ...]:
        return ("hash", self._function, self._shards, len(self._attributes))


class RangePartitionScheme(PartitionScheme):
    """Range partitioning on a single attribute.

    ``boundaries`` are the strictly-increasing split points: shard 0
    holds keys ``< boundaries[0]``, shard ``i`` holds
    ``boundaries[i-1] <= key < boundaries[i]``, the last shard holds the
    rest, so ``shards == len(boundaries) + 1``.  Equal or out-of-order
    boundaries describe *overlapping ranges* and are rejected at
    construction.  ``None`` keys (which can never match a join anyway)
    route to shard 0 by convention so routing stays total and
    deterministic.
    """

    kind = "range"

    __slots__ = ("_boundaries",)

    def __init__(
        self,
        relation: str,
        attribute: str,
        boundaries: Sequence[object],
        group: PartitionGroup,
    ) -> None:
        bounds = tuple(canonical_shard_key(b) for b in boundaries)
        if not bounds:
            raise PartitionSchemeError(
                f"range scheme for {relation!r} needs at least one boundary"
            )
        if any(b is None for b in bounds):
            raise PartitionSchemeError(
                f"range scheme for {relation!r} has a None boundary"
            )
        for left, right in zip(bounds, bounds[1:]):
            try:
                overlapping = not left < right
            except TypeError:
                raise PartitionSchemeError(
                    f"range scheme for {relation!r} mixes incomparable "
                    f"boundary types: {left!r} vs {right!r}"
                ) from None
            if overlapping:
                raise PartitionSchemeError(
                    f"range scheme for {relation!r} has overlapping ranges: "
                    f"boundary {right!r} does not exceed {left!r}"
                )
        super().__init__(relation, (attribute,), len(bounds) + 1, group)
        self._boundaries = bounds

    @property
    def boundaries(self) -> Tuple[object, ...]:
        """The canonicalized split points."""
        return self._boundaries

    def shard_of(self, key: Tuple[object, ...]) -> int:
        value = canonical_shard_key(key[0])
        if value is None:
            return 0
        try:
            return bisect_right(self._boundaries, value)
        except TypeError:
            raise PartitionSchemeError(
                f"range scheme for {self._relation!r} cannot order value "
                f"{value!r} against boundaries {list(self._boundaries)}"
            ) from None

    def compatibility_signature(self) -> Tuple[object, ...]:
        return ("range", self._boundaries, self._shards, 1)


def merge_shards(shards: Iterable[Table]) -> Optional[Table]:
    """Union per-shard result tables back into one relation.

    The engine's n-ary :meth:`~repro.engine.data.Table.union`
    concatenates the shards once and deduplicates once on value classes
    (row order stays lazy, as everywhere in the engine), so merging is
    exactly the single-copy semantics regardless of how rows were
    routed.  Returns ``None`` for an empty iterable.
    """
    tables = list(shards)
    return tables[0].union(*tables[1:]) if tables else None
