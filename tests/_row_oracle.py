"""The frozen row-at-a-time reference implementation of ``Table``.

This is the seed ``repro.engine.data.Table`` — tuple rows, ``set``
dedup, eager canonical sort in the constructor, one full new table per
operator — kept verbatim as the differential-testing oracle for the
batch-first columnar engine.  If the columnar ``Table`` and this class
ever disagree on any operator result, the columnar engine is wrong.

Two deliberate deviations from the seed, both specified by the
batch-first contract (and covered by dedicated regression tests):

1. ``semi_join_filter`` skips ``None`` join keys on *both* sides, the
   same null semantics ``equi_join`` and ``natural_join`` always had.
   The seed let a ``None`` probe key match a ``None`` build key, so a
   row with an unknown key survived a semi-join reduction that the
   subsequent recombination join would then drop — the filter claimed
   matches the join denies.
2. ``project`` raises on a duplicated requested column instead of
   silently collapsing the duplicates; the result keeps table attribute
   order, which the seed also did but never promised.

Everything else — canonical row order, equality/hash, byte accounting,
error messages — is the seed byte for byte.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.exceptions import ExecutionError

_SCALARS = (str, int, float, bool)

Row = Tuple[object, ...]


def _check_value(value: object) -> object:
    if value is None or isinstance(value, _SCALARS):
        return value
    raise ExecutionError(
        f"cell values must be scalars (str/int/float/bool/None), got "
        f"{type(value).__name__}"
    )


class OracleTable:
    """The seed's immutable relation instance (see module docstring)."""

    __slots__ = ("_attributes", "_index", "_rows")

    def __init__(self, attributes: Sequence[str], rows: Iterable[Row] = ()) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ExecutionError(f"duplicate column names: {attrs}")
        if not attrs:
            raise ExecutionError("a table needs at least one column")
        self._attributes = attrs
        self._index = {name: i for i, name in enumerate(attrs)}
        unique = set()
        for row in rows:
            row = tuple(_check_value(v) for v in row)
            if len(row) != len(attrs):
                raise ExecutionError(
                    f"row arity {len(row)} does not match schema arity {len(attrs)}"
                )
            unique.add(row)
        self._rows: Tuple[Row, ...] = tuple(
            sorted(unique, key=lambda r: tuple((v is None, str(type(v)), str(v)) for v in r))
        )

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Iterable[Mapping[str, object]]
    ) -> "OracleTable":
        attrs = tuple(attributes)
        return cls(attrs, (tuple(row.get(a) for a in attrs) for row in rows))

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "OracleTable":
        return cls(attributes, ())

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def rows(self) -> Tuple[Row, ...]:
        return self._rows

    def row_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self._attributes, row)) for row in self._rows]

    def column(self, attribute: str) -> List[object]:
        index = self._column_index(attribute)
        return [row[index] for row in self._rows]

    def distinct_count(self, attribute: str) -> int:
        index = self._column_index(attribute)
        return len({row[index] for row in self._rows})

    def byte_size(self) -> int:
        return sum(len(str(v)) for row in self._rows for v in row)

    def _column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError:
            raise ExecutionError(
                f"table has no column {attribute!r}; columns: {self._attributes}"
            ) from None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleTable):
            return NotImplemented
        return (
            frozenset(self._attributes) == frozenset(other._attributes)
            and self._row_set() == other._row_set()
        )

    def _row_set(self) -> FrozenSet[FrozenSet[Tuple[str, object]]]:
        return frozenset(
            frozenset(zip(self._attributes, row)) for row in self._rows
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._attributes), self._row_set()))

    def __repr__(self) -> str:
        return f"OracleTable({list(self._attributes)}, {len(self._rows)} rows)"

    def project(self, attributes: Iterable[str]) -> "OracleTable":
        requested = list(attributes)
        # Deviation 2: reject duplicated requested columns (the seed
        # silently collapsed them through a set).
        if len(set(requested)) != len(requested):
            seen: set = set()
            duplicates = sorted({a for a in requested if a in seen or seen.add(a)})
            raise ExecutionError(f"cannot project on duplicated columns: {duplicates}")
        attrs = [a for a in self._attributes if a in set(requested)]
        missing = set(requested) - set(self._attributes)
        if missing:
            raise ExecutionError(f"cannot project on missing columns: {sorted(missing)}")
        indices = [self._index[a] for a in attrs]
        return OracleTable(attrs, (tuple(row[i] for i in indices) for row in self._rows))

    def select(self, predicate) -> "OracleTable":
        kept = [
            row
            for row, as_dict in zip(self._rows, self.row_dicts())
            if predicate.evaluate(as_dict)
        ]
        return OracleTable(self._attributes, kept)

    def equi_join(self, other: "OracleTable", conditions) -> "OracleTable":
        pairs: List[Tuple[int, int]] = []
        for condition in conditions:
            if condition.first in self._index and condition.second in other._index:
                pairs.append((self._index[condition.first], other._index[condition.second]))
            elif condition.second in self._index and condition.first in other._index:
                pairs.append((self._index[condition.second], other._index[condition.first]))
            else:
                raise ExecutionError(
                    f"join condition {condition} does not bridge the tables"
                )
        overlap = set(self._attributes) & set(other._attributes)
        if overlap:
            raise ExecutionError(
                f"equi-join operands share columns {sorted(overlap)}; use "
                "natural_join for recombination joins"
            )
        buckets: Dict[Tuple[object, ...], List[Row]] = {}
        for row in other._rows:
            key = tuple(row[j] for _, j in pairs)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(row)
        joined = []
        for row in self._rows:
            key = tuple(row[i] for i, _ in pairs)
            if any(v is None for v in key):
                continue
            for match in buckets.get(key, ()):
                joined.append(row + match)
        return OracleTable(self._attributes + other._attributes, joined)

    def natural_join(self, other: "OracleTable") -> "OracleTable":
        shared = [a for a in self._attributes if a in other._index]
        if not shared:
            raise ExecutionError("natural join requires at least one shared column")
        other_extra = [a for a in other._attributes if a not in self._index]
        self_idx = [self._index[a] for a in shared]
        other_idx = [other._index[a] for a in shared]
        extra_idx = [other._index[a] for a in other_extra]
        buckets: Dict[Tuple[object, ...], List[Row]] = {}
        for row in other._rows:
            key = tuple(row[j] for j in other_idx)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(tuple(row[j] for j in extra_idx))
        joined = []
        for row in self._rows:
            key = tuple(row[i] for i in self_idx)
            if any(v is None for v in key):
                continue
            for extra in buckets.get(key, ()):
                joined.append(row + extra)
        return OracleTable(self._attributes + tuple(other_extra), joined)

    def semi_join_filter(self, probe: "OracleTable") -> "OracleTable":
        shared = [a for a in self._attributes if a in probe._index]
        if not shared:
            raise ExecutionError("semi-join filter requires shared columns")
        # Deviation 1: None keys never match, on either side (the seed
        # let None-keyed rows pair up through plain tuple equality).
        probe_keys = set()
        for row in probe._rows:
            key = tuple(row[probe._index[a]] for a in shared)
            if any(v is None for v in key):
                continue
            probe_keys.add(key)
        self_idx = [self._index[a] for a in shared]
        kept = []
        for row in self._rows:
            key = tuple(row[i] for i in self_idx)
            if any(v is None for v in key):
                continue
            if key in probe_keys:
                kept.append(row)
        return OracleTable(self._attributes, kept)

    def union(self, other: "OracleTable") -> "OracleTable":
        if frozenset(self._attributes) != frozenset(other._attributes):
            raise ExecutionError("union requires identical column sets")
        indices = [other._index[a] for a in self._attributes]
        aligned = tuple(tuple(row[i] for i in indices) for row in other._rows)
        return OracleTable(self._attributes, self._rows + aligned)


# ---------------------------------------------------------------------------
# Plan-level reference
# ---------------------------------------------------------------------------


def oracle_evaluate(plan, oracle_tables: Mapping[str, OracleTable]) -> OracleTable:
    """Evaluate a query tree plan over :class:`OracleTable` instances,
    one full new table per node — the plan-level reference for
    ``evaluate_plan`` and the distributed executor."""
    from repro.algebra.tree import PROJECT, LeafNode, UnaryNode

    def walk(node) -> OracleTable:
        if isinstance(node, LeafNode):
            return oracle_tables[node.relation.name]
        if isinstance(node, UnaryNode):
            child = walk(node.left)
            if node.operator == PROJECT:
                return child.project(node.projection_attributes)
            return child.select(node.predicate)
        return walk(node.left).equi_join(walk(node.right), node.path)

    return walk(plan.root)


# ---------------------------------------------------------------------------
# Shard / merge reference (PR: sharded relations)
# ---------------------------------------------------------------------------
#
# Row-at-a-time reference for horizontal partitioning.  Routing
# canonicalizes each key value to its equality-class representative
# *independently* of the library's implementation: Python equality makes
# ``1 == 1.0 == True`` one class (and ``-0.0 == 0``), so two rows whose
# keys would compare equal in a join must never route to different
# shards, whatever surface representation they carry.  The differential
# suite drives both this reference and ``repro.sharding`` through the
# same ``shard_of`` and asserts identical placement and identical
# shard-merge round trips on exactly those alias corners.


def oracle_canonical_key(value: object) -> object:
    """Equality-class representative of one key value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        # Covers -0.0 -> 0 as well: (-0.0).is_integer() is True and
        # int(-0.0) == 0.
        return int(value)
    return value


def oracle_shard(
    table: OracleTable,
    key_attributes: Sequence[str],
    shards: int,
    shard_of,
) -> List[OracleTable]:
    """Route every (deduped, canonical-order) row of ``table`` by its
    canonicalized key through ``shard_of``.

    ``shard_of`` is the routing function under test (e.g. a
    ``PartitionScheme.shard_of`` bound method): the oracle exercises the
    *plumbing* — dedup before routing, canonicalization, exhaustive and
    disjoint placement — not the hash function itself.
    """
    indices = [table._column_index(a) for a in key_attributes]
    routed: List[List[Row]] = [[] for _ in range(shards)]
    for row in table.rows:
        key = tuple(oracle_canonical_key(row[i]) for i in indices)
        target = shard_of(key)
        if not 0 <= target < shards:
            raise ExecutionError(
                f"shard_of returned {target} outside [0, {shards})"
            )
        routed[target].append(row)
    return [OracleTable(table.attributes, rows) for rows in routed]


def oracle_merge(tables: Sequence[OracleTable]) -> OracleTable:
    """Union-fold of shards back into one table (dedup + canonical
    order come from the ``OracleTable`` constructor)."""
    if not tables:
        raise ExecutionError("cannot merge zero shards")
    merged = tables[0]
    for table in tables[1:]:
        merged = merged.union(table)
    return merged
