"""Shuffle planning: HyperCube single-round vs multi-round fallback.

Given a certified :class:`~repro.sharding.checker.ShardCertificate`,
:func:`plan_shuffle` describes how each relation's data reaches the
shard where it joins:

* ``hypercube`` mode is the degenerate (and optimal) HyperCube grid for
  co-partitioned inputs: every sharded relation is already **local** to
  the right shard — zero shuffle rounds — and every unsharded relation
  is **broadcast** to each shard, exactly one round of fan-out.
* ``multiround`` mode is the classic join-at-a-time fallback: before
  each join step whose incoming relation is sharded, the accumulated
  intermediate is **repartitioned** on the step's join key so matching
  rows meet; compatible hash schemes guarantee the repartition uses the
  same routing function the base shards do.

:func:`execute_multiround` actually runs the fallback at the engine
level: each shard's join step is the table kernel
:meth:`~repro.engine.data.Table.equi_join`, and repartition/broadcast
shipments are audited with the group-lifted ``CanView`` before any row
moves — an unauthorized shuffle raises
:class:`~repro.exceptions.ShardingError` so the coordinator falls back
to single-copy execution instead of leaking.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.builder import QuerySpec
from repro.algebra.schema import Catalog
from repro.core.profile import RelationProfile
from repro.engine.data import Table
from repro.exceptions import ShardingError
from repro.sharding.checker import MODE_HYPERCUBE, ShardCertificate
from repro.sharding.scheme import HashPartitionScheme, PartitionScheme, merge_shards

#: Shuffle actions.
ACTION_LOCAL = "local"
ACTION_BROADCAST = "broadcast"
ACTION_REPARTITION = "repartition"


class ShuffleStep:
    """How one relation's rows reach the shards that join them."""

    __slots__ = ("relation", "action", "shards")

    def __init__(self, relation: str, action: str, shards: int) -> None:
        self.relation = relation
        self.action = action
        self.shards = shards

    def __repr__(self) -> str:
        return f"ShuffleStep({self.relation} {self.action} x{self.shards})"


class ShufflePlan:
    """The shuffle schedule for one certified partitioned execution.

    Attributes:
        mode: the certificate mode the plan was built for.
        steps: one :class:`ShuffleStep` per relation, FROM order.
        rounds: shuffle rounds needed (0 for pure-local hypercube over
            sharded relations only, 1 when broadcasts are needed, one
            extra round per repartition in multiround mode).
    """

    __slots__ = ("mode", "steps", "rounds")

    def __init__(self, mode: str, steps: Sequence[ShuffleStep]) -> None:
        self.mode = mode
        self.steps = tuple(steps)
        repartitions = sum(1 for s in self.steps if s.action == ACTION_REPARTITION)
        broadcasts = sum(1 for s in self.steps if s.action == ACTION_BROADCAST)
        self.rounds = repartitions + (1 if broadcasts else 0)

    def describe(self) -> str:
        """One line per relation, FROM order."""
        return "; ".join(
            f"{s.relation}:{s.action}" for s in self.steps
        ) + f" ({self.mode}, {self.rounds} round{'s' if self.rounds != 1 else ''})"

    def __repr__(self) -> str:
        return f"ShufflePlan({self.describe()})"


def plan_shuffle(
    spec: QuerySpec,
    schemes: Mapping[str, PartitionScheme],
    certificate: ShardCertificate,
) -> ShufflePlan:
    """Build the shuffle schedule a certificate's mode supports."""
    shard_counts = [schemes[name].shards for name in certificate.sharded]
    shards = shard_counts[0] if shard_counts else 1
    steps: List[ShuffleStep] = []
    if certificate.mode == MODE_HYPERCUBE:
        for name in spec.relations:
            action = ACTION_LOCAL if name in schemes else ACTION_BROADCAST
            steps.append(ShuffleStep(name, action, shards))
        return ShufflePlan(MODE_HYPERCUBE, steps)
    for index, name in enumerate(spec.relations):
        if name not in schemes:
            steps.append(ShuffleStep(name, ACTION_BROADCAST, shards))
        elif index == 0:
            steps.append(ShuffleStep(name, ACTION_LOCAL, schemes[name].shards))
        else:
            steps.append(ShuffleStep(name, ACTION_REPARTITION, schemes[name].shards))
    return ShufflePlan(certificate.mode, steps)


class ShuffleStats:
    """Row/byte accounting for one multi-round execution."""

    __slots__ = ("rounds", "repartitions", "broadcasts", "shipped_rows", "shipped_bytes")

    def __init__(self) -> None:
        self.rounds = 0
        self.repartitions = 0
        self.broadcasts = 0
        self.shipped_rows = 0
        self.shipped_bytes = 0

    def summary_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "repartitions": self.repartitions,
            "broadcasts": self.broadcasts,
            "shipped_rows": self.shipped_rows,
            "shipped_bytes": self.shipped_bytes,
        }


def _require_group_view(policy, profile, servers, exempt, context: str) -> None:
    """Group-lifted CanView gate: every non-exempt server must view
    ``profile`` or the shuffle refuses to move a single row."""
    for server in servers:
        if server in exempt:
            continue
        if not policy.can_view(profile, server):
            raise ShardingError(
                f"{context}: server {server!r} is not authorized for the "
                "shipped view; refusing the shuffle"
            )


def _mapped_key(
    scheme: PartitionScheme, step, accumulated_attrs
) -> List[str]:
    """The accumulated-side attributes aligning with ``scheme``'s key
    through the join step's conditions (certified to exist)."""
    key: List[str] = []
    conditions = sorted(step, key=lambda c: (c.first, c.second))
    for attr in scheme.attributes:
        partner: Optional[str] = None
        for condition in conditions:
            if condition.first == attr and condition.second in accumulated_attrs:
                partner = condition.second
                break
            if condition.second == attr and condition.first in accumulated_attrs:
                partner = condition.first
                break
        if partner is None:
            raise ShardingError(
                f"partition key attribute {attr!r} of {scheme.relation!r} is "
                "not equated by its join step (certificate mismatch)"
            )
        key.append(partner)
    return key


def execute_multiround(
    tables: Mapping[str, Table],
    spec: QuerySpec,
    schemes: Mapping[str, PartitionScheme],
    policy,
    catalog: Catalog,
    trace=None,
) -> Tuple[Table, ShuffleStats]:
    """Run the multi-round fallback: repartition, then join per shard.

    Left-deep evaluation with the accumulated intermediate horizontally
    partitioned throughout: a sharded incoming relation triggers a
    repartition of the intermediate onto the incoming scheme's grid, an
    unsharded one is broadcast.  Joins run per shard; selection and
    projection apply once at the end (algebraic equivalence to the
    pushed-down plan, since select/project distribute over union).

    Every shipment is audited with the group-lifted CanView *before* it
    happens — an unauthorized shuffle raises
    :class:`~repro.exceptions.ShardingError` with nothing moved.

    Returns:
        ``(result_table, stats)``.
    """
    relations = spec.relations
    first = relations[0]
    stats = ShuffleStats()
    first_schema = catalog.relation(first)
    acc_profile = RelationProfile.of_base_relation(first_schema)
    if first in schemes:
        scheme = schemes[first]
        fragments = scheme.split(tables[first])
        hosts = [scheme.placement(i) for i in range(scheme.shards)]
    else:
        fragments = [tables[first]]
        hosts = [first_schema.server]

    for step, incoming in zip(spec.join_paths, relations[1:]):
        schema = catalog.relation(incoming)
        incoming_profile = RelationProfile.of_base_relation(schema)
        if incoming in schemes:
            scheme = schemes[incoming]
            # Audit first: the repartitioned intermediate lands on every
            # group member, so the whole group must be able to view it.
            _require_group_view(
                policy,
                acc_profile,
                scheme.group.servers,
                exempt=(),
                context=f"repartition before joining {incoming!r}",
            )
            key = _mapped_key(scheme, step, acc_profile.attributes)
            router = HashPartitionScheme(
                "__intermediate__",
                key,
                scheme.shards,
                scheme.group,
                function=getattr(scheme, "function", "crc32"),
            )
            new_hosts = [scheme.placement(i) for i in range(scheme.shards)]
            routed: List[List[Table]] = [[] for _ in range(scheme.shards)]
            for source_index, fragment in enumerate(fragments):
                source = hosts[source_index % len(hosts)]
                for target_index, piece in enumerate(router.split(fragment)):
                    if len(piece) and new_hosts[target_index] != source:
                        stats.shipped_rows += len(piece)
                        stats.shipped_bytes += piece.byte_size()
                    routed[target_index].append(piece)
            # Every fragment contributes one piece per target.
            fragments = [pieces[0].union(*pieces[1:]) for pieces in routed]
            hosts = new_hosts
            right_shards = scheme.split(tables[incoming])
            stats.repartitions += 1
            stats.rounds += 1
            if trace is not None:
                trace.count("repro_shard_repartition_total")
                trace.event(
                    "shard_repartition",
                    "sharding",
                    relation=incoming,
                    shards=scheme.shards,
                    key=",".join(key),
                )
        else:
            # Broadcast: the full relation reaches every current host.
            _require_group_view(
                policy,
                incoming_profile,
                set(hosts),
                exempt={schema.server},
                context=f"broadcast of {incoming!r}",
            )
            right_shards = [tables[incoming]] * len(fragments)
            copies = sum(1 for h in set(hosts) if h != schema.server)
            if copies:
                stats.broadcasts += 1
                stats.shipped_rows += copies * len(tables[incoming])
                stats.shipped_bytes += copies * tables[incoming].byte_size()
            if trace is not None:
                trace.count("repro_shard_broadcast_total")
        fragments = [
            left.equi_join(right, step)
            for left, right in zip(fragments, right_shards)
        ]
        acc_profile = acc_profile.join(incoming_profile, step)

    merged = merge_shards(fragments)
    if merged is None:  # pragma: no cover - spec guarantees >= 1 relation
        raise ShardingError("multi-round execution produced no fragments")
    if stats.broadcasts and stats.rounds == 0:
        stats.rounds = 1
    return merged.select(spec.where).project(spec.select), stats
