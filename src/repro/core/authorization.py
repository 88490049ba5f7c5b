"""Authorizations and policies (Definition 3.1, Figure 3).

An authorization is a rule ``[Attributes, JoinPath] -> Server``:

1. ``Attributes`` is a set of attributes from one or more relations;
2. ``JoinPath`` is a join path including (at least) every relation
   contributing attributes — it may be empty when all attributes belong
   to a single relation, and it may mention *additional* relations for
   connectivity constraints or instance-based restrictions;
3. ``Server`` is the grantee.

The paper assumes a closed policy: anything not explicitly (or
derivably, see :mod:`repro.core.closure`) authorized is forbidden.
A :class:`Policy` is the set of authorizations of a distributed system,
indexed by grantee.

Beyond the plain per-server index, a policy maintains the *CanView
kernel* the whole planning stack runs on:

* an exact-path index ``(server, join path) -> rules`` — clause 2 of
  Definition 3.3 is an equality, so a check only ever probes one bucket;
* per-bucket **bitmasks** of each rule's granted attributes (interned in
  an :class:`~repro.algebra.universe.AttributeUniverse`), plus the
  bucket's union mask as a superset fast path — a profile whose exposed
  attributes are not even covered by the union cannot be covered by any
  single rule;
* one memo ``(server, profile) -> first covering rule or None`` that
  both :meth:`Policy.can_view` and :meth:`Policy.covering_rule` read,
  cleared wholesale whenever the policy mutates.

Policies additionally carry an **epoch** — a monotonic counter bumped by
every semantic mutation (:meth:`Policy.add`, :meth:`Policy.remove`).
The plan cache (:mod:`repro.core.plancache`) keys cached safe
assignments on the epoch they were last validated at: an unchanged epoch
means the policy is byte-for-byte the one the plan was proven safe
under, while a bumped epoch forces a cheap re-audit before reuse.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.algebra.attributes import AttributeSet, attribute_set, format_attribute_set
from repro.algebra.joins import JoinPath, intern_path
from repro.algebra.schema import Catalog
from repro.algebra.universe import AttributeUniverse, AttrSet
from repro.core.profile import RelationProfile
from repro.exceptions import AuthorizationError, PolicyError

#: Soft cap on memoized covering rules; the memo is dropped wholesale
#: when it fills (distinct profile signatures are workload-bounded in
#: practice, so this is a safety valve, not a tuning knob).
_MAX_COVERING_CACHE = 1 << 18

_MISS = object()


class Authorization:
    """A rule ``[Attributes, JoinPath] -> Server``.

    Instances are immutable and hashable; two rules are equal when their
    three components are equal (join-path equality is order-insensitive
    at the atomic-condition level, see :class:`~repro.algebra.joins.JoinPath`).
    The join path is stored in its canonical interned form, so rule
    hashing and policy-index probes run at interned speed.
    """

    __slots__ = ("_attributes", "_join_path", "_server", "_hash")

    def __init__(
        self,
        attributes: Iterable[str],
        join_path: Optional[JoinPath],
        server: str,
    ) -> None:
        self._attributes = attribute_set(attributes)
        if not self._attributes:
            raise AuthorizationError("an authorization must grant at least one attribute")
        if join_path is None:
            self._join_path = JoinPath.empty()
        elif isinstance(join_path, JoinPath):
            self._join_path = intern_path(join_path)
        else:
            raise AuthorizationError("join_path must be a JoinPath")
        if not server or not isinstance(server, str):
            raise AuthorizationError(f"invalid server name: {server!r}")
        self._server = server
        self._hash = hash((self._attributes, self._join_path, self._server))

    @property
    def attributes(self) -> AttributeSet:
        """The granted ``Attributes`` component."""
        return self._attributes

    @property
    def join_path(self) -> JoinPath:
        """The ``JoinPath`` component (canonical interned instance)."""
        return self._join_path

    @property
    def server(self) -> str:
        """The grantee server."""
        return self._server

    def validate_against(self, catalog: Catalog) -> None:
        """Check the rule's well-formedness w.r.t. a catalog.

        Definition 3.1 requires the join path to include (at least) all
        relations owning granted attributes: whenever the attributes span
        more than one relation, the join path must connect *all* of them
        (mention at least one attribute of each), and with an empty join
        path all attributes must belong to a single relation.

        Raises:
            AuthorizationError: if the rule violates Definition 3.1 or
                references unknown attributes.
        """
        granted_relations = set(catalog.relations_of(self._attributes))
        catalog.validate_join_path(self._join_path)
        if self._join_path.is_empty():
            if len(granted_relations) > 1:
                raise AuthorizationError(
                    f"attributes of {self} span relations {sorted(granted_relations)} "
                    "but the join path is empty"
                )
            return
        path_relations = set(catalog.relations_of(self._join_path.attributes))
        uncovered = granted_relations - path_relations
        # A single-relation grant with a join path is fine (instance-based
        # restriction) as long as that relation participates in the path.
        if uncovered:
            raise AuthorizationError(
                f"join path of {self} does not include relations {sorted(uncovered)} "
                "whose attributes are granted"
            )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Authorization):
            return NotImplemented
        return (
            self._server == other._server
            and self._join_path == other._join_path
            and self._attributes == other._attributes
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"[{format_attribute_set(self._attributes)}, {self._join_path}] -> "
            f"{self._server}"
        )

    __str__ = __repr__


class _PathBucket:
    """Index entry for one ``(server, join path)`` bucket: the rules, a
    parallel list of granted-attribute masks, and their union (the
    superset-mask fast path)."""

    __slots__ = ("rules", "masks", "union_mask")

    def __init__(self) -> None:
        self.rules: List[Authorization] = []
        self.masks: List[int] = []
        self.union_mask = 0

    def add(self, rule: Authorization, mask: int) -> None:
        self.rules.append(rule)
        self.masks.append(mask)
        self.union_mask |= mask

    def remove(self, rule: Authorization) -> None:
        index = self.rules.index(rule)
        del self.rules[index]
        del self.masks[index]
        self.union_mask = 0
        for mask in self.masks:
            self.union_mask |= mask


class Policy:
    """A set of authorizations indexed by grantee server.

    Iteration order and :meth:`rules_for` order are deterministic
    (insertion order per server); duplicates are rejected.

    Args:
        authorizations: initial rules.
        universe: the :class:`~repro.algebra.universe.AttributeUniverse`
            to intern granted attributes in — pass the owning catalog's
            (``catalog.universe``) so profile bitsets and rule bitsets
            share bit positions; by default the policy owns a private
            universe and adopts names as rules arrive.
    """

    def __init__(
        self,
        authorizations: Iterable[Authorization] = (),
        universe: Optional[AttributeUniverse] = None,
    ) -> None:
        self._universe = universe if universe is not None else AttributeUniverse()
        self._by_server: Dict[str, List[Authorization]] = {}
        # Exact-path index: Definition 3.3 compares join paths with
        # equality, so a CanView check only ever needs the rules whose
        # path equals the profile's — one dictionary probe instead of a
        # scan of the grantee's whole rule list.
        self._by_server_path: Dict[Tuple[str, JoinPath], _PathBucket] = {}
        self._all: set = set()
        # Stable 1-based id per rule in insertion order — the audit layer
        # stamps this onto transfer spans so a release is traceable to a
        # specific grant without serializing the whole rule.  Ids are
        # never reused: removal retires an id for good.
        self._rule_ids: Dict[Authorization, int] = {}
        self._next_rule_id = 1
        # Generation counter for external caches: every add/remove bumps it.
        self._epoch = 0
        # The one CanView memo: (server, profile) -> first covering rule
        # or None (see covering_rule).
        self._covering: Dict[
            Tuple[str, RelationProfile], Optional[Authorization]
        ] = {}
        # Cold-path counter: bumped only on cache misses, so the hot hit
        # path stays one dict probe.  Traced planners read the delta to
        # derive cache-hit ratios without touching the hit path.
        self._uncached_calls = 0
        for authorization in authorizations:
            self.add(authorization)

    @property
    def universe(self) -> AttributeUniverse:
        """The universe granted attributes are interned in."""
        return self._universe

    @property
    def epoch(self) -> int:
        """Semantic-generation counter for external caches.

        Every :meth:`add` and :meth:`remove` bumps it; a plan proven
        safe at epoch ``e`` is guaranteed still safe while the epoch
        stays ``e`` — any change forces revalidation (see
        :mod:`repro.core.plancache`).
        """
        return self._epoch

    def add(self, authorization: Authorization) -> None:
        """Add one rule.

        Adding clears the covering-rule memo.

        Raises:
            PolicyError: if the exact rule is already present.
        """
        if not isinstance(authorization, Authorization):
            raise PolicyError("policies contain Authorization objects")
        if authorization in self._all:
            raise PolicyError(f"duplicate authorization: {authorization}")
        self._all.add(authorization)
        self._rule_ids[authorization] = self._next_rule_id
        self._next_rule_id += 1
        self._by_server.setdefault(authorization.server, []).append(authorization)
        key = (authorization.server, authorization.join_path)
        bucket = self._by_server_path.get(key)
        if bucket is None:
            bucket = self._by_server_path[key] = _PathBucket()
        bucket.add(authorization, self._universe.mask_of(authorization.attributes))
        self._epoch += 1
        if self._covering:
            self._covering.clear()

    def remove(self, authorization: Authorization) -> None:
        """Revoke one rule.

        Removal clears the covering-rule memo and bumps the epoch; the
        rule's stable id is retired, never reassigned.

        Raises:
            PolicyError: if the rule is not in the policy.
        """
        if authorization not in self._all:
            raise PolicyError(f"cannot revoke absent authorization: {authorization}")
        self._all.discard(authorization)
        del self._rule_ids[authorization]
        rules = self._by_server[authorization.server]
        rules.remove(authorization)
        if not rules:
            del self._by_server[authorization.server]
        key = (authorization.server, authorization.join_path)
        bucket = self._by_server_path[key]
        bucket.remove(authorization)
        if not bucket.rules:
            del self._by_server_path[key]
        self._epoch += 1
        if self._covering:
            self._covering.clear()

    def extend_ignoring_duplicates(self, authorizations: Iterable[Authorization]) -> int:
        """Add rules, silently skipping exact duplicates; returns the
        number of rules actually added."""
        added = 0
        for authorization in authorizations:
            if authorization not in self._all:
                self.add(authorization)
                added += 1
        return added

    def rules_for(self, server: str) -> Tuple[Authorization, ...]:
        """All rules granted to ``server`` (the paper's ``view(S)``)."""
        return tuple(self._by_server.get(server, ()))

    def rule_id(self, authorization: Authorization) -> Optional[int]:
        """Stable 1-based insertion-order id of a rule (``None`` if the
        rule is not in this policy)."""
        return self._rule_ids.get(authorization)

    def rules_for_path(self, server: str, join_path: JoinPath) -> Tuple[Authorization, ...]:
        """The rules of ``server`` whose join path equals ``join_path``.

        This is the only bucket a Definition 3.3 check can match (clause
        2 is an equality), so ``CanView`` runs on it directly.
        """
        bucket = self._by_server_path.get((server, join_path))
        return tuple(bucket.rules) if bucket is not None else ()

    # ------------------------------------------------------------------
    # CanView kernel (Definition 3.3)
    # ------------------------------------------------------------------

    def can_view(self, profile, server: str) -> bool:
        """Memoized Definition 3.3 check: may ``server`` view ``profile``?

        Reads the covering-rule memo of :meth:`covering_rule` — the
        answer is whether a covering rule exists — so the hot hit path
        is a single dict probe.
        """
        rule = self._covering.get((server, profile), _MISS)
        if rule is _MISS:
            rule = self._cover(server, profile)
        return rule is not None

    def covering_rule(self, profile, server: str) -> Optional[Authorization]:
        """The first rule of ``server`` covering ``profile``, in policy
        order, or ``None`` — the rule the runtime audit stamps onto a
        permitted transfer.

        The memo is keyed ``(server, profile)`` — profiles hash by value
        (cached) and compare identity-first, so structurally equal
        profiles share one answer.  :meth:`add` and :meth:`remove`
        clear it, so a withdrawn rule is never returned again and a
        fresh grant is never a remembered denial.
        """
        rule = self._covering.get((server, profile), _MISS)
        if rule is _MISS:
            rule = self._cover(server, profile)
        return rule

    @property
    def uncached_can_view_calls(self) -> int:
        """How many CanView / covering-rule asks missed the memo."""
        return self._uncached_calls

    def _cover(self, server: str, profile) -> Optional[Authorization]:
        """The CanView kernel: probe the profile's exact-path bucket with
        integer masks and memoize the first covering rule (or ``None``)."""
        self._uncached_calls += 1
        rule = None
        bucket = self._by_server_path.get((server, profile.join_path))
        if bucket is not None:
            exposed = profile.exposed_attributes
            universe = self._universe
            if isinstance(exposed, AttrSet) and exposed.universe is universe:
                exposed_mask = exposed.mask
            else:
                # ``None`` when some exposed attribute was never granted
                # by any rule of this policy: no rule can cover it.
                exposed_mask = universe.try_mask(exposed)
            # Superset fast path: not even the union of the bucket's
            # grants covers the exposure.
            if exposed_mask is not None and not exposed_mask & ~bucket.union_mask:
                for candidate, mask in zip(bucket.rules, bucket.masks):
                    if not exposed_mask & ~mask:
                        rule = candidate
                        break
        cache = self._covering
        if len(cache) >= _MAX_COVERING_CACHE:
            cache.clear()
        cache[(server, profile)] = rule
        return rule

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def servers(self) -> List[str]:
        """All grantee servers, sorted."""
        return sorted(self._by_server)

    def validate_against(self, catalog: Catalog) -> None:
        """Validate every rule against ``catalog`` (Definition 3.1)."""
        for authorization in self:
            authorization.validate_against(catalog)

    def copy(self) -> "Policy":
        """An independent shallow copy (rules are immutable).

        The copy shares the universe — universes are append-only
        interners, so sharing is safe and keeps masks comparable across
        the copies.
        """
        return Policy(self, universe=self._universe)

    def __contains__(self, authorization: object) -> bool:
        return authorization in self._all

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Authorization]:
        for server in sorted(self._by_server):
            yield from self._by_server[server]

    def __repr__(self) -> str:
        return f"Policy({len(self._all)} rules, servers={self.servers()})"

    def describe(self) -> str:
        """Figure 3 style rendering, one rule per line."""
        return "\n".join(str(a) for a in self)
