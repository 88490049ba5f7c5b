"""Chase-based closure of a policy (Section 3.2).

The paper observes that a server should be allowed to view a relation
even without an explicit authorization whenever it holds authorizations
for all the underlying relations and could therefore compute the view by
itself, and assumes policies are closed under such derivations "by means
of a chase procedure [Aho-Beeri-Ullman]" without spelling it out.

We implement the derivation the observation licenses, bounded by the
catalog's declared join edges (the "lines" of Figure 1):

    **Join derivation.**  From two rules of the same server,
    ``[A1, J1] -> S`` and ``[A2, J2] -> S``, and a join edge ``a = b``
    with ``a in A1`` and ``b in A2``, derive
    ``[A1 ∪ A2, J1 ∪ J2 ∪ {a=b}] -> S``.

The rule is *sound*: ``S`` can materialize the two authorized views and
join them locally on attributes it is allowed to see, so the derived
view discloses nothing new to ``S``.  Projections need no derivation
(Definition 3.3 already compares attributes with ``⊆``) and neither do
selections (selection attributes are drawn from the visible ones).

The fixpoint is finite — attribute sets and join paths are subsets of
finite universes — but can be exponential in adversarial policies, so
:func:`close_policy` takes a ``max_rules`` safety valve.

:func:`minimize_policy` is the inverse housekeeping step: it drops rules
*dominated* by another rule of the same server (same join path, subset
attributes), which never changes any ``CanView`` answer.

:func:`close_policy` and :func:`extend_closure` share one semi-naive
chase on integers: a rule is ``(attribute mask, path mask)`` — attribute
bits from the policy's universe, condition bits from a call-local table
seeded with the catalog edges plus every condition of the rules it meets
(a granted path need not be a declared edge) — so the bridge test, both
unions and the duplicate probe are int ops, and an :class:`Authorization`
is built only for a genuinely new rule.

A closed policy is maintained *in place* under both kinds of update.  A
grant chases from the new rule alone: every derivation absent from the
old fixpoint involves a new rule, and every new rule enters the frontier
and meets its grantee's complete rule set.  A revocation does the same
after a drop: the derivation only joins rules of one server, so the
closure is a disjoint union of per-server closures and a removed rule
can only strand derivations of its own grantee — drop that server's
rules and :func:`extend_closure` with its surviving explicit ones.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterable, List, Set, Tuple

from repro.algebra.joins import JoinCondition, JoinPath
from repro.algebra.schema import Catalog
from repro.core.authorization import Authorization, Policy
from repro.exceptions import PolicyError


def derive_joined_authorizations(
    first: Authorization,
    second: Authorization,
    join_edges: Iterable[JoinCondition],
) -> List[Authorization]:
    """All single-edge join derivations combining two rules.

    Both rules must belong to the same server; each applicable edge — one
    endpoint granted by ``first``, the other by ``second`` — yields one
    derived rule.  Returns an empty list when the servers differ or no
    edge applies.
    """
    if first.server != second.server:
        return []
    left, right = first.attributes, second.attributes
    return [
        Authorization(
            left | right,
            first.join_path.union(second.join_path).with_condition(edge),
            first.server,
        )
        for edge in join_edges
        if (edge.first in left and edge.second in right)
        or (edge.second in left and edge.first in right)
    ]


def close_policy(
    policy: Policy,
    catalog: Catalog,
    max_rules: int = 10_000,
    obs=None,
) -> Policy:
    """Close ``policy`` under the join derivation, to a fixpoint.

    Args:
        policy: the explicitly specified rules (left untouched; a new
            policy is returned).
        catalog: supplies the join edges bounding the derivation.
        max_rules: safety valve; exceeding it raises
            :class:`~repro.exceptions.PolicyError` rather than silently
            truncating the closure.
        obs: optional :class:`~repro.obs.trace.TraceContext`; when set,
            the chase emits one span per breadth-first round plus
            ``repro_chase_*`` counters.

    Returns:
        A new :class:`Policy` containing the original rules plus every
        derivable one.
    """
    # Intern derivations in the catalog universe so derived-rule masks
    # line up with profile bitsets built from the same catalog.
    closed = Policy(policy, universe=catalog.universe)
    # Every rule starts on the frontier; breadth-first order makes the
    # derivation (and so per-server rule insertion order) deterministic:
    # shallow derivations precede the deeper rules they enable.
    with _span(obs, "close_policy", explicit_rules=len(policy)):
        _chase(closed, closed, catalog.join_edges(), max_rules, obs)
    return closed


def extend_closure(
    closed: Policy,
    new_rules: Iterable[Authorization],
    catalog: Catalog,
    max_rules: int = 10_000,
    obs=None,
) -> int:
    """Extend an already-closed policy with new rules, incrementally.

    ``closed`` is mutated in place: each genuinely new rule is added and
    the join derivation is chased from those rules' frontier until the
    fixpoint is restored.  Rules already present (explicitly or as prior
    derivations) are skipped silently — re-granting a derivable view is
    a no-op.

    Args:
        closed: a policy already closed under the join derivation.
        new_rules: the arriving explicit rules.
        catalog: supplies the join edges bounding the derivation.
        max_rules: safety valve, as in :func:`close_policy`.
        obs: optional :class:`~repro.obs.trace.TraceContext`; emits an
            ``extend_closure`` span plus the full chase's per-round
            spans and ``repro_chase_*`` counters.

    Returns:
        The number of rules added (explicit and derived).

    Raises:
        PolicyError: when the extension overflows ``max_rules``.
    """
    before = len(closed)
    frontier: List[Authorization] = []
    for rule in new_rules:
        if rule not in closed:
            closed.add(rule)
            frontier.append(rule)
    if frontier:
        with _span(obs, "extend_closure", new_rules=len(frontier)):
            _chase(closed, frontier, catalog.join_edges(), max_rules, obs)
    return len(closed) - before


def _span(obs, name: str, **attrs):
    return nullcontext() if obs is None else obs.span(name, "closure", **attrs)


def _chase(closed: Policy, frontier, edges, max_rules: int, obs=None) -> None:
    """Chase from the ``frontier`` rules of ``closed`` to a fixpoint, on
    integer keys (see the module docstring).  Only the grantees of
    frontier rules are indexed, one :class:`JoinPath` is interned per
    distinct path mask, and no table outlives the call.

    A *round* explores every rule queued when it began; what it derives
    waits for the next.  Rounds exist only for observability — the
    fixpoint is identical either way.
    """
    universe = closed.universe
    bit_of = {edge: 1 << bit for bit, edge in enumerate(dict.fromkeys(edges))}
    path_of: Dict[int, JoinPath] = {}  # path mask -> interned path

    def keys_of(rules: Tuple[Authorization, ...]) -> List[Tuple[int, int]]:
        keys = []
        for rule, attrs in zip(rules, universe.try_masks(r.attributes for r in rules)):
            mask = 0
            for condition in rule.join_path.conditions:
                mask |= bit_of.setdefault(condition, 1 << len(bit_of))
            path_of[mask] = rule.join_path
            keys.append((attrs, mask))
        return keys

    # An edge with an endpoint no rule grants (one the policy's universe
    # never interned) cannot bridge anything.
    edge_bits = [
        (universe.try_mask((e.first,)), universe.try_mask((e.second,)), bit_of[e])
        for e in edges
        if universe.try_mask(e.attributes) is not None
    ]
    # server -> (key set, keys in ``rules_for`` order): a rule only ever
    # meets its own grantee's partition.
    partitions: Dict[str, Tuple[Set[Tuple[int, int]], List[Tuple[int, int]]]] = {}
    frontier = tuple(frontier)
    queue = [(rule.server, *key) for rule, key in zip(frontier, keys_of(frontier))]
    round_index = derived = 0
    while queue:
        span = None
        derived_before = derived
        pairings = 0
        if obs is not None:
            round_index += 1
            span = obs.begin(
                "chase_round", "closure", round=round_index, frontier=len(queue)
            )
        this_round, queue = queue, []
        try:
            for server, attrs, path in this_round:
                if server not in partitions:
                    peers = keys_of(closed.rules_for(server))
                    partitions[server] = (set(peers), peers)
                keys, peers = partitions[server]
                # Per edge this rule touches, the endpoint a peer must grant.
                bridges = [
                    (need, edge_bit)
                    for a, b, edge_bit in edge_bits
                    if (need := (b if attrs & a else 0) | (a if attrs & b else 0))
                ]
                snapshot = peers[:]
                pairings += len(snapshot)
                for peer_attrs, peer_path in snapshot if bridges else ():
                    for need, edge_bit in bridges:
                        if not peer_attrs & need:
                            continue
                        key = (attrs | peer_attrs, path | peer_path | edge_bit)
                        if key in keys:
                            continue
                        if len(closed) >= max_rules:
                            # Peers not reached were never paired.
                            pairings -= len(snapshot) - 1 - snapshot.index(
                                (peer_attrs, peer_path)
                            )
                            raise PolicyError(
                                f"policy closure exceeded max_rules={max_rules}; "
                                "the policy's derivable views blow up — raise the "
                                "limit or restrict the catalog's join edges"
                            )
                        attr_mask, path_mask = key
                        if path_mask not in path_of:
                            path_of[path_mask] = JoinPath.interned(
                                c for c, bit in bit_of.items() if path_mask & bit
                            )
                        granted = universe.from_mask(attr_mask)
                        closed.add(Authorization(granted, path_of[path_mask], server))
                        keys.add(key)
                        peers.append(key)
                        queue.append((server, *key))
                        derived += 1
        finally:
            if span is not None:
                obs.count("repro_chase_rounds_total")
                obs.count("repro_chase_pairings_total", pairings)
                obs.end(span, derived=derived - derived_before)
    if obs is not None:
        obs.count("repro_chase_derived_rules_total", derived)


def minimize_policy(policy: Policy) -> Policy:
    """Drop dominated rules.

    A rule ``[A, J] -> S`` is dominated when another rule
    ``[A', J] -> S`` with ``A ⊂ A'`` exists (same server, same join
    path, strictly larger attribute set).  Domination never changes a
    ``CanView`` answer, so minimization is safe to apply after closure.
    """
    minimized = Policy(universe=policy.universe)
    for server in policy.servers():
        rules = policy.rules_for(server)
        by_path: Dict[JoinPath, List[Authorization]] = {}
        for rule in rules:
            by_path.setdefault(rule.join_path, []).append(rule)
        # Canonical interned-path key: a total, hash-independent order
        # over join paths (sorted tuples of condition pairs), unlike the
        # old str() rendering which was both slow and collision-prone
        # as a sort key.
        for _, group in sorted(by_path.items(), key=lambda kv: kv[0].canonical_key()):
            keep: List[Authorization] = []
            # Largest attribute sets first so dominated rules are filtered
            # in one pass.
            for rule in sorted(group, key=lambda r: (-len(r.attributes), sorted(r.attributes))):
                if any(rule.attributes <= kept.attributes for kept in keep):
                    continue
                keep.append(rule)
            for rule in keep:
                minimized.add(rule)
    return minimized
