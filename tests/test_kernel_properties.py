"""Differential property tests for the interned bitset kernel.

The representation kernel (``AttrSet`` masks, interned ``JoinPath``
objects, the indexed/memoized ``Policy.can_view``) is an *encoding*
change: every observable answer must agree with the straightforward
frozenset/structural semantics of the paper's definitions.  This suite
pins that equivalence with Hypothesis: each property builds a random
policy/profile instance, evaluates it through the real code paths, and
compares against a deliberately naive reference implementation that
knows nothing about masks, interning, or caches.

The reference implementations treat a join path as a frozenset of
normalized ``(first, second)`` attribute pairs and an authorization as
the plain triple ``(server, attrs_frozenset, path_pairset)`` — exactly
the structural reading of Definition 3.3 and the Section 3.2 chase.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.joins import JoinCondition, JoinPath
from repro.algebra.schema import Catalog, RelationSchema
from repro.algebra.universe import AttributeUniverse
from repro.core.access import covering_authorizations
from repro.core.authorization import Authorization, Policy
from repro.core.closure import close_policy, minimize_policy
from repro.core.profile import RelationProfile

# ----------------------------------------------------------------------
# Shared generators: a small fixed world keeps examples fast while the
# combinatorics (subsets x paths x servers) stay rich enough to exercise
# every kernel fast path (mask compare, union-mask reject, cache hits).
# ----------------------------------------------------------------------

ATTRS = ["a", "b", "c", "d", "e", "f"]
SERVERS = ["S1", "S2", "S3"]
#: candidate join edges over the attribute world (already normalized:
#: JoinCondition sorts its endpoints, and these pairs are pre-sorted).
EDGES = [("a", "c"), ("b", "d"), ("c", "e"), ("d", "f"), ("a", "e")]

attr_subsets = st.sets(st.sampled_from(ATTRS), min_size=1, max_size=5)
edge_subsets = st.sets(st.sampled_from(EDGES), max_size=4)
servers = st.sampled_from(SERVERS)

rules = st.builds(
    lambda server, attrs, pairs: Authorization(
        attrs, JoinPath.of(*pairs) if pairs else JoinPath.empty(), server
    ),
    servers,
    attr_subsets,
    edge_subsets,
)

profiles = st.builds(
    lambda attrs, pairs, sel: RelationProfile(
        attrs,
        JoinPath.of(*pairs) if pairs else JoinPath.empty(),
        sel & attrs,
    ),
    attr_subsets,
    edge_subsets,
    st.sets(st.sampled_from(ATTRS), max_size=3),
)


def make_policy(rule_list):
    policy = Policy()
    for rule in rule_list:
        if rule not in policy:
            policy.add(rule)
    return policy


def make_catalog(edge_pairs):
    """One relation per server partitioning the attribute world (catalog
    attribute names are globally unique), joined by the sampled edges —
    enough structure to drive the chase."""
    catalog = Catalog()
    for index, server in enumerate(SERVERS):
        catalog.add_relation(
            RelationSchema(f"R{index}", ATTRS[2 * index : 2 * index + 2], server=server)
        )
    for first, second in edge_pairs:
        catalog.add_join_edge(first, second)
    return catalog


# ----------------------------------------------------------------------
# Reference semantics (naive, structural)
# ----------------------------------------------------------------------


def path_key(path):
    return frozenset((c.first, c.second) for c in path)


def triple(rule):
    return (rule.server, frozenset(rule.attributes), path_key(rule.join_path))


def ref_can_view(rule_list, profile, server):
    """Definition 3.3, read literally off the rule list."""
    exposed = frozenset(profile.attributes) | frozenset(profile.selection_attributes)
    pk = path_key(profile.join_path)
    return any(
        rule.server == server
        and path_key(rule.join_path) == pk
        and exposed <= frozenset(rule.attributes)
        for rule in rule_list
    )


def ref_close(rule_list, edge_pairs, max_rules=10_000):
    """Section 3.2 chase as a plain fixpoint over structural triples."""
    triples = {triple(rule) for rule in rule_list}
    changed = True
    while changed:
        changed = False
        for server, attrs1, path1 in list(triples):
            for server2, attrs2, path2 in list(triples):
                if server != server2:
                    continue
                for a, b in edge_pairs:
                    if (a in attrs1 and b in attrs2) or (b in attrs1 and a in attrs2):
                        derived = (server, attrs1 | attrs2, path1 | path2 | {(a, b)})
                        if derived not in triples:
                            assert len(triples) < max_rules
                            triples.add(derived)
                            changed = True
    return triples


def ref_minimize(rule_list):
    """Keep a triple unless another same-server/same-path triple has a
    strictly larger attribute set."""
    triples = {triple(rule) for rule in rule_list}
    return {
        t
        for t in triples
        if not any(
            o[0] == t[0] and o[2] == t[2] and t[1] < o[1] for o in triples
        )
    }


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(rules, max_size=8), profiles, servers)
def test_can_view_matches_reference(rule_list, profile, server):
    policy = make_policy(rule_list)
    expected = ref_can_view(rule_list, profile, server)
    assert policy.can_view(profile, server) == expected
    # Memoized second probe must agree with the first.
    assert policy.can_view(profile, server) == expected
    # The covering rules are exactly the reference's satisfying rules.
    covering = covering_authorizations(policy, profile, server)
    assert bool(covering) == expected


@settings(max_examples=75, deadline=None)
@given(st.lists(rules, max_size=5), edge_subsets)
def test_closure_matches_reference_fixpoint(rule_list, edge_pairs):
    policy = make_policy(rule_list)
    catalog = make_catalog(edge_pairs)
    closed = close_policy(policy, catalog)
    assert {triple(rule) for rule in closed} == ref_close(rule_list, edge_pairs)


@settings(max_examples=100, deadline=None)
@given(st.lists(rules, max_size=8))
def test_minimize_matches_reference_dominance(rule_list):
    policy = make_policy(rule_list)
    minimized = minimize_policy(policy)
    assert {triple(rule) for rule in minimized} == ref_minimize(rule_list)


@settings(max_examples=100, deadline=None)
@given(st.lists(rules, max_size=6), profiles, servers)
def test_minimize_preserves_can_view(rule_list, profile, server):
    policy = make_policy(rule_list)
    minimized = minimize_policy(policy)
    assert minimized.can_view(profile, server) == policy.can_view(profile, server)


@settings(max_examples=100, deadline=None)
@given(st.lists(rules, max_size=8), profiles, servers)
def test_interned_policy_agrees_with_plain_policy(rule_list, profile, server):
    """The same rules answer identically whether or not the policy owns
    a shared universe with interned masks."""
    plain = make_policy(rule_list)
    universe = AttributeUniverse()
    interned = Policy(universe=universe)
    for rule in plain:
        interned.add(rule)
    assert interned.can_view(profile, server) == plain.can_view(profile, server)


# ----------------------------------------------------------------------
# AttrSet <-> frozenset algebra equivalence
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.sampled_from(ATTRS)),
    st.sets(st.sampled_from(ATTRS)),
)
def test_attrset_algebra_matches_frozenset(left_names, right_names):
    universe = AttributeUniverse()
    left, right = universe.attr_set(left_names), universe.attr_set(right_names)
    fl, fr = frozenset(left_names), frozenset(right_names)
    assert left == fl and right == fr
    assert hash(left) == hash(fl)
    assert len(left) == len(fl)
    assert set(left) == set(fl)
    assert (left | right) == (fl | fr)
    assert (left & right) == (fl & fr)
    assert (left - right) == (fl - fr)
    assert (left <= right) == (fl <= fr)
    assert (left < right) == (fl < fr)
    assert (left >= right) == (fl >= fr)
    # Mixed-representation operands must behave like plain frozensets,
    # in both operand orders.
    assert (fl | right) == (fl | fr)
    assert (left & fr) == (fl & fr)
    assert (fl - right) == (fl - fr)
    assert (fl <= right) == (fl <= fr)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(ATTRS), min_size=1))
def test_attrset_interning_is_identity(names):
    universe = AttributeUniverse()
    first = universe.attr_set(names)
    second = universe.attr_set(sorted(names))
    assert first is second


@settings(max_examples=200, deadline=None)
@given(edge_subsets.filter(bool))
def test_join_path_interning_is_identity(pairs):
    forward = JoinPath.of(*sorted(pairs))
    backward = JoinPath.of(*sorted(pairs, reverse=True))
    assert forward is backward
    assert forward == JoinPath.of_pairs(pairs)
    swapped = JoinPath.of(*[(b, a) for a, b in pairs])
    assert swapped is forward  # JoinCondition normalizes endpoint order


@settings(max_examples=100, deadline=None)
@given(edge_subsets, edge_subsets)
def test_join_path_union_matches_pair_union(pairs1, pairs2):
    path1 = JoinPath.of_pairs(pairs1)
    path2 = JoinPath.of_pairs(pairs2)
    union = path1.union(path2)
    assert path_key(union) == path_key(path1) | path_key(path2)
    assert union is JoinPath.of_pairs(pairs1 | pairs2)
