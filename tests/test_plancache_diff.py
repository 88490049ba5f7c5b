"""Differential testing of the plan cache and the incremental chase.

Hypothesis drives random interleavings of ``add`` / ``revoke`` / ``plan``
operations over a synthetic three-server chain catalog and checks, after
every step, that the two incremental mechanisms introduced for the plan
cache are observationally identical to their from-scratch counterparts:

* **closure**: the effective policy a live system maintains in place
  through :func:`~repro.core.closure.extend_closure` — chasing from the
  new rule on a grant, and from the grantee's surviving explicit rules
  after dropping its partition on a revoke — equals ``close_policy``
  run from scratch over the explicit rules, after *every* mutation:
  same rule set, same ``CanView`` answers on a sampled profile set, and
  for a just-revoked server the same ``rules_for`` order;
* **the chase itself**: the integer chase yields the same rules, in the
  same order, with the same ids, the same ``max_rules`` overflow point
  and the same traced round/pairing counters as a deliberately slow
  object-level reference chase written here on top of the public
  :func:`~repro.core.closure.derive_joined_authorizations`;
* **planning**: a cache-on system and a fresh cache-off system built
  from the same explicit rules agree on feasibility for every query;
  when a query is freshly planned (cache miss) the plans are
  structurally identical (tree fingerprint and assignment); and a plan
  served from the cache — including one that survived revalidation
  after policy churn — always passes the independent safety verifier
  against the *current* policy.

* **the shape tier**: a query that differs from an earlier one only in
  its WHERE constants is bound, not planned — and what it is served is,
  node for node, what a cache-off system plans for the same text under
  the policy the decision was made at (executors, profiles, flows,
  planner trace), carries its *own* predicate (rows equal
  ``evaluate_plan``), and verifies against the *current* policy; an
  infeasibility verdict is served only while a fresh planner agrees.

The op pool deliberately includes invalid operations (double-grants,
revocations of absent rules): they must raise :class:`PolicyError` and
leave both the policy and the cache untouched.

The CI ``plancache`` job runs this module across a Hypothesis seed
matrix; together the runs exercise well over 500 generated policy-churn
sequences.
"""

from __future__ import annotations

import itertools
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed.system
import repro.sql
from repro.algebra.builder import build_plan
from repro.analysis.reporting import render_trace_table
from repro.core.authorization import Policy
from repro.core.closure import close_policy, derive_joined_authorizations
from tests._builder_oracle import fingerprint_tree
from repro.core.profile import RelationProfile
from repro.core.safety import enumerate_assignment_flows, verify_assignment
from repro.distributed.system import DistributedSystem
from repro.engine.operators import evaluate_plan
from repro.exceptions import InfeasiblePlanError, PolicyError, ReproError
from repro.obs import TraceContext
from repro.sql import parse_query
from repro.testing import grant, quick_catalog
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

# ---------------------------------------------------------------------------
# The synthetic world: a three-relation join chain, one relation per server
# ---------------------------------------------------------------------------


def make_catalog():
    return quick_catalog(
        "R0(a0, b0) @ S0",
        "R1(a1, b1) @ S1",
        "R2(a2, b2) @ S2",
        edges=["b0 = a1", "b1 = a2"],
    )


SERVERS = ("S0", "S1", "S2")

#: Every grant the generator may add or revoke: for each server, the
#: three base views, the two adjacent pair-join views, and the full
#: three-way chain view.
RULE_POOL = tuple(
    grant(server, attrs, path)
    for server in SERVERS
    for attrs, path in (
        ("a0 b0", ""),
        ("a1 b1", ""),
        ("a2 b2", ""),
        ("a0 b0 a1 b1", "b0 = a1"),
        ("a1 b1 a2 b2", "b1 = a2"),
        ("a0 b0 a1 b1 a2 b2", "b0 = a1, b1 = a2"),
    )
)

#: Every system starts from "each server sees its own relation".
BASE_RULES = (
    grant("S0", "a0 b0"),
    grant("S1", "a1 b1"),
    grant("S2", "a2 b2"),
)

QUERIES = (
    "SELECT a0, b1 FROM R0 JOIN R1 ON b0 = a1",
    "SELECT a1, b2 FROM R1 JOIN R2 ON b1 = a2",
    "SELECT a0, b2 FROM R0 JOIN R1 ON b0 = a1 JOIN R2 ON b1 = a2",
)


# ---------------------------------------------------------------------------
# The differential checks
# ---------------------------------------------------------------------------


#: The views CanView is sampled on: every shape a pool rule grants, as a
#: whole and narrowed to its first attribute, for every server.
PROFILES = tuple(
    RelationProfile(attributes, rule.join_path)
    for rule in RULE_POOL[: len(RULE_POOL) // len(SERVERS)]
    for attributes in (rule.attributes, sorted(rule.attributes)[:1])
)


def check_closure(system, explicit, revoked_server=None):
    """In-place maintained closure == full close from scratch."""
    assert set(system.explicit_policy) == explicit
    full = close_policy(system.explicit_policy, system.catalog)
    assert set(system.policy) == set(full)
    for server in SERVERS:
        for profile in PROFILES:
            assert system.policy.can_view(profile, server) == full.can_view(
                profile, server
            )
    if revoked_server is not None:
        # The grantee's partition was dropped and re-chased from its
        # explicit rules, which is what a fresh close does for it.
        assert system.policy.rules_for(revoked_server) == full.rules_for(
            revoked_server
        )


def check_plan(system, explicit, query):
    """Cache-on plan vs. a fresh cache-off system over the same rules."""
    fresh = DistributedSystem(
        make_catalog(), Policy(list(explicit)), plan_cache=False
    )
    misses_before = system.plan_cache.stats.misses
    try:
        tree_c, assign_c, _ = system.plan(query)
        cached_feasible = True
    except InfeasiblePlanError:
        cached_feasible = False
    try:
        tree_f, assign_f, _ = fresh.plan(query)
        fresh_feasible = True
    except InfeasiblePlanError:
        fresh_feasible = False
    assert cached_feasible == fresh_feasible, (
        f"cache and fresh planner disagree on feasibility of {query!r}"
    )
    if not cached_feasible:
        return
    # Whatever the cache served must be provably safe *now* — the
    # independent verifier, not the cache's own revalidation probe.
    verify_assignment(system.policy, assign_c)
    assert fingerprint_tree(tree_c) == fingerprint_tree(tree_f)
    if system.plan_cache.stats.misses > misses_before:
        # Freshly planned this call: must be structurally identical to
        # the from-scratch plan, not merely equally safe.  Assignment
        # has no value equality, so compare the rendered node-by-node
        # executor mapping.
        assert assign_c.describe() == assign_f.describe()
    # An immediate repeat is a pure hit returning the same objects.
    _, assign_again, _ = system.plan(query)
    assert assign_again is assign_c


def product_signature(tree, assignment, planner_trace):
    """Everything a plan decision is, constants aside: per-node
    executors and profiles, the flow list, the Figure 7 trace."""
    return (
        [str(assignment.executor(node.node_id)) for node in tree],
        [assignment.profile(node.node_id) for node in tree],
        enumerate_assignment_flows(assignment),
        render_trace_table(planner_trace),
    )


def fresh_outcome(rules, query):
    """``plan`` of a cache-off system over ``rules``: the product, or
    the refusal as ``(message, node_id)``."""
    fresh = DistributedSystem(make_catalog(), Policy(list(rules)), plan_cache=False)
    try:
        return fresh.plan(query), None
    except InfeasiblePlanError as error:
        return None, (str(error), error.node_id)


def check_bound(system, explicit, decided_under, query):
    """One never-seen-before text of a (possibly seen) shape."""
    stats = system.plan_cache.stats
    before = (stats.misses, stats.shape_hits, stats.negative_hits)
    shape = (system.parse(query).shape(), False)
    product, refusal = fresh_outcome(explicit, query)
    try:
        served = system.plan(query)
    except InfeasiblePlanError as error:
        # A verdict is served only while a fresh planner agrees.
        assert refusal == (str(error), error.node_id)
        return
    assert product is not None, f"cache served {query!r}, a fresh planner refuses it"
    misses, shape_hits, negative_hits = (
        after - prior
        for after, prior in zip(
            (stats.misses, stats.shape_hits, stats.negative_hits), before
        )
    )
    assert (misses, negative_hits) == (1, 0)
    tree, assignment, _ = served
    verify_assignment(system.policy, assignment)
    # The tree is this request's own: same constants as a fresh bind.
    assert fingerprint_tree(tree) == fingerprint_tree(product[0])
    if not shape_hits:
        decided_under[shape] = frozenset(explicit)
    else:
        # Bound: the fresh plan of this text under the decision's policy.
        product, _ = fresh_outcome(decided_under[shape], query)
    assert product_signature(*served) == product_signature(*product)


def apply_op(system, explicit, op, decided_under=None, serial=None):
    kind, index = op
    if kind == "plan":
        check_plan(system, explicit, QUERIES[index % len(QUERIES)])
        return
    if kind == "bind":
        query = QUERIES[index % len(QUERIES)]
        attribute = ("a1", "b1", "a1")[index % len(QUERIES)]
        check_bound(
            system, explicit, decided_under,
            f"{query} WHERE {attribute} != {next(serial)}",
        )
        return
    rule = RULE_POOL[index % len(RULE_POOL)]
    revoked_server = None
    if kind == "add":
        if rule in explicit:
            with pytest.raises(PolicyError):
                system.add_authorization(rule)
        else:
            system.add_authorization(rule)
            explicit.add(rule)
    else:  # revoke
        if rule not in explicit:
            with pytest.raises(PolicyError):
                system.revoke_authorization(rule)
        else:
            system.revoke_authorization(rule)
            explicit.discard(rule)
            revoked_server = rule.server
    check_closure(system, explicit, revoked_server)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "revoke", "plan", "bind", "bind"]),
        st.integers(min_value=0, max_value=len(RULE_POOL) - 1),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=500, deadline=None)
@given(ops=OPS)
def test_random_policy_churn_never_diverges(ops):
    system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES)))
    explicit = set(BASE_RULES)
    decided_under, serial = {}, itertools.count()
    check_closure(system, explicit)
    for op in ops:
        apply_op(system, explicit, op, decided_under, serial)
    # Whatever the interleaving did, every query must agree at the end.
    for index, query in enumerate(QUERIES):
        check_plan(system, explicit, query)
        for _ in range(2):  # the second is always served from the tier
            apply_op(system, explicit, ("bind", index), decided_under, serial)


#: Small instances whose join columns overlap, so predicates matter.
INSTANCES = {
    f"R{r}": [{f"a{r}": i % 4, f"b{r}": (i * (r + 2)) % 5} for i in range(6)]
    for r in range(3)
}

#: One WHERE atom: (attribute, operator, attribute operand or None for a
#: constant); attributes are indexes into the query's own attribute list.
ATOMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.none() | st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=3,
)
CONSTANTS = st.lists(
    st.integers(min_value=0, max_value=5), min_size=3, max_size=3
)
#: Mostly generous policies: a refusal exercises one line of the tier.
GRANTED = st.sets(
    st.integers(min_value=0, max_value=len(RULE_POOL) - 1), min_size=12
) | st.sets(st.integers(min_value=0, max_value=len(RULE_POOL) - 1))


def render_query(index, atoms, constants):
    query = QUERIES[index]
    attributes = [
        f"{column}{relation}"
        for relation in range(3)
        if f"R{relation}" in query
        for column in "ab"
    ]
    rendered = []
    for (left, op, right), constant in zip(atoms, constants):
        left = attributes[left % len(attributes)]
        operand = constant if right is None else attributes[right % len(attributes)]
        rendered.append(f"{left} {op} {operand}")
    return f"{query} WHERE {' AND '.join(rendered)}"


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    atoms=ATOMS,
    first=CONSTANTS,
    moved=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
    granted=GRANTED,
)
def test_shape_served_products_equal_fresh_plans(index, atoms, first, moved, granted):
    """Random specs, constants, operators and attribute-valued operands:
    the second text of a shape is bound (or refused) from the tier, and
    is exactly what a cache-off system makes of that text."""
    rules = list(BASE_RULES) + sorted(
        {RULE_POOL[i] for i in granted} - set(BASE_RULES), key=repr
    )
    system = DistributedSystem(make_catalog(), Policy(list(rules)))
    system.load_instances(INSTANCES)
    second = [(constant + move) % 6 for constant, move in zip(first, moved)]
    decision, query = (render_query(index, atoms, c) for c in (first, second))
    try:
        system.plan(decision)
    except InfeasiblePlanError:
        pass
    same_text = (
        system.parse(decision).fingerprint() == system.parse(query).fingerprint()
    )
    stats = system.plan_cache.stats
    before = (stats.hits, stats.shape_hits, stats.negative_hits)
    product, refusal = fresh_outcome(rules, query)
    try:
        served = system.plan(query)
    except InfeasiblePlanError as error:
        assert refusal == (str(error), error.node_id)
        assert (stats.hits, stats.shape_hits, stats.negative_hits) == (
            before[0], before[1], before[2] + 1
        )
        return
    assert refusal is None
    assert (stats.hits, stats.shape_hits, stats.negative_hits) == (
        before[0] + same_text, before[1] + (not same_text), before[2]
    )
    assert fingerprint_tree(served[0]) == fingerprint_tree(product[0])
    assert product_signature(*served) == product_signature(*product)
    # An exact hit is the decision's own product: when the two texts are
    # one conjunction with its atoms permuted (same fingerprint), it
    # renders them in the decision's order, not the request's.
    rendered = fresh_outcome(rules, decision)[0] if same_text else product
    assert served[1].describe() == rendered[1].describe()
    executed = system.execute(query)
    assert executed.audit.all_authorized()
    assert executed.table == evaluate_plan(product[0], system.tables())


# ---------------------------------------------------------------------------
# Prepared shapes: a warm skeleton table vs. the parser and build_plan
# ---------------------------------------------------------------------------

#: Everyone may view everything: every generated query is feasible.
SHARED_CATALOG = make_catalog()
PERMISSIVE = close_policy(Policy(list(RULE_POOL)), SHARED_CATALOG)

#: SQL renderings of literals: strings (empty, digits only, with quotes
#: and blanks), ints, and floats with and without digits after the dot.
LITERALS = st.text(alphabet="a1' ", max_size=3).map(
    lambda value: "'" + value.replace("'", "''") + "'"
) | st.sampled_from(["0", "1", "7", "12", "1.", "1.0", "1.5", "0.5"])
#: An :data:`ATOMS` atom plus the literal it compares against in the
#: first and in the second text of the skeleton.
LITERAL_ATOMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.none() | st.none() | st.integers(min_value=0, max_value=5),
        LITERALS,
        LITERALS,
    ),
    min_size=1,
    max_size=3,
)
#: Keyword case, the gaps between tokens, the end of the text.
LAYOUT = st.tuples(
    st.sampled_from([str.upper, str.lower, str.title]),
    st.lists(st.sampled_from(["", " ", "  ", "\n", "\t "]), min_size=8, max_size=8),
    st.sampled_from(["", ";", " ;"]),
)
#: What a typo puts in a token's place (``None`` drops the token): an
#: unterminated string, a second dot, stray characters, a literal where
#: an identifier must stand, unknown and dotted names, a misplaced keyword.
TYPOS = st.sampled_from(
    [None, "'abc", "'a''", "''''", "1.2.3", "#", ".", "½", "5", "'s'", "1x",
     "zz9", "R0.a0", "a0.1", "SELECT", "("]
)


def query_tokens(index, atoms, which):
    """The text as a token list; ``which`` picks each atom's literal."""
    tokens = QUERIES[index].replace(",", " , ").split()
    attributes = [token for token in tokens if token[0] in "ab"]
    for position, (left, op, right, *literals) in enumerate(atoms):
        tokens.append("AND" if position else "WHERE")
        operand = literals[which] if right is None else attributes[right % len(attributes)]
        tokens += [attributes[left % len(attributes)], op, operand]
    return tokens


def layout_text(tokens, layout):
    """Tokens to text: keyword case, gaps (possibly none, except after a
    word that a letter or digit follows — ``b0=1AND a0=''AND`` is valid)
    and the trailing semicolon drawn by ``layout``."""
    case, gaps, end = layout
    text = ""
    for position, token in enumerate(tokens):
        if token.upper() in ("SELECT", "FROM", "JOIN", "ON", "WHERE", "AND"):
            token = case(token)
        gap = gaps[position % len(gaps)]
        if position and tokens[position - 1][0].isalpha() and token[0].isalnum():
            gap = gap or " "
        text += gap + token
    return text + end


def spec_signature(spec):
    """A spec in everything a plan reads of it."""
    return (
        spec.fingerprint(),
        spec.shape(),
        [(type(value), value) for value in spec.constants()],
    )


def parse_outcome(parse, text):
    """The signature of the spec ``parse`` makes of ``text``, or its
    error in full."""
    try:
        return spec_signature(parse(text))
    except ReproError as error:
        return type(error), str(error), getattr(error, "position", None)


def warm_system(*texts):
    """A system that has already served ``texts``."""
    system = DistributedSystem(SHARED_CATALOG, PERMISSIVE, apply_closure=False)
    for text in texts:
        system.plan(text)
    return system


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    atoms=LITERAL_ATOMS,
    layout=LAYOUT,
)
def test_prepared_shapes_equal_parse_and_build_plan(index, atoms, layout):
    """The second text of a skeleton is neither parsed nor built, and is
    served the spec, the tree and the assignment a cold start makes of it."""
    first, text = (layout_text(query_tokens(index, atoms, which), layout) for which in (0, 1))
    system = warm_system(first)
    refuse = {"side_effect": AssertionError("a prepared shape was parsed or built again")}
    with mock.patch.object(repro.sql, "parse", **refuse), mock.patch.object(
        repro.distributed.system, "build_plan", **refuse
    ):
        spec = system.parse(text)
        tree, assignment, _ = system.plan(text)
    cold = parse_query(text, SHARED_CATALOG)
    assert spec_signature(spec) == spec_signature(cold)
    # An exact hit is the first text's own product: when the two texts
    # are one conjunction with its atoms permuted (same fingerprint), it
    # renders them in the first text's order.
    if system.parse(first).fingerprint() == cold.fingerprint():
        text = first
    built = build_plan(SHARED_CATALOG, parse_query(text, SHARED_CATALOG))
    assert [(n.node_id, n.label(), tree.parent_id(n.node_id)) for n in tree] == [
        (n.node_id, n.label(), built.parent_id(n.node_id)) for n in built
    ]
    assert tree.render() == built.render()
    fresh = DistributedSystem(
        SHARED_CATALOG, PERMISSIVE, apply_closure=False, plan_cache=False
    )
    assert assignment.describe() == fresh.plan(text)[1].describe()
    # `1`, `1.0` and `'1'` are three queries of this skeleton.
    variants = [
        system.parse(layout_text(query_tokens(index, [(0, "=", None, value)], 0), layout))
        for value in ("1", "1.0", "'1'")
    ]
    assert len({variant.fingerprint() for variant in variants}) == 3
    assert [type(variant.constants()[0]) for variant in variants] == [int, float, str]


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    atoms=LITERAL_ATOMS,
    layout=LAYOUT,
    typos=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), TYPOS), min_size=1, max_size=2
    ),
)
def test_malformed_texts_fail_warm_as_they_fail_cold(index, atoms, layout, typos):
    """A typo in a text whose shape is prepared: the same error class,
    message and position as from the parser and binder (or, where the
    typo left a valid text, the same spec)."""
    valid = [query_tokens(index, atoms, which) for which in (0, 1)]
    tokens = list(valid[1])
    for position, typo in typos:
        position %= len(tokens)
        tokens[position : position + 1] = [] if typo is None else [typo]
    text = layout_text(tokens, layout)
    system = warm_system(*(layout_text(tokens, layout) for tokens in valid))
    cold = parse_outcome(lambda sql: parse_query(sql, SHARED_CATALOG), text)
    for _ in range(2):  # a failure prepares nothing: the repeat fails alike
        assert parse_outcome(system.parse, text) == cold


@settings(max_examples=50, deadline=None)
@given(
    rules=st.lists(
        st.integers(min_value=0, max_value=len(RULE_POOL) - 1),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
def test_incremental_grants_match_one_shot_closure(rules):
    """Granting rules one at a time (incremental chase after each) lands
    on the same closure as granting them all upfront."""
    system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES)))
    explicit = set(BASE_RULES)
    for index in rules:
        rule = RULE_POOL[index]
        if rule in explicit:
            continue
        system.add_authorization(rule)
        explicit.add(rule)
    check_closure(system, explicit)


@settings(max_examples=50, deadline=None)
@given(
    churn=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(RULE_POOL) - 1)),
        min_size=2,
        max_size=8,
    )
)
def test_epoch_is_monotone_under_churn(churn):
    """The effective policy's epoch never decreases, and strictly grows
    across every revocation (cached plans must always see the change)."""
    system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES)))
    explicit = set(BASE_RULES)
    last_epoch = system.policy.epoch
    for is_add, index in churn:
        rule = RULE_POOL[index]
        if is_add and rule not in explicit:
            system.add_authorization(rule)
            explicit.add(rule)
        elif not is_add and rule in explicit:
            system.revoke_authorization(rule)
            explicit.discard(rule)
            assert system.policy.epoch > last_epoch
        assert system.policy.epoch >= last_epoch
        last_epoch = system.policy.epoch


@settings(max_examples=200, deadline=None)
@given(
    churn=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(RULE_POOL) - 1)),
        min_size=1,
        max_size=12,
    )
)
def test_grant_revoke_interleavings_keep_untouched_servers_intact(churn):
    """Random grant/revoke interleavings on one live system: after every
    step the closure matches a fresh close (set, CanView sample, order
    on the revoked server), the policy object and planner survive, and a
    revoke leaves every other server's rules *and their ids* alone while
    never reusing a retired id."""
    system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES)))
    policy, planner = system.policy, system._planner
    explicit = set(BASE_RULES)
    seen_ids = {policy.rule_id(rule) for rule in policy}
    for is_add, index in churn:
        rule = RULE_POOL[index]
        before = {r: policy.rule_id(r) for r in policy}
        if is_add and rule not in explicit:
            system.add_authorization(rule)
            explicit.add(rule)
            check_closure(system, explicit)
            assert all(policy.rule_id(r) == i for r, i in before.items())
        elif not is_add and rule in explicit:
            system.revoke_authorization(rule)
            explicit.discard(rule)
            check_closure(system, explicit, revoked_server=rule.server)
            for kept, rule_id in before.items():
                if kept.server != rule.server:
                    assert policy.rule_id(kept) == rule_id
        else:
            continue
        fresh_ids = {policy.rule_id(r) for r in policy} - set(before.values())
        assert not fresh_ids & seen_ids, "a retired rule id was reused"
        seen_ids |= fresh_ids
        assert system.policy is policy and system._planner is planner


def reference_close(policy, catalog, max_rules=10_000):
    """The chase as first written: object-level and deliberately slow —
    one validated ``Authorization`` per applicable derivation, thrown
    away when the policy already holds it.  Returns ``(closed, rounds,
    pairings)``; on overflow the :class:`PolicyError` carries the two
    counters as they stood."""
    edges = catalog.join_edges()
    closed = Policy(policy, universe=catalog.universe)
    frontier = deque(closed)
    rounds = pairings = 0
    while frontier:
        rounds += 1
        for _ in range(len(frontier)):
            rule = frontier.popleft()
            for peer in closed.rules_for(rule.server):
                pairings += 1
                for derived in derive_joined_authorizations(rule, peer, edges):
                    if derived in closed:
                        continue
                    if len(closed) >= max_rules:
                        error = PolicyError("reference chase overflow")
                        error.counters = (rounds, pairings)
                        raise error
                    closed.add(derived)
                    frontier.append(derived)
    return closed, rounds, pairings


def chase_counters(trace):
    snapshot = trace.metrics.snapshot()
    return tuple(
        snapshot[name]["series"][""]
        for name in ("repro_chase_rounds_total", "repro_chase_pairings_total")
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    relations=st.integers(3, 5),
    density=st.sampled_from([0.3, 0.6, 0.9]),
    extra_edges=st.integers(0, 2),
    headroom=st.integers(0, 3),
)
def test_integer_chase_matches_object_level_reference(
    seed, relations, density, extra_edges, headroom
):
    workload = SyntheticWorkload(
        seed=seed,
        config=WorkloadConfig(
            servers=3,
            relations=relations,
            grant_probability=density,
            join_grant_probability=density,
            extra_join_edges=extra_edges,
        ),
    )
    policy, catalog = workload.policy, workload.catalog
    expected, rounds, pairings = reference_close(policy, catalog)
    trace = TraceContext()
    closed = close_policy(policy, catalog, obs=trace)
    # Same rules, same iteration order, same ids, server by server too.
    assert [(r, closed.rule_id(r)) for r in closed] == [
        (r, expected.rule_id(r)) for r in expected
    ]
    for server in expected.servers():
        assert closed.rules_for(server) == expected.rules_for(server)
    assert chase_counters(trace) == (rounds, pairings)
    # The valve trips at the same rule count, after the same work.
    derived = len(expected) - len(policy)
    limit = len(policy) + min(headroom, derived)
    if limit == len(expected):
        assert len(close_policy(policy, catalog, max_rules=limit)) == limit
        return
    with pytest.raises(PolicyError) as reference_overflow:
        reference_close(policy, catalog, max_rules=limit)
    trace = TraceContext()
    with pytest.raises(PolicyError):
        close_policy(policy, catalog, max_rules=limit, obs=trace)
    assert chase_counters(trace) == reference_overflow.value.counters


# ---------------------------------------------------------------------------
# Interleaved concurrent access (the asyncio service's usage pattern)
# ---------------------------------------------------------------------------


class _ReentrantProbe:
    """A policy probe that re-enters the cache mid-revalidation.

    Revalidation asks the policy's ``can_view`` once per release flow;
    this probe plays the worst case — a probe that looks the same
    fingerprint up again while the outer frame is still deciding its
    fate — and records what the re-entrant lookup saw.
    """

    def __init__(self, cache, fingerprint, policy):
        self.cache = cache
        self.fingerprint = fingerprint
        self.policy = policy
        self.inner = policy.can_view
        self.reentrant_results = []

    def can_view(self, profile, server):
        self.reentrant_results.append(
            self.cache.lookup(self.fingerprint, self.policy)
        )
        return self.inner(profile, server)


def test_reentrant_lookup_during_revalidation_is_a_miss(monkeypatch):
    """A lookup re-entering the cache while its fingerprint is mid-
    revalidation must answer miss — never recurse into a second
    re-audit or double-evict."""
    pivot_base = grant("S0", "a1 b1")
    system = DistributedSystem(
        make_catalog(), Policy(list(BASE_RULES) + [pivot_base])
    )
    query = QUERIES[0]
    system.plan(query)  # fill the cache
    cache = system.plan_cache
    fingerprint = (system.parse(query).fingerprint(), False)
    assert cache.lookup(fingerprint, system.policy) is not None
    # Withdraw the linchpin: the next lookup revalidates and fails,
    # firing the policy probe mid-critical-section.
    system.revoke_authorization(pivot_base)
    probe = _ReentrantProbe(cache, fingerprint, system.policy)
    monkeypatch.setattr(system.policy, "can_view", probe.can_view)
    misses_before = cache.stats.misses
    outer = cache.lookup(fingerprint, system.policy)
    assert outer is None
    assert probe.reentrant_results, "policy probe never fired"
    assert all(entry is None for entry in probe.reentrant_results)
    # Both the re-entrant probe(s) and the outer frame count as misses,
    # and the entry was evicted exactly once.
    assert cache.stats.misses == misses_before + len(probe.reentrant_results) + 1
    assert cache.stats.revalidation_failures == 1
    assert len(cache) == 0


def test_interleaved_concurrent_plan_operations():
    """Concurrent (asyncio-interleaved) planners racing policy churn:
    after every mutation settles, cache-on planning still agrees with a
    fresh cache-off system, and every served assignment verifies
    against the then-current policy."""
    import asyncio

    system = DistributedSystem(make_catalog(), Policy(list(BASE_RULES)))
    explicit = set(BASE_RULES)
    served = []

    async def planner(query):
        for _ in range(4):
            await asyncio.sleep(0)
            try:
                _, assignment, _ = system.plan(query)
            except InfeasiblePlanError:
                continue
            # Whatever the cache served mid-churn must be provably safe
            # under the policy in force at the moment it was served.
            verify_assignment(system.policy, assignment)
            served.append(assignment)

    async def churner():
        # Base-operand views are the feasibility linchpins (the chase
        # derives join views from them): S0 seeing R1 unlocks Q0, S1
        # seeing R2 unlocks Q1; the revocations take them back away.
        script = [
            ("add", RULE_POOL[1]),   # S0 may view a1 b1
            ("add", RULE_POOL[8]),   # S1 may view a2 b2
            ("revoke", RULE_POOL[1]),
            ("add", RULE_POOL[2]),   # S0 may view a2 b2
            ("revoke", RULE_POOL[8]),
        ]
        for kind, rule in script:
            await asyncio.sleep(0)
            if kind == "add" and rule not in explicit:
                system.add_authorization(rule)
                explicit.add(rule)
            elif kind == "revoke" and rule in explicit:
                system.revoke_authorization(rule)
                explicit.discard(rule)
            check_closure(system, explicit)

    async def scenario():
        await asyncio.gather(
            *(planner(query) for query in QUERIES for _ in range(2)),
            churner(),
        )

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    assert served, "no plan was ever served during the interleaving"
    # The dust has settled: full differential check for every query.
    for query in QUERIES:
        check_plan(system, explicit, query)
