"""Differential suite: sharded execution vs single-copy execution.

The core claim of the sharding subsystem is *semantic transparency*:
for any partition scheme the checker certifies, partition-parallel
execution returns a result **byte-identical** (same canonical row
order, same byte accounting) to plain single-copy execution, with zero
audit violations — and any scheme the checker rejects **never executes
partitioned** (asserted on the trace: no shard spans, no parallel
commit event, an explicit fallback event instead).

Hypothesis drives the whole space: hash and range schemes, 2–8 shards,
one- and two-join pipelines, key domains that deliberately include the
intern-pool alias corners (``1 == 1.0 == True``, ``0 == 0.0 == -0.0``)
where a representation-sensitive router would split an equality class
across shards and silently drop join matches.

The shard/merge plumbing is additionally pinned against the frozen
row-at-a-time oracle (:mod:`tests._row_oracle`): routing and merging
through ``repro.sharding`` must agree with the reference implementation
row for row on exactly those corners — including the columnar split
kernel on multi-attribute keys.

Residency is held to the same standard: any interleaving of execute /
reload / grant / revoke on one long-lived system must answer exactly
what a brand-new system over the same rules and rows answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.distributed.system import DistributedSystem
from repro.engine.data import Table
from repro.exceptions import ReproError
from repro.obs import TraceContext
from repro.sharding import (
    EXEC_SINGLE_COPY,
    HashPartitionScheme,
    PartitionGroup,
    RangePartitionScheme,
    ShardedExecutor,
    merge_shards,
)
from repro.testing import grant, quick_catalog
from tests._row_oracle import OracleTable, oracle_merge, oracle_shard

# ---------------------------------------------------------------------------
# Shared world: R(a,b) -> T(c,d) -> U(e,f), broad policy, shard group G1/G2
# ---------------------------------------------------------------------------

SERVERS = ("S1", "S2", "S3", "G1", "G2")


def _catalog():
    return quick_catalog(
        "R(a, b) @ S1",
        "T(c, d) @ S2",
        "U(e, f) @ S3",
        edges=["a = c", "d = e"],
    )


def _policy():
    policy = Policy()
    for server in SERVERS:
        policy.add(grant(server, "a b"))
        policy.add(grant(server, "c d"))
        policy.add(grant(server, "e f"))
        policy.add(grant(server, "a b c d", "a = c"))
        policy.add(grant(server, "c d e f", "d = e"))
        policy.add(grant(server, "a b c d e f", "a = c, d = e"))
    return policy


CATALOG = _catalog()
CLOSED_POLICY = close_policy(_policy(), CATALOG)
GROUP = PartitionGroup("g", ["G1", "G2"])

ONE_JOIN = "SELECT a, b, d FROM R JOIN T ON a = c"
TWO_JOIN = "SELECT a, b, d, f FROM R JOIN T ON a = c JOIN U ON d = e"

#: Join-key domains.  ``alias`` mixes every representation of the
#: equality classes 0 and 1 with ordinary values; ``numeric`` is safe
#: for range boundaries (total order required).
ALIAS_KEYS = [0, 1, 2, 3, True, False, 1.0, 0.0, -0.0, 2.0, "x", "y", None]
NUMERIC_KEYS = [0, 1, 2, 3, 4, True, 1.0, 0.0, -0.0, 2.0, 3.0, None]

PAYLOADS = ["p", "q", "rr", "", 7, 0.5, None, True]

#: Oracle-parity domains drop every zero-valued float (``0.0`` *and*
#: ``-0.0``): the columnar intern pool is process-wide and typed, so
#: whichever of the two was interned first anywhere in the test run
#: becomes the rendered representative for both — while the frozen
#: oracle always keeps the literal it was given.  A documented seed
#: deviation (``test_vector_diff`` excludes ``-0.0`` for the same
#: reason); routing itself still covers both in the corner test below.
ORACLE_KEYS = [k for k in ALIAS_KEYS if not (isinstance(k, float) and k == 0)]
ORACLE_NUMERIC = [k for k in NUMERIC_KEYS if not (isinstance(k, float) and k == 0)]


def _system():
    """A fresh system over the shared catalog and pre-closed policy."""
    return DistributedSystem(CATALOG, CLOSED_POLICY, apply_closure=False)


def _load(system, r_rows, t_rows, u_rows):
    system.load_instances(
        {
            "R": [{"a": k, "b": p} for k, p in r_rows],
            "T": [{"c": k, "d": p} for k, p in t_rows],
            "U": [{"e": k, "f": p} for k, p in u_rows],
        }
    )


def canonical_bytes(table: Table) -> bytes:
    """One canonical serialization of a table's *information content*.

    Column order is assignment-dependent (the single-copy executor may
    evaluate ``T JOIN R`` where a shard plan evaluates ``R JOIN T``), and
    the repo's ``Table.__eq__`` is deliberately column-order-insensitive.
    Byte-identity is therefore asserted on sorted-attribute row
    renderings: equal serializations mean equal attribute sets, equal
    deduped rows, and equal canonical row multiplicity — everything but
    the incidental column permutation."""
    order = sorted(table.attributes)
    rendered = sorted(
        repr(tuple((a, row[a]) for a in order)) for row in table.row_dicts()
    )
    return "\n".join([repr(order)] + rendered).encode("utf-8")


def _assert_byte_identical(sharded: Table, single: Table) -> None:
    """Identical information content, canonical serialization and byte
    accounting (``byte_size`` is column-order-independent)."""
    assert frozenset(sharded.attributes) == frozenset(single.attributes)
    assert canonical_bytes(sharded) == canonical_bytes(single)
    assert sharded.byte_size() == single.byte_size()
    assert sharded == single


def _assert_gating(trace: TraceContext, result) -> None:
    """Rejected schemes provably never execute partitioned."""
    event_names = [event.name for event in trace.events]
    if not result.certificate.certified:
        assert result.mode == EXEC_SINGLE_COPY
        assert result.fallback_reason
        assert "shard_parallel_commit" not in event_names
        assert not trace.spans_named("shard")
        assert "shard_fallback" in event_names
        assert "shard_rejected" in event_names


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _rows(keys, min_rows=0, max_rows=10):
    return st.lists(
        st.tuples(st.sampled_from(keys), st.sampled_from(PAYLOADS)),
        min_size=min_rows,
        max_size=max_rows,
    )


@st.composite
def sharded_worlds(draw):
    """A query, instances, and a scheme map drawn over the full space.

    Returns ``(query, r_rows, t_rows, u_rows, schemes)`` where
    ``schemes`` may be certifiable (co-partitioned on join keys),
    merely compatible (multiround), or flatly rejectable — the
    differential property must hold for all of them.
    """
    query = draw(st.sampled_from([ONE_JOIN, TWO_JOIN]))
    shards = draw(st.integers(min_value=2, max_value=8))
    kinds = draw(
        st.lists(
            st.sampled_from(["hash-key", "hash-off", "range", "none"]),
            min_size=3,
            max_size=3,
        )
    )
    # Range routing needs a totally ordered key domain.
    keys = NUMERIC_KEYS if "range" in kinds else ALIAS_KEYS
    r_rows = draw(_rows(keys))
    t_rows = draw(_rows(keys))
    u_rows = draw(_rows(keys))

    join_attr = {"R": "a", "T": "c", "U": "e"}
    off_attr = {"R": "b", "T": "d", "U": "f"}
    schemes = {}
    for kind, name in zip(kinds, ("R", "T", "U")):
        if kind == "none":
            continue
        if kind == "range":
            # Strictly increasing numeric boundaries; shard count is
            # boundaries + 1 and need not match the hash shard count —
            # mixed signatures are part of the space under test.
            cuts = draw(
                st.lists(
                    st.integers(min_value=0, max_value=4),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            schemes[name] = RangePartitionScheme(
                name, join_attr[name], sorted(cuts), GROUP
            )
        else:
            attr = join_attr[name] if kind == "hash-key" else off_attr[name]
            function = draw(st.sampled_from(["crc32", "adler32"]))
            schemes[name] = HashPartitionScheme(
                name, [attr], shards, GROUP, function=function
            )
    return query, r_rows, t_rows, u_rows, schemes


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(world=sharded_worlds())
def test_sharded_matches_single_copy(world):
    """For every drawn scheme map — certified or not — the sharded
    coordinator's answer is byte-identical to single-copy execution,
    audits clean, and rejected schemes never run partitioned."""
    query, r_rows, t_rows, u_rows, schemes = world
    system = _system()
    _load(system, r_rows, t_rows, u_rows)
    single = system.execute(query)
    trace = TraceContext()
    executor = ShardedExecutor(system, schemes)
    result = executor.execute(query, trace=trace)
    _assert_byte_identical(result.table, single.table)
    assert result.violations() == 0
    assert len(single.audit.violations) == 0
    _assert_gating(trace, result)


@settings(max_examples=100, deadline=None)
@given(
    r_rows=_rows(ALIAS_KEYS, max_rows=12),
    t_rows=_rows(ALIAS_KEYS, max_rows=12),
    shards=st.integers(min_value=2, max_value=8),
)
def test_copartitioned_hash_is_partitioned_and_identical(r_rows, t_rows, shards):
    """The happy path pinned explicitly: co-partitioned hash schemes on
    the full join key always certify as hypercube, execute partitioned,
    and match single-copy byte for byte over the alias-corner domain."""
    system = _system()
    _load(system, r_rows, t_rows, [])
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, GROUP),
        "T": HashPartitionScheme("T", ["c"], shards, GROUP),
    }
    trace = TraceContext()
    executor = ShardedExecutor(system, schemes)
    certificate = executor.certify(ONE_JOIN)
    assert certificate.certified
    assert certificate.mode == "hypercube"
    result = executor.execute(ONE_JOIN, trace=trace)
    assert result.mode == "partitioned"
    assert result.shards == shards
    single = system.execute(ONE_JOIN)
    _assert_byte_identical(result.table, single.table)
    assert result.violations() == 0
    assert [e.name for e in trace.events].count("shard_parallel_commit") == 1


@settings(max_examples=60, deadline=None)
@given(
    r_rows=_rows(ALIAS_KEYS, max_rows=12),
    t_rows=_rows(ALIAS_KEYS, max_rows=12),
    shards=st.integers(min_value=2, max_value=6),
)
def test_multiround_fallback_is_identical(r_rows, t_rows, shards):
    """Compatible-but-unaligned hash schemes (R sharded off the join
    key) certify as multiround; the engine-level repartition fallback
    still matches single-copy byte for byte."""
    system = _system()
    _load(system, r_rows, t_rows, [])
    schemes = {
        "R": HashPartitionScheme("R", ["b"], shards, GROUP),
        "T": HashPartitionScheme("T", ["c"], shards, GROUP),
    }
    executor = ShardedExecutor(system, schemes)
    certificate = executor.certify(ONE_JOIN)
    assert certificate.certified
    assert certificate.mode == "multiround"
    result = executor.execute(ONE_JOIN)
    assert result.mode == "multiround"
    single = system.execute(ONE_JOIN)
    _assert_byte_identical(result.table, single.table)
    assert result.violations() == 0


def test_rejected_scheme_never_partitions_even_when_forced():
    """Belt and braces on the gate: incompatible hash families on the
    join's two sides are rejected, the fallback event fires, and the
    result still matches single-copy."""
    system = _system()
    _load(system, [(1, "p"), (2, "q")], [(1, "x"), (1.0, "y")], [])
    schemes = {
        "R": HashPartitionScheme("R", ["a"], 4, GROUP, function="crc32"),
        "T": HashPartitionScheme("T", ["c"], 4, GROUP, function="fnv"),
    }
    trace = TraceContext()
    executor = ShardedExecutor(system, schemes)
    result = executor.execute(ONE_JOIN, trace=trace)
    assert not result.certificate.certified
    _assert_gating(trace, result)
    _assert_byte_identical(result.table, system.execute(ONE_JOIN).table)


# ---------------------------------------------------------------------------
# Oracle parity on the intern-alias corners (satellite: _row_oracle)
# ---------------------------------------------------------------------------


def _assert_table_parity(table: Table, oracle: OracleTable) -> None:
    assert table.attributes == oracle.attributes
    assert table.rows == oracle.rows
    assert table.byte_size() == oracle.byte_size()


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows(ORACLE_KEYS, max_rows=14),
    shards=st.integers(min_value=2, max_value=8),
    function=st.sampled_from(["crc32", "adler32"]),
)
def test_shard_merge_matches_row_oracle(rows, shards, function):
    """`PartitionScheme.split` + `merge_shards` against the frozen
    row-at-a-time reference: identical per-shard placement, identical
    merge round trip, on a domain saturated with 1/1.0/True and
    0/0.0/-0.0 aliases."""
    scheme = HashPartitionScheme("R", ["a"], shards, GROUP, function=function)
    table = Table(("a", "b"), rows)
    oracle = OracleTable(("a", "b"), rows)
    split = scheme.split(table)
    reference = oracle_shard(oracle, ["a"], shards, scheme.shard_of)
    assert len(split) == len(reference) == shards
    for shard_table, shard_oracle in zip(split, reference):
        _assert_table_parity(shard_table, shard_oracle)
    merged = merge_shards(split)
    _assert_table_parity(merged, oracle_merge(reference))
    # Round trip: the merge recovers the deduped original exactly.
    _assert_table_parity(merged, OracleTable(("a", "b"), rows))


@pytest.mark.parametrize(
    "left,right",
    [(1, 1.0), (1, True), (1.0, True), (0, 0.0), (0, -0.0), (0.0, False)],
)
def test_alias_corner_rows_never_route_apart(left, right):
    """Every representation of one equality class lands on one shard —
    the exact property a repr-sensitive router breaks."""
    for shards in (2, 3, 5, 8):
        scheme = HashPartitionScheme("R", ["a"], shards, GROUP)
        assert scheme.shard_of((left,)) == scheme.shard_of((right,))
        range_scheme = RangePartitionScheme("R", "a", [1], GROUP)
        assert range_scheme.shard_of((left,)) == range_scheme.shard_of((right,))


@settings(max_examples=50, deadline=None)
@given(rows=_rows(ORACLE_NUMERIC, max_rows=14))
def test_range_split_matches_row_oracle(rows):
    """Range routing agrees with the oracle too (numeric domain — range
    schemes require a total order on keys)."""
    scheme = RangePartitionScheme("R", "a", [1, 3], GROUP)
    table = Table(("a", "b"), rows)
    oracle = OracleTable(("a", "b"), rows)
    split = scheme.split(table)
    reference = oracle_shard(oracle, ["a"], scheme.shards, scheme.shard_of)
    for shard_table, shard_oracle in zip(split, reference):
        _assert_table_parity(shard_table, shard_oracle)
    _assert_table_parity(merge_shards(split), oracle_merge(reference))


# ---------------------------------------------------------------------------
# The columnar split kernel equals the row split
# ---------------------------------------------------------------------------


def _class_key(row, positions):
    """A row's partition key as ``==``-classes (``None`` is its own)."""
    return tuple(
        ("none",) if row[p] is None else ("value", row[p]) for p in positions
    )


@st.composite
def split_cases(draw):
    """``(scheme, key attributes, rows)`` over hash schemes on one or
    two attributes (either order) and range schemes on one."""
    if draw(st.booleans()):
        cuts = draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=7, unique=True)
        )
        rows = draw(_rows(ORACLE_NUMERIC, max_rows=14))
        return RangePartitionScheme("R", "a", sorted(cuts), GROUP), ["a"], rows
    attributes = draw(st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"]]))
    shards = draw(st.integers(min_value=2, max_value=8))
    function = draw(st.sampled_from(["crc32", "adler32"]))
    rows = draw(_rows(ORACLE_KEYS, max_rows=14))
    return HashPartitionScheme("R", attributes, shards, GROUP, function=function), attributes, rows


@settings(max_examples=200, deadline=None)
@given(case=split_cases(), observed=st.booleans())
def test_columnar_split_matches_row_split(case, observed):
    """The id-column kernel places every row where the row-at-a-time
    reference does — on multi-attribute keys, ``None`` keys and the
    ``1 / 1.0 / True`` aliases, whose members hold different intern ids
    but must share a shard — and never re-sorts: a canonical input gives
    canonical shards whose stored order *is* the reference order."""
    scheme, attributes, rows = case
    table = Table(("a", "b"), rows)
    oracle = OracleTable(("a", "b"), rows)
    if observed:
        assert table.rows == oracle.rows  # materializes canonical order
    split = scheme.split(table)
    reference = oracle_shard(oracle, attributes, scheme.shards, scheme.shard_of)
    assert len(split) == len(reference) == scheme.shards
    for shard_table, shard_oracle in zip(split, reference):
        if observed:
            assert shard_table._canonical
        _assert_table_parity(shard_table, shard_oracle)
    # Pairwise disjoint and exhaustive, and no equality class of keys
    # straddles two shards.
    assert sum(len(shard) for shard in split) == len(table)
    _assert_table_parity(merge_shards(split), oracle)
    positions = [("a", "b").index(a) for a in attributes]
    homes = {}
    for index, shard_table in enumerate(split):
        for row in shard_table.rows:
            assert homes.setdefault(_class_key(row, positions), index) == index


# ---------------------------------------------------------------------------
# Residency is never stale: one long-lived system vs a fresh world per call
# ---------------------------------------------------------------------------

#: Always granted: each relation at home, every base view at G2.
CHURN_BASE = [
    grant("S1", "a b"),
    grant("S2", "c d"),
    grant("S3", "e f"),
    grant("G2", "a b"),
    grant("G2", "c d"),
    grant("G2", "e f"),
]
#: Toggled by grant/revoke steps.  G1's views of R and T gate
#: certification, its view of U gates the two-join shard plans, S2's
#: views gate the single-copy fallback, and S3's view of R changes
#: nothing but the epoch.
CHURN_POOL = [
    grant("G1", "a b"),
    grant("G1", "c d"),
    grant("G1", "e f"),
    grant("S2", "a b"),
    grant("S2", "e f"),
    grant("S3", "a b"),
]

_step = st.one_of(
    st.tuples(st.just("execute"), st.sampled_from([ONE_JOIN, TWO_JOIN])),
    st.tuples(st.just("reload"), _rows(ALIAS_KEYS, max_rows=8)),
    st.tuples(st.just("toggle"), st.integers(min_value=0, max_value=len(CHURN_POOL) - 1)),
)


def _outcome(run):
    """``("raised", type)`` or the run's comparable facts."""
    try:
        result = run()
    except ReproError as error:
        return ("raised", type(error))
    return (
        result.mode,
        result.fallback_reason,
        result.certificate.certified,
        result.violations(),
        canonical_bytes(result.table),
        result.table.byte_size(),
    )


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(_step, min_size=2, max_size=10),
    withheld=st.sets(st.sampled_from(CHURN_POOL), max_size=2),
    shards=st.integers(min_value=2, max_value=4),
)
def test_resident_coordinator_matches_a_fresh_one_under_churn(steps, withheld, shards):
    """Any interleaving of execute / reload / grant / revoke on one
    long-lived system answers exactly what a brand-new system (fresh
    closure, fresh coordinator, cold split) over the same rules and
    rows answers — mode, fallback reason, error type and bytes."""
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, GROUP),
        "T": HashPartitionScheme("T", ["c"], shards, GROUP),
        "U": HashPartitionScheme("U", ["e"], shards, GROUP),
    }
    explicit = CHURN_BASE + [rule for rule in CHURN_POOL if rule not in withheld]
    rows = {"R": [(1, "p"), (2, "q")], "T": [(1, "x"), (True, "y")], "U": [("x", 1)]}

    def world():
        system = DistributedSystem(CATALOG, Policy(explicit))
        _load(system, rows["R"], rows["T"], rows["U"])
        return system

    resident = world()
    for kind, argument in steps + [("execute", ONE_JOIN), ("execute", TWO_JOIN)]:
        if kind == "execute":
            fresh = world()
            assert _outcome(
                lambda: resident.execute_sharded(argument, schemes)
            ) == _outcome(
                lambda: ShardedExecutor(fresh, schemes).execute(argument)
            )
        elif kind == "reload":
            relation, columns = [("R", "ab"), ("T", "cd"), ("U", "ef")][len(argument) % 3]
            rows[relation] = argument
            resident.load_instances(
                {relation: [dict(zip(columns, row)) for row in argument]}
            )
        else:
            rule = CHURN_POOL[argument]
            if rule in explicit:
                explicit.remove(rule)
                resident.revoke_authorization(rule)
            else:
                explicit.append(rule)
                resident.add_authorization(rule)
