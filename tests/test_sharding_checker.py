"""Property tests for the parallel-correctness checker.

Three laws the checker must uphold, each driven by Hypothesis over the
scheme space rather than pinned examples:

1. **Completeness on the easy case** — hash-partitioning every joined
   relation on its full join key, with one hash family and one shard
   count, always certifies (hypercube mode).  A checker that rejects
   textbook co-partitioning is useless.
2. **Soundness on the adversarial case** — a join key split across
   incompatible hash families (or mismatched shard counts, or a
   hash/range mix) always fails, because equal keys route to different
   shards and no shuffle of those schemes repairs it.
3. **Determinism** — the verdict is a pure function of
   (query, schemes, closed policy): identical across repeated runs and
   across policy-epoch bumps that do not change the grants, with the
   certificate pinned to the epoch it was issued under.

The authorization gate rides along: any group containing a server the
closed policy does not grant the base view to is rejected, whatever the
scheme looks like structurally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.distributed.system import DistributedSystem
from repro.obs import TraceContext
from repro.sharding import (
    MODE_HYPERCUBE,
    MODE_MULTIROUND,
    MODE_REJECTED,
    MODE_TRIVIAL,
    HashPartitionScheme,
    ParallelCorrectnessChecker,
    PartitionGroup,
    RangePartitionScheme,
    certify_schemes,
)
from repro.testing import grant, quick_catalog

# ---------------------------------------------------------------------------
# World: same shape as the differential suite (R -> T -> U chain)
# ---------------------------------------------------------------------------

SERVERS = ("S1", "S2", "S3", "G1", "G2", "G3")

CATALOG = quick_catalog(
    "R(a, b) @ S1",
    "T(c, d) @ S2",
    "U(e, f) @ S3",
    edges=["a = c", "d = e"],
)


def _policy() -> Policy:
    policy = Policy()
    for server in SERVERS:
        policy.add(grant(server, "a b"))
        policy.add(grant(server, "c d"))
        policy.add(grant(server, "e f"))
        policy.add(grant(server, "a b c d", "a = c"))
        policy.add(grant(server, "c d e f", "d = e"))
        policy.add(grant(server, "a b c d e f", "a = c, d = e"))
    return policy


CLOSED = close_policy(_policy(), CATALOG)

#: Same grants, later epoch: an add/remove of one unrelated rule moves
#: the counter and leaves the grants as they were, which is exactly the
#: revalidation scenario cached plans hit after unrelated policy churn.
BUMPED = close_policy(_policy(), CATALOG)
BUMPED.add(grant("Unrelated", "a b"))
BUMPED.remove(grant("Unrelated", "a b"))

SYSTEM = DistributedSystem(CATALOG, CLOSED, apply_closure=False)

ONE_JOIN = SYSTEM.parse("SELECT a, b, d FROM R JOIN T ON a = c")
TWO_JOIN = SYSTEM.parse("SELECT a, b, d, f FROM R JOIN T ON a = c JOIN U ON d = e")

JOIN_KEY = {"R": "a", "T": "c", "U": "e"}
OFF_KEY = {"R": "b", "T": "d", "U": "f"}

groups = st.sampled_from(
    [
        PartitionGroup("g12", ["G1", "G2"]),
        PartitionGroup("g13", ["G1", "G3"]),
        PartitionGroup("g123", ["G1", "G2", "G3"]),
    ]
)
shard_counts = st.integers(min_value=2, max_value=8)
functions = st.sampled_from(["crc32", "adler32", "fnv"])


def _checker(policy=CLOSED) -> ParallelCorrectnessChecker:
    return ParallelCorrectnessChecker(policy, CATALOG, assume_closed=True)


def _verdict_tuple(certificate):
    return (
        certificate.certified,
        certificate.mode,
        certificate.reason,
        tuple(certificate.sharded),
    )


# ---------------------------------------------------------------------------
# Law 1: hash on the full join key always certifies
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(shards=shard_counts, function=functions, group=groups)
def test_hash_on_full_join_key_always_certifies(shards, function, group):
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, group, function=function),
        "T": HashPartitionScheme("T", ["c"], shards, group, function=function),
    }
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert certificate.certified, certificate.reason
    assert certificate.mode == MODE_HYPERCUBE
    assert tuple(certificate.sharded) == ("R", "T")
    assert certificate.policy_epoch == CLOSED.epoch


@settings(max_examples=60, deadline=None)
@given(
    shards=shard_counts,
    function=functions,
    group=groups,
    relation=st.sampled_from(["R", "T", "U"]),
    on_join_key=st.booleans(),
)
def test_single_sharded_relation_always_certifies(
    shards, function, group, relation, on_join_key
):
    """One sharded relation has no alignment obligation at all: any
    valid scheme — even on a non-join attribute — is hypercube-safe."""
    attr = (JOIN_KEY if on_join_key else OFF_KEY)[relation]
    schemes = {
        relation: HashPartitionScheme(
            relation, [attr], shards, group, function=function
        )
    }
    certificate = _checker().certify(TWO_JOIN, schemes)
    assert certificate.certified, certificate.reason
    assert certificate.mode == MODE_HYPERCUBE
    assert tuple(certificate.sharded) == (relation,)


# ---------------------------------------------------------------------------
# Law 2: incompatible routing always fails
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    shards=shard_counts,
    group=groups,
    pair=st.sampled_from(
        [("crc32", "adler32"), ("adler32", "crc32"), ("crc32", "fnv"), ("fnv", "adler32")]
    ),
)
def test_incompatible_hash_functions_always_fail(shards, group, pair):
    left, right = pair
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, group, function=left),
        "T": HashPartitionScheme("T", ["c"], shards, group, function=right),
    }
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert not certificate.certified
    assert certificate.mode == MODE_REJECTED
    assert "incompatible schemes" in certificate.reason


@settings(max_examples=60, deadline=None)
@given(
    shards=shard_counts,
    other=shard_counts,
    function=functions,
    group=groups,
)
def test_mismatched_shard_counts_always_fail(shards, other, function, group):
    if shards == other:
        other = other + 1 if other < 8 else 2
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, group, function=function),
        "T": HashPartitionScheme("T", ["c"], other, group, function=function),
    }
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert not certificate.certified
    assert certificate.mode == MODE_REJECTED
    assert "incompatible schemes" in certificate.reason


@settings(max_examples=40, deadline=None)
@given(shards=shard_counts, function=functions, group=groups)
def test_hash_range_mix_on_joined_pair_fails(shards, function, group):
    schemes = {
        "R": HashPartitionScheme("R", ["a"], shards, group, function=function),
        "T": RangePartitionScheme("T", "c", list(range(1, shards)), group),
    }
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert not certificate.certified
    assert certificate.mode == MODE_REJECTED


# ---------------------------------------------------------------------------
# Law 3: determinism across runs and policy-epoch bumps
# ---------------------------------------------------------------------------

scheme_configs = st.fixed_dictionaries(
    {
        "shards": shard_counts,
        "function": functions,
        "second_function": functions,
        "group": groups,
        "r_attr": st.sampled_from(["a", "b"]),
        "t_attr": st.sampled_from(["c", "d"]),
        "shard_u": st.booleans(),
    }
)


def _schemes_from(config):
    schemes = {
        "R": HashPartitionScheme(
            "R", [config["r_attr"]], config["shards"], config["group"],
            function=config["function"],
        ),
        "T": HashPartitionScheme(
            "T", [config["t_attr"]], config["shards"], config["group"],
            function=config["second_function"],
        ),
    }
    if config["shard_u"]:
        schemes["U"] = HashPartitionScheme(
            "U", ["e"], config["shards"], config["group"],
            function=config["function"],
        )
    return schemes


@settings(max_examples=100, deadline=None)
@given(config=scheme_configs)
def test_verdict_deterministic_across_runs_and_epochs(config):
    """Whatever the verdict is — certified in either mode, or rejected —
    it is identical on every run, from fresh checker instances, and
    unchanged by an epoch bump that leaves the grants alone.  Only the
    recorded ``policy_epoch`` moves with the policy."""
    schemes = _schemes_from(config)
    first = _checker().certify(TWO_JOIN, schemes)
    assert first.mode in (MODE_HYPERCUBE, MODE_MULTIROUND, MODE_REJECTED)
    for _ in range(3):
        again = _checker().certify(TWO_JOIN, schemes)
        assert _verdict_tuple(again) == _verdict_tuple(first)
        assert again.policy_epoch == CLOSED.epoch
    bumped = _checker(BUMPED).certify(TWO_JOIN, schemes)
    assert _verdict_tuple(bumped) == _verdict_tuple(first)
    assert bumped.policy_epoch == BUMPED.epoch
    assert bumped.policy_epoch != first.policy_epoch


# ---------------------------------------------------------------------------
# Gate behaviour: trivial mode, authorization, trace counters
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(shards=shard_counts, function=functions, group=groups)
def test_untouched_relations_make_the_verdict_trivial(shards, function, group):
    """Schemes for relations the query never reads impose nothing."""
    schemes = {
        "U": HashPartitionScheme("U", ["e"], shards, group, function=function)
    }
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert certificate.certified
    assert certificate.mode == MODE_TRIVIAL
    assert tuple(certificate.sharded) == ()


@settings(max_examples=60, deadline=None)
@given(
    shards=shard_counts,
    function=functions,
    relation=st.sampled_from(["R", "T", "U"]),
    position=st.integers(min_value=0, max_value=1),
)
def test_ungranted_group_member_always_rejects(shards, function, relation, position):
    """Authorization gate: one group member without the base view sinks
    the whole scheme, regardless of structure (group CanView is a
    conjunction; only the home server is exempt)."""
    members = ["G1", "G2"]
    members.insert(position, "OUTSIDER")
    group = PartitionGroup("tainted", members)
    schemes = {
        relation: HashPartitionScheme(
            relation, [JOIN_KEY[relation]], shards, group, function=function
        )
    }
    certificate = _checker().certify(TWO_JOIN, schemes)
    assert not certificate.certified
    assert certificate.mode == MODE_REJECTED
    assert "widen" in certificate.reason
    assert "'OUTSIDER'" in certificate.reason


def test_malformed_scheme_is_a_verdict_not_an_error():
    group = PartitionGroup("g", ["G1", "G2"])
    schemes = {"R": HashPartitionScheme("R", ["zz"], 4, group)}
    certificate = _checker().certify(ONE_JOIN, schemes)
    assert not certificate.certified
    assert certificate.mode == MODE_REJECTED
    assert "invalid scheme" in certificate.reason


def test_certify_schemes_wrapper_and_trace_counters():
    trace = TraceContext()
    group = PartitionGroup("g", ["G1", "G2"])
    good = {
        "R": HashPartitionScheme("R", ["a"], 4, group),
        "T": HashPartitionScheme("T", ["c"], 4, group),
    }
    bad = {
        "R": HashPartitionScheme("R", ["a"], 4, group, function="crc32"),
        "T": HashPartitionScheme("T", ["c"], 4, group, function="fnv"),
    }
    ok = certify_schemes(ONE_JOIN, good, CLOSED, CATALOG, assume_closed=True, trace=trace)
    no = certify_schemes(ONE_JOIN, bad, CLOSED, CATALOG, assume_closed=True, trace=trace)
    assert ok.certified and not no.certified
    names = [event.name for event in trace.events]
    assert "shard_certified" in names
    assert "shard_rejected" in names
    assert len(trace.spans_named("certify")) == 2
