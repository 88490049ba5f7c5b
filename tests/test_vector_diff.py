"""Differential testing of the columnar engine against the row oracle.

Hypothesis drives random tables and operator applications through both
engines — the columnar :class:`~repro.engine.data.Table` and the frozen
row-at-a-time :class:`tests._row_oracle.OracleTable` — and asserts the
results agree **row for row in canonical order**, not just
as sets.  Error behaviour must agree too: when the oracle raises, the
columnar engine raises the same exception type.

The value domain deliberately includes the nasty corners of Python
value equality: ``1``/``1.0``/``True`` are equal-but-distinct-typed (so
they dedup together and share join-key buckets), and ``None`` never
matches a join key.  It deliberately excludes ``-0.0`` and ``NaN``:
``-0.0`` interns to the same representative as ``0.0`` process-wide
(the seed already collapsed them within a table), and distinct ``NaN``
objects are never equal — both documented engine edges, neither a
relational semantics question.

A positional-kernel block pins what late materialization adds: output
*storage order* against the row-tuple bucket loops the kernels replaced
(kept here as the reference), composite join keys, and the per-table
key index and the memoized projections staying right across reuse,
canonicalization and a late cross-type alias.

A plan-level block runs whole query trees over synthetic federations
through ``evaluate_plan`` and the distributed executor against
``oracle_evaluate``; a last block checks the policy's memoized
covering rule against the unmemoized reference scan on real planner
probes, across random grants and revokes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.baselines.exhaustive import enumerate_structural_assignments
from repro.core.access import first_covering_authorization
from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.core.planner import SafePlanner
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
from repro.exceptions import ExecutionError
from repro.workloads.medical import medical_catalog, medical_policy, paper_plan
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

from tests._row_oracle import OracleTable, oracle_evaluate

# ---------------------------------------------------------------------------
# Value and table strategies
# ---------------------------------------------------------------------------

#: Scalars covering every storage class, including the equality corners
#: (1 == 1.0 == True) and None.  No -0.0, no NaN (see module docstring).
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["x", "y", "zz", ""]),
    st.sampled_from([0.5, -1.5, 2.0, 3.0]),
)

#: Join keys: a small domain so joins actually match, None included so
#: the null-skip rule fires.
keys = st.sampled_from(["x", "y", "z", None, 1, True, 0])


def rows_of(columns, min_rows=0, max_rows=8):
    return st.lists(
        st.tuples(*columns), min_size=min_rows, max_size=max_rows
    )


def both(attributes, rows):
    """The same relation in both engines."""
    return Table(attributes, rows), OracleTable(attributes, rows)


def assert_same(table: Table, oracle: OracleTable) -> None:
    """Canonical-order row-for-row agreement (order included: both
    engines promise the same deterministic sort)."""
    assert table.attributes == oracle.attributes
    assert table.rows == oracle.rows
    assert len(table) == len(oracle)
    assert table.byte_size() == oracle.byte_size()
    for attribute in table.attributes:
        assert table.column(attribute) == oracle.column(attribute)
        assert table.distinct_count(attribute) == oracle.distinct_count(attribute)


# ---------------------------------------------------------------------------
# Construction, equality, unary operators
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(rows=rows_of([values, values, keys]))
def test_construction_matches(rows):
    assert_same(*both(("A0", "A1", "A2"), rows))


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_of([values, values]),
    other_rows=rows_of([values, values]),
)
def test_equality_and_hash_parity(rows, other_rows):
    table, oracle = both(("A0", "A1"), rows)
    other_table, other_oracle = both(("A0", "A1"), other_rows)
    assert (table == other_table) == (oracle == other_oracle)
    if table == other_table:
        assert hash(table) == hash(other_table)


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_of([values, values, keys]),
    requested=st.lists(
        st.sampled_from(["A0", "A1", "A2"]), min_size=0, max_size=4
    ),
)
def test_project_matches(rows, requested):
    table, oracle = both(("A0", "A1", "A2"), rows)
    try:
        expected = oracle.project(requested)
    except Exception as err:
        with pytest.raises(type(err)):
            table.project(requested)
        return
    assert_same(table.project(requested), expected)


#: Comparison atoms over the test schema: literal and attr-vs-attr,
#: every operator, operands drawn from the full value domain.
comparisons = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(["A0", "A1", "A2"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        values,
    ),
    st.builds(
        Comparison.attr_vs_attr,
        st.just("A0"),
        st.sampled_from(["=", "!=", "<"]),
        st.just("A1"),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=rows_of([values, values, keys]),
    atoms=st.lists(comparisons, min_size=0, max_size=2),
)
def test_select_matches(rows, atoms):
    table, oracle = both(("A0", "A1", "A2"), rows)
    predicate = Predicate(atoms)
    try:
        expected = oracle.select(predicate)
    except Exception as err:
        # Mixed-type comparisons raise PredicateError in both engines;
        # the columnar fast path may trip on a different row first, so
        # only the exception type is pinned.
        with pytest.raises(type(err)):
            table.select(predicate)
        return
    assert_same(table.select(predicate), expected)


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    left_rows=rows_of([values, keys]),
    right_rows=rows_of([keys, values]),
)
def test_equi_join_matches(left_rows, right_rows):
    path = JoinPath.of(("K0", "K1"))
    left_t, left_o = both(("L0", "K0"), left_rows)
    right_t, right_o = both(("K1", "R0"), right_rows)
    expected = left_o.equi_join(right_o, path)
    assert_same(left_t.equi_join(right_t, path), expected)


@settings(max_examples=300, deadline=None)
@given(
    left_rows=rows_of([values, keys, keys]),
    right_rows=rows_of([keys, keys, values]),
)
def test_natural_join_matches(left_rows, right_rows):
    left_t, left_o = both(("A", "S0", "S1"), left_rows)
    right_t, right_o = both(("S0", "S1", "B"), right_rows)
    assert_same(
        left_t.natural_join(right_t), left_o.natural_join(right_o)
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_of([values, values]),
    other_rows=rows_of([values, values]),
    third_rows=rows_of([values, values]),
    flip=st.booleans(),
)
def test_union_matches(rows, other_rows, third_rows, flip):
    table, oracle = both(("A0", "A1"), rows)
    if flip:  # other side with permuted attribute order
        other_t, other_o = both(
            ("A1", "A0"), [(b, a) for a, b in other_rows]
        )
    else:
        other_t, other_o = both(("A0", "A1"), other_rows)
    assert_same(table.union(other_t), oracle.union(other_o))
    # n-ary: one concatenation and one dedup equal the pairwise fold.
    third_t, third_o = both(("A0", "A1"), third_rows)
    assert_same(
        table.union(other_t, third_t), oracle.union(other_o).union(third_o)
    )


@settings(max_examples=300, deadline=None)
@given(
    left_rows=rows_of([values, keys, keys]),
    right_rows=rows_of([keys, keys, values]),
)
def test_composite_equi_join_matches(left_rows, right_rows):
    """Two conditions, ``None`` possible in either key column: a key
    with a null in any component joins nothing."""
    path = JoinPath.of(("K0", "J0"), ("K1", "J1"))
    left_t, left_o = both(("L0", "K0", "K1"), left_rows)
    right_t, right_o = both(("J0", "J1", "R0"), right_rows)
    assert_same(left_t.equi_join(right_t, path), left_o.equi_join(right_o, path))


# ---------------------------------------------------------------------------
# Positional kernels: storage order and the per-table key index
# ---------------------------------------------------------------------------


def id_rows(table):
    """Rows as interned id tuples in *storage* order (nothing here may
    observe ``rows``/``column``: that canonicalizes the table)."""
    return list(zip(*[table.column_ids(a) for a in table.attributes]))


def class_keys(table, attributes):
    """Per stored row, the ``==``-class key over ``attributes``."""
    classes = table.pool._classes
    columns = [table.column_ids(a) for a in attributes]
    return [tuple(classes[i] for i in key) for key in zip(*columns)]


def row_tuple_join(left, right, left_keys, right_keys, emit):
    """The row-tuple bucket loop both joins ran before they moved
    positions: bucket the right rows (their ``emit`` columns) by class
    key, skip ``None`` keys per row, concatenate ``row + match``."""
    none_class = left.pool._classes[left.pool.intern(None)]
    slots = [right.attributes.index(a) for a in emit]
    buckets = {}
    for row, key in zip(id_rows(right), class_keys(right, right_keys)):
        if none_class not in key:
            buckets.setdefault(key, []).append(tuple(row[j] for j in slots))
    joined = []
    for row, key in zip(id_rows(left), class_keys(left, left_keys)):
        if none_class not in key:
            joined.extend(row + match for match in buckets.get(key, ()))
    return joined


@settings(max_examples=200, deadline=None)
@given(
    left_rows=rows_of([values, keys, keys]),
    right_rows=rows_of([keys, keys, values]),
    requested=st.sampled_from([["A"], ["S0", "S1"], ["A", "S1"], ["A", "S0", "S1"]]),
)
def test_storage_order_matches_row_tuple_loops(left_rows, right_rows, requested):
    left = Table(("A", "S0", "S1"), left_rows)
    right = Table(("S0", "S1", "B"), right_rows)
    # ``natural_join`` builds on ``self`` and probes with ``other``: for
    # each row of ``right`` in storage order, ``left``'s matches in
    # storage order — ``(S0, S1, B) + (A, S0, S1)`` per pairing, restated
    # in the output's columns (``left``'s, then ``right``'s extra ``B``).
    other_major = row_tuple_join(
        right, left, ["S0", "S1"], ["S0", "S1"], left.attributes
    )
    assert id_rows(left.natural_join(right)) == [
        row[3:] + row[2:3] for row in other_major
    ]
    renamed = Table(("K0", "K1", "B"), right_rows)
    assert id_rows(
        left.equi_join(renamed, JoinPath.of(("S0", "K0"), ("S1", "K1")))
    ) == row_tuple_join(left, renamed, ["S0", "S1"], ["K0", "K1"], renamed.attributes)
    # ``project`` keeps each class's first occurrence, in place.  It may
    # canonicalize its input first (alias corner), so the reference
    # reads the input's storage order afterwards.
    projected = left.project(requested)
    seen, kept = set(), []
    for row, key in zip(id_rows(left), class_keys(left, requested)):
        if key not in seen:
            seen.add(key)
            kept.append(tuple(row[left.attributes.index(a)] for a in requested))
    assert projected.attributes == tuple(requested)
    assert id_rows(projected) == kept


@settings(max_examples=150, deadline=None)
@given(
    build_rows=rows_of([keys, keys, values], max_rows=10),
    partners=st.lists(rows_of([values, keys]), min_size=2, max_size=3),
    targets=st.lists(st.integers(min_value=0, max_value=1), min_size=10, max_size=10),
)
def test_key_index_reuse_matches_fresh_tables(build_rows, partners, targets):
    """One build side, several partners, two key sets: every join off
    the memoized index equals the same join against a fresh copy, in
    storage order — also after ``select`` handed back ``self``, and
    after canonicalization moved the rows the index points at."""
    schema = ("J0", "J1", "R0")
    build = Table(schema, build_rows)
    paths = [JoinPath.of(("K0", "J0")), JoinPath.of(("K0", "J1"))]

    def joins(build_side):
        return [
            id_rows(Table(("L0", "K0"), rows).equi_join(build_side, path))
            for path in paths
            for rows in partners
        ]

    assert build.select(Predicate([])) is build
    assert joins(build) == joins(Table(schema, build_rows))
    assert joins(build) == joins(Table(schema, build_rows))  # warm index
    assert set(build._memo) == {("index", (0,)), ("index", (1,))}
    # A full-width projection is the table itself; every other derived
    # table is indexed on its own rows, never its parent's.
    assert build.project(["J0", "R0", "J1"]) is build
    derived = build.partition(targets[: len(build)], 2)
    derived.append(build.project(["J1", "R0"]))
    for table in derived:
        assert not table._memo
        partner = Table(("L0", "K0"), partners[0])
        joined = partner.equi_join(table, paths[1])
        assert joined == partner.equi_join(Table(table.attributes, table.rows), paths[1])
    # ``rows`` sorts the storage in place: stale positions must not survive.
    canonical = Table(schema, build.rows)
    assert joins(build) == joins(canonical)


_ALIAS_FLIP = """
from repro.algebra.joins import JoinPath
from repro.engine.data import Table, shared_pool
from tests._row_oracle import OracleTable

path = JoinPath.of(("K0", "K1"))
build_rows = [(1, "one"), (2, "two"), (None, "none"), (1, "uno")]
build = Table(("K1", "R0"), build_rows)
assert len(Table(("L0", "K0"), [("w", 1)]).equi_join(build, path)) == 2
index = build._memo["index", (0,)]
narrow_rows = [(1, "one"), (2, "two"), (1, "one"), (None, "none")]
narrow = Table(("K1", "R0", "X"), [row + (i,) for i, row in enumerate(narrow_rows)])
projected = narrow.project(["K1", "R0"])
assert not shared_pool().has_aliases  # derived while ids were class ids
probe_rows = [("t", True), ("f", 1.0), ("n", None), ("z", 2), ("o", 1)]
probe = Table(("L0", "K0"), probe_rows)
assert shared_pool().has_aliases
joined = probe.equi_join(build, path)
assert build._memo["index", (0,)] is index
# A projection memoized before the alias is still the fresh one after it.
assert narrow.project(["R0", "K1"]) is projected
fresh = Table(narrow.attributes, narrow.rows).project(["K1", "R0"])
assert projected.rows == fresh.rows == OracleTable(("K1", "R0"), narrow_rows).rows
assert projected.byte_size() == fresh.byte_size()
expected = OracleTable(("L0", "K0"), probe_rows).equi_join(
    OracleTable(("K1", "R0"), build_rows), path
)
assert len(expected) == 7
assert joined.rows == expected.rows, (joined.rows, expected.rows)
# And the other way round: a True-keyed index probed with 1.
flipped = build.equi_join(probe, path)
assert flipped.rows == OracleTable(("K1", "R0"), build_rows).equi_join(
    OracleTable(("L0", "K0"), probe_rows), path
).rows
print("alias flip ok")
"""


def test_key_index_survives_a_late_alias():
    """Index a table keyed ``1`` while the pool has no aliases, *then*
    intern ``True``: the memoized index must still match — a value's
    class id is fixed when it is interned, and an alias joins the older
    value's class.  Needs a fresh interpreter: this process's pool has
    had aliases since the first test above."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    done = subprocess.run(
        [sys.executable, "-c", _ALIAS_FLIP],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "alias flip ok"


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_of([values, values, keys]),
    requests=st.lists(
        st.lists(st.sampled_from(["A0", "A1", "A2", "Z"]), min_size=0, max_size=3),
        min_size=1,
        max_size=4,
    ),
)
def test_memoized_projection_matches_fresh_tables(rows, requests):
    """Every projection off a table's memo — first call, a hit, a call
    after ``rows`` sorted the parent under it — equals the projection of
    a fresh copy in rows and bytes; a bad request raises the same error
    on every call, a hit on the same attribute set in between included."""
    schema = ("A0", "A1", "A2")
    table = Table(schema, rows)

    def check(requested):
        fresh = Table(schema, rows)
        try:
            expected = fresh.project(requested)
        except ExecutionError as err:
            for _ in range(2):
                with pytest.raises(ExecutionError) as raised:
                    table.project(requested)
                assert str(raised.value) == str(err)
            return None
        projected = table.project(requested)
        assert projected.attributes == expected.attributes
        assert projected.byte_size() == expected.byte_size()
        assert projected.rows == expected.rows
        return projected

    first = [check(requested) for requested in requests]
    again = [check(requested) for requested in requests]
    for before, after in zip(first, again):
        assert after is before  # None for a bad request, both times
    # A duplicated request fails after a hit on its attribute set too.
    for requested, projected in zip(requests, first):
        if projected is not None:
            with pytest.raises(ExecutionError, match="duplicated"):
                table.project(requested + requested[:1])
    # ``rows`` sorts the parent in place: the memo must not outlive that.
    assert table.rows == Table(schema, rows).rows
    for requested in requests:
        check(requested)


# ---------------------------------------------------------------------------
# Operator sequences
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    left_rows=rows_of([values, keys], max_rows=10),
    right_rows=rows_of([keys, values], max_rows=10),
    atoms=st.lists(
        st.builds(
            Comparison,
            st.sampled_from(["L0", "R0"]),
            st.sampled_from(["=", "!="]),
            st.sampled_from(["x", "y", None, 1]),
        ),
        min_size=0,
        max_size=1,
    ),
    projection=st.sampled_from([["L0"], ["L0", "R0"], ["K0", "R0"]]),
)
def test_pipeline_matches(left_rows, right_rows, atoms, projection):
    """join -> select -> project against the oracle, one full table per
    step in both engines."""
    path = JoinPath.of(("K0", "K1"))
    predicate = Predicate(atoms)
    left_t, left_o = both(("L0", "K0"), left_rows)
    right_t, right_o = both(("K1", "R0"), right_rows)
    expected = (
        left_o.equi_join(right_o, path).select(predicate).project(projection)
    )
    table_result = (
        left_t.equi_join(right_t, path).select(predicate).project(projection)
    )
    assert_same(table_result, expected)


# ---------------------------------------------------------------------------
# Whole plans: evaluate_plan and the distributed executor vs the oracle
# ---------------------------------------------------------------------------

#: Cell domains for the plan-level lane: one free of cross-type aliases,
#: one with the ``1``/``True``/``1.0`` corner.  Small, so joins match and
#: projections collapse rows.
_PLAIN_CELLS = ["x", "y", "z", None, 1, 0]
_ALIAS_CELLS = _PLAIN_CELLS + [True, 1.0]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=3),
    aliases=st.booleans(),
)
def test_plan_matches_oracle(data, seed, size, aliases):
    """A synthetic federation's random query, every relation filled from
    a small cell domain: ``evaluate_plan`` agrees with the oracle row for
    row, and so does every executor assignment tried — regular and
    semi-join, either side as master."""
    workload = SyntheticWorkload(
        seed=seed, config=WorkloadConfig(servers=3, relations=4, extra_join_edges=1)
    )
    catalog = workload.catalog
    spec = workload.random_query(relations=size)
    cells = st.sampled_from(_ALIAS_CELLS if aliases else _PLAIN_CELLS)
    where = data.draw(
        st.one_of(
            st.none(),
            st.builds(
                lambda attribute, op, operand: Predicate(
                    [Comparison(attribute, op, operand)]
                ),
                st.sampled_from(sorted(spec.select)),
                st.sampled_from(["=", "!="]),
                cells,
            ),
        )
    )
    plan = build_plan(
        catalog, QuerySpec(spec.relations, spec.join_paths, spec.select, where)
    )
    tables, oracles = {}, {}
    for name in spec.relations:
        attributes = catalog.relation(name).attributes
        rows = data.draw(rows_of([cells] * len(attributes), max_rows=6))
        tables[name], oracles[name] = both(attributes, rows)
    expected = oracle_evaluate(plan, oracles)
    assert_same(evaluate_plan(plan, tables), expected)
    for assignment in islice(enumerate_structural_assignments(plan), 16):
        table = DistributedExecutor(assignment, tables).run().table
        # A semi-join mastered at the right operand emits that
        # operand's columns first; column order is not part of a
        # relation, so realign before comparing.
        assert set(table.attributes) == set(expected.attributes)
        index = [table.attributes.index(a) for a in expected.attributes]
        realigned = Table(
            expected.attributes, [tuple(row[i] for i in index) for row in table.rows]
        )
        if aliases:
            # Which of two value-equal, differently-typed rows survives
            # a collapsing projection follows the child's canonical
            # order, hence its column order — equal as relations is all
            # set semantics promises here.
            assert len(realigned) == len(expected)
            assert set(realigned.rows) == set(expected.rows)
        else:
            assert_same(realigned, expected)


# ---------------------------------------------------------------------------
# Memoized covering rule vs the reference scan, under policy churn
# ---------------------------------------------------------------------------


def _planner_probes():
    catalog = medical_catalog()
    closed = close_policy(medical_policy(), catalog)

    class Recorder:
        def __init__(self):
            self.seen = []

        def can_view(self, profile, server):
            self.seen.append((profile, server))
            return closed.can_view(profile, server)

    recorder = Recorder()
    SafePlanner(recorder).plan(paper_plan(catalog))
    servers = sorted({server for _, server in recorder.seen})
    profiles = [profile for profile, _ in recorder.seen]
    return closed, profiles, servers


_CLOSED, _PROFILES, _SERVERS = _planner_probes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fresh=st.booleans())
def test_covering_rule_matches_reference_scan(data, fresh):
    server = data.draw(st.sampled_from(_SERVERS))
    profiles = data.draw(
        st.lists(st.sampled_from(_PROFILES), min_size=0, max_size=24)
    )
    rules = list(_CLOSED)
    policy = Policy(rules, universe=_CLOSED.universe)
    if not fresh:
        # A warm memo: every probe answered once before the asks below.
        for profile in _PROFILES:
            policy.can_view(profile, server)
    for profile in profiles:
        if data.draw(st.booleans()):
            # A grant or revoke between asks must clear the memo; a
            # re-granted rule moves to the end of its bucket, so "first
            # covering" may change too.
            rule = data.draw(st.sampled_from(rules))
            if rule in policy:
                policy.remove(rule)
            else:
                policy.add(rule)
        expected = first_covering_authorization(policy, profile, server)
        if data.draw(st.booleans()):
            assert policy.can_view(profile, server) is (expected is not None)
            assert policy.covering_rule(profile, server) is expected
        else:
            assert policy.covering_rule(profile, server) is expected
            assert policy.can_view(profile, server) is (expected is not None)
