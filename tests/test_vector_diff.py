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

A plan-level block runs whole query trees over synthetic federations
through ``evaluate_plan`` and the distributed executor against
``oracle_evaluate``; a last block checks the batched ``CanView`` kernel
against the scalar one on real planner probes at random batch sizes.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.predicates import Comparison, Predicate
from repro.baselines.exhaustive import enumerate_structural_assignments
from repro.core.authorization import Policy
from repro.core.closure import close_policy
from repro.core.planner import SafePlanner
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
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
        st.sampled_from(["A0", "A1", "A2"]), min_size=1, max_size=4
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
    flip=st.booleans(),
)
def test_union_matches(rows, other_rows, flip):
    table, oracle = both(("A0", "A1"), rows)
    if flip:  # other side with permuted attribute order
        other_t, other_o = both(
            ("A1", "A0"), [(b, a) for a, b in other_rows]
        )
    else:
        other_t, other_o = both(("A0", "A1"), other_rows)
    assert_same(table.union(other_t), oracle.union(other_o))


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
# Batched CanView vs scalar, at random batch sizes
# ---------------------------------------------------------------------------


def _planner_probes():
    catalog = medical_catalog()
    closed = close_policy(medical_policy(), catalog)

    class Recorder:
        def __init__(self):
            self.seen = []

        def permits(self, profile, server):
            self.seen.append((profile, server))
            return closed.can_view(profile, server)

    recorder = Recorder()
    SafePlanner(recorder).plan(paper_plan(catalog))
    servers = sorted({server for _, server in recorder.seen})
    profiles = [profile for profile, _ in recorder.seen]
    return closed, profiles, servers


_CLOSED, _PROFILES, _SERVERS = _planner_probes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    batch_size=st.integers(min_value=1, max_value=32),
    fresh=st.booleans(),
)
def test_canview_batch_matches_scalar(data, batch_size, fresh):
    server = data.draw(st.sampled_from(_SERVERS))
    profiles = data.draw(
        st.lists(st.sampled_from(_PROFILES), min_size=0, max_size=24)
    )
    policy = (
        Policy(list(_CLOSED), universe=_CLOSED.universe) if fresh else _CLOSED
    )
    # Batch first: on a fresh policy the whole batch goes through the
    # mask kernel cold, then the scalar replay must agree (and, being
    # cache hits by then, also proves the batch populated the memo).
    answers = []
    for start in range(0, len(profiles), batch_size):
        answers.extend(
            policy.can_view_batch(profiles[start : start + batch_size], server)
        )
    assert answers == [policy.can_view(p, server) for p in profiles]
