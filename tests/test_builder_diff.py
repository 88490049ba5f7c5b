"""Differential harness: the one shape builder against the frozen builders.

``tests/_builder_oracle.py`` keeps the three builders the one
:func:`~repro.algebra.builder.build_shaped_plan` replaced.  Every tree
the one builder gives must be the oracle's node for node — same
rendering, same structural fingerprint, same node ids, same node
schemas — and every spec the oracle refuses it must refuse with the same
error kind:

* left-deep specs: random synthetic catalogs, connected FROM orders
  (several per query), random SELECT subsets and random single- and
  cross-relation WHERE atoms, plus scrambled join steps the builders
  must refuse;
* parenthesized SQL: random join trees over the same queries, bound by
  :func:`~repro.sql.parse_query_plan` against the oracle's ``bind_plan``;
* every parenthesized query text of the test suites, on every catalog
  it binds to.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.predicates import Comparison, Predicate
from repro.exceptions import ReproError, SqlSyntaxError
from repro.sql import parse, parse_query_plan
from repro.testing import quick_catalog
from repro.workloads.coalition import coalition_catalog
from repro.workloads.medical import medical_catalog
from repro.workloads.synthetic import SyntheticWorkload
from tests import _builder_oracle as oracle

TESTS = Path(__file__).parent
OPS = ("=", "!=", "<", "<=", ">", ">=")


def outcome(build):
    """``build()``'s tree as everything a caller can observe of it, or
    the kind of error it raised."""
    try:
        tree = build()
    except ReproError as error:
        return type(error)
    return (
        tree.render(),
        oracle.fingerprint_tree(tree),
        [(node.node_id, sorted(node.schema)) for node in tree],
    )


def random_where(rng, catalog, relations):
    """0-3 atoms: literal and attribute-vs-attribute atoms over one
    relation, and attribute-vs-attribute atoms across two."""
    atoms = []
    for _ in range(rng.randint(0, 3)):
        first = catalog.relation(rng.choice(relations)).attributes
        if rng.random() < 0.4:
            atoms.append(Comparison(rng.choice(first), rng.choice(OPS), rng.randint(0, 9)))
            continue
        other = catalog.relation(rng.choice(relations)).attributes
        left, right = rng.choice(first), rng.choice(other)
        if left != right:
            atoms.append(Comparison.attr_vs_attr(left, rng.choice(OPS), right))
    return Predicate(atoms)


def random_query(seed, size):
    """A connected synthetic query of ``size`` relations with a random
    SELECT subset and WHERE, and the workload's catalog."""
    workload = SyntheticWorkload(seed)
    rng = random.Random(seed * 31 + size)
    spec = workload.random_query(relations=size)
    attributes = sorted(
        a for name in spec.relations for a in workload.catalog.relation(name).attributes
    )
    select = frozenset(rng.sample(attributes, rng.randint(1, min(5, len(attributes)))))
    where = random_where(rng, workload.catalog, spec.relations)
    return workload.catalog, QuerySpec(spec.relations, spec.join_paths, select, where), rng


def assert_same_left_deep(catalog, spec):
    assert outcome(lambda: build_plan(catalog, spec)) == outcome(
        lambda: oracle.build_plan(catalog, spec)
    ), spec


class TestLeftDeep:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 399), size=st.integers(1, 5))
    def test_every_order_builds_the_oracle_tree(self, seed, size):
        catalog, spec, rng = random_query(seed, size)
        orders = list(enumerate_join_orders(catalog, spec))
        for candidate in [orders[0]] + rng.sample(orders[1:], min(3, len(orders) - 1)):
            assert_same_left_deep(catalog, candidate)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 399), size=st.integers(3, 5))
    def test_scrambled_steps_fail_alike(self, seed, size):
        catalog, spec, rng = random_query(seed, size)
        steps = list(spec.join_paths)
        rng.shuffle(steps)
        assert_same_left_deep(catalog, spec.reordered(spec.relations, steps))

    def test_unknown_names_fail_alike(self, catalog, spec):
        for where in (Predicate([Comparison("Nope", "=", 1)]), None):
            broken = QuerySpec(spec.relations, spec.join_paths, frozenset({"Nope"}), where)
            assert_same_left_deep(catalog, broken)


def random_tree_sql(catalog, spec, rng):
    """``spec`` as SQL over a random binary tree of its FROM order: each
    join's ON lists the conditions bridging its two halves."""
    conditions = sorted(spec.full_join_path(), key=lambda c: (c.first, c.second))

    def grow(names):
        if len(names) == 1:
            return names[0], set(catalog.relation(names[0]).attributes)
        cut = rng.randint(1, len(names) - 1)
        left, left_attributes = grow(names[:cut])
        right, right_attributes = grow(names[cut:])
        on = [c for c in conditions if c.bridges(left_attributes, right_attributes)]
        if not on:
            raise ValueError("cartesian split")
        text = " AND ".join(f"{c.first} = {c.second}" for c in on)
        return f"({left} JOIN {right} ON {text})", left_attributes | right_attributes

    where = " AND ".join(
        f"{c.attribute} {c.op} {c.operand}" for c in spec.where.comparisons
    )
    sql = f"SELECT {', '.join(sorted(spec.select))} FROM {grow(spec.relations)[0]}"
    return sql + (f" WHERE {where}" if where else "")


def assert_same_parenthesized(catalog, sql):
    assert outcome(lambda: parse_query_plan(sql, catalog)) == outcome(
        lambda: oracle.bind_plan(parse(sql), catalog)
    ), sql


class TestParenthesized:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 399), size=st.integers(2, 5))
    def test_random_join_trees_build_the_oracle_tree(self, seed, size):
        catalog, spec, rng = random_query(seed, size)
        for candidate in list(enumerate_join_orders(catalog, spec))[:4]:
            try:
                sql = random_tree_sql(catalog, candidate, rng)
            except ValueError:
                continue
            assert_same_parenthesized(catalog, sql)

    def test_every_parenthesized_query_of_the_suites(self):
        catalogs = [
            medical_catalog(),
            coalition_catalog(),
            quick_catalog(
                "R(a, b) @ S1", "T(c, d) @ S2", "U(e, f) @ S3", "V(g, h) @ S4",
                edges=["a = c", "c = e", "e = g"],
            ),
        ]
        compared = 0
        for text in sorted(suite_queries()):
            for catalog in catalogs:
                if all(name in catalog for name in parse(text).relations):
                    assert_same_parenthesized(catalog, text)
                    compared += 1
        assert compared >= 4


def suite_queries():
    """The SQL string constants of ``tests/`` whose FROM clause has a
    parenthesis."""
    found = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            text = node.value
            if "(" not in text.partition(" FROM ")[2].partition(" WHERE ")[0]:
                continue
            try:
                parse(text)
            except SqlSyntaxError:
                continue
            found.add(text)
    return found
