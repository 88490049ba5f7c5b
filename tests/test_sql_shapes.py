"""Parenthesized FROM clauses: SQL-driven bushy trees end to end."""

import pytest

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinPath
from repro.algebra.tree import JoinNode, UnaryNode
from repro.distributed.system import DistributedSystem
from repro.engine.operators import evaluate_plan
from repro.exceptions import BindingError, SqlSyntaxError
from repro.sql import parse, parse_query, parse_query_plan
from repro.sql.ast import FromJoin, FromRelation
from repro.workloads.medical import generate_instances, medical_catalog, medical_policy

BUSHY_SQL = (
    "SELECT Plan, HealthAid, Physician "
    "FROM (Insurance JOIN Nat_registry ON Holder = Citizen) "
    "JOIN Hospital ON Citizen = Patient"
)
RIGHT_NESTED_SQL = (
    "SELECT Plan, Physician, HealthAid "
    "FROM Insurance JOIN (Nat_registry JOIN Hospital ON Citizen = Patient) "
    "ON Holder = Citizen"
)


class TestParsingShapes:
    def test_unparenthesized_chain_is_left_deep(self):
        query = parse(
            "SELECT x FROM A JOIN B ON a = b JOIN C ON b = c"
        )
        assert query.is_left_deep
        assert query.relations == ["A", "B", "C"]
        assert repr(query.from_tree) == "((A JOIN B ON a = b) JOIN C ON b = c)"

    def test_left_parens_keep_left_deep(self):
        query = parse("SELECT x FROM (A JOIN B ON a = b) JOIN C ON b = c")
        assert query.is_left_deep

    def test_right_nesting_is_bushy(self):
        query = parse("SELECT x FROM A JOIN (B JOIN C ON b = c) ON a = b")
        assert not query.is_left_deep
        assert isinstance(query.from_tree, FromJoin)
        assert isinstance(query.from_tree.right, FromJoin)

    def test_fully_bushy_four_way(self):
        query = parse(
            "SELECT x FROM (A JOIN B ON a = b) JOIN (C JOIN D ON c = d) ON b = c"
        )
        assert not query.is_left_deep
        tree = query.from_tree
        assert isinstance(tree.left, FromJoin) and isinstance(tree.right, FromJoin)
        assert query.relations == ["A", "B", "C", "D"]

    def test_redundant_parens_around_relation(self):
        query = parse("SELECT x FROM (A) JOIN B ON a = b")
        assert query.is_left_deep
        assert isinstance(query.from_tree.left, FromRelation)

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT x FROM (A JOIN B ON a = b JOIN C ON b = c")


class TestBindingShapes:
    def test_bushy_query_binds_to_a_shaped_spec(self, catalog):
        spec = parse_query(RIGHT_NESTED_SQL, catalog)
        assert spec.relations == ("Insurance", "Nat_registry", "Hospital")
        inner = ("Nat_registry", "Hospital", JoinPath.of(("Citizen", "Patient")))
        assert spec.join_tree == ("Insurance", inner, JoinPath.of(("Holder", "Citizen")))
        # Post-order: the nested join first, then the one joining it.
        assert spec.join_paths == (inner[2], spec.join_tree[2])
        # The join tree is part of the identity: the chain of the same
        # relations and conditions is another query plan.
        chain = parse_query(
            "SELECT Plan, Physician, HealthAid FROM Nat_registry JOIN Hospital "
            "ON Citizen = Patient JOIN Insurance ON Holder = Citizen",
            catalog,
        )
        assert chain.full_join_path() == spec.full_join_path()
        assert chain.fingerprint() != spec.fingerprint()
        assert parse_query_plan(RIGHT_NESTED_SQL, catalog).render() == (
            build_plan(catalog, spec).render()
        )

    def test_left_parens_bind_to_the_chain(self, catalog):
        spec = parse_query(BUSHY_SQL, catalog)
        assert spec.join_tree is None
        assert spec.fingerprint() == parse_query(
            BUSHY_SQL.replace("(", "").replace(")", ""), catalog
        ).fingerprint()

    def test_left_deep_unchanged(self, catalog, spec):
        sql = (
            "SELECT Patient, Physician, Plan, HealthAid "
            "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
            "JOIN Hospital ON Citizen = Patient"
        )
        assert parse_query(sql, catalog).relations == spec.relations

    def test_bushy_plan_shape(self, catalog):
        plan = parse_query_plan(RIGHT_NESTED_SQL, catalog)
        root = plan.root
        top_join = root.left if isinstance(root, UnaryNode) else root
        assert isinstance(top_join, JoinNode)
        assert isinstance(top_join.right, JoinNode) or isinstance(
            top_join.right, UnaryNode
        )

    def test_bushy_condition_must_bridge_its_parens(self, catalog):
        with pytest.raises(BindingError):
            parse_query_plan(
                "SELECT Plan FROM Insurance JOIN "
                "(Nat_registry JOIN Hospital ON Citizen = Patient) "
                "ON Citizen = Patient",  # does not bridge Insurance side
                catalog,
            )

    def test_bushy_plan_where_pushdown(self, catalog):
        plan = parse_query_plan(
            RIGHT_NESTED_SQL.replace(
                "ON Holder = Citizen", "ON Holder = Citizen WHERE Plan = 'gold'"
            ),
            catalog,
        )
        selections = [
            n for n in plan if isinstance(n, UnaryNode) and n.operator == "select"
        ]
        assert len(selections) == 1
        assert selections[0].left.is_leaf

    def test_unknown_relation(self, catalog):
        with pytest.raises(BindingError):
            parse_query_plan(
                "SELECT Plan FROM Insurance JOIN (Nope JOIN Hospital ON "
                "Citizen = Patient) ON Holder = Citizen",
                catalog,
            )


class TestBushySqlEndToEnd:
    @pytest.fixture()
    def system(self):
        system = DistributedSystem(medical_catalog(), medical_policy())
        system.load_instances(generate_instances(seed=37, citizens=60))
        return system

    def test_left_parens_execute_like_plain(self, system):
        plain_sql = BUSHY_SQL.replace("(", "").replace(")", "")
        parenthesized = system.execute(BUSHY_SQL)
        plain = system.execute(plain_sql)
        assert parenthesized.table == plain.table

    def test_right_nested_shape_planned_as_written(self, system):
        """The bushy medical shape is infeasible under Figure 3 (see
        test_bushy_plans) — the system must plan the user's explicit
        shape and report that, not silently reorder."""
        from repro.exceptions import InfeasiblePlanError

        with pytest.raises(InfeasiblePlanError):
            system.plan(RIGHT_NESTED_SQL)
        # Nor when asked to search: the shape is the query's, and the
        # verdict cached without the flag answers it.
        with pytest.raises(InfeasiblePlanError):
            system.plan(RIGHT_NESTED_SQL, search_join_orders=True)
        assert system.plan_cache.stats.negative_hits == 1

    def test_right_nested_executes_when_policy_allows(self):
        """Under a permissive policy the bushy SQL runs and matches the
        centralized oracle."""
        from repro.core.authorization import Authorization, Policy

        catalog = medical_catalog()
        # Per Definition 3.1 a rule's attributes spanning several
        # relations need a covering path, so permissiveness is expressed
        # as per-relation grants; the chase derives every joined view.
        policy = Policy(
            [
                Authorization(relation.attribute_set, None, server)
                for server in ("S_I", "S_H", "S_N", "S_D")
                for relation in catalog.relations()
            ]
        )
        system = DistributedSystem(catalog, policy, apply_closure=True)
        system.load_instances(generate_instances(seed=37, citizens=40))
        result = system.execute(RIGHT_NESTED_SQL)
        tree, _, _ = system.plan(RIGHT_NESTED_SQL)
        assert result.table == evaluate_plan(tree, system.tables())
