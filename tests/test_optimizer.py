"""Unit tests for the join-order search."""

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.joins import JoinPath
from repro.algebra.schema import Catalog, RelationSchema


def chain_catalog(n=4) -> Catalog:
    """R0 - R1 - ... - R{n-1} in a chain (each edge on dedicated attrs)."""
    catalog = Catalog()
    for i in range(n):
        catalog.add_relation(
            RelationSchema(f"R{i}", [f"R{i}_a", f"R{i}_b"], server=f"S{i}")
        )
    for i in range(n - 1):
        catalog.add_join_edge(f"R{i}_b", f"R{i + 1}_a")
    return catalog


def chain_spec(n=4) -> QuerySpec:
    return QuerySpec(
        [f"R{i}" for i in range(n)],
        [JoinPath.of((f"R{i}_b", f"R{i + 1}_a")) for i in range(n - 1)],
        frozenset({f"R{i}_a" for i in range(n)}),
    )


class TestEnumerateJoinOrders:
    def test_original_order_first(self, catalog, spec):
        orders = list(enumerate_join_orders(catalog, spec))
        assert orders[0].relations == spec.relations

    def test_only_connected_orders(self):
        catalog = chain_catalog(3)
        spec = chain_spec(3)
        orders = [o.relations for o in enumerate_join_orders(catalog, spec)]
        # A chain R0-R1-R2 has exactly 4 connected left-deep orders.
        assert ("R0", "R1", "R2") in orders
        assert ("R2", "R1", "R0") in orders
        assert ("R1", "R0", "R2") in orders
        assert ("R1", "R2", "R0") in orders
        assert len(orders) == 4

    def test_all_orders_build_valid_plans(self, catalog, spec):
        for order in enumerate_join_orders(catalog, spec):
            plan = build_plan(catalog, order)
            assert plan.root.schema >= spec.select

    def test_conditions_preserved(self):
        catalog = chain_catalog(3)
        spec = chain_spec(3)
        for order in enumerate_join_orders(catalog, spec):
            total = order.full_join_path()
            assert total == spec.full_join_path()
