"""Symbolic relational-algebra substrate.

This package provides the building blocks the paper's model (Section 2)
assumes: relation schemas distributed over servers, equi-join conditions
and join paths (Definition 2.1), selection predicates and the binary
query tree plans of the logical algebra, with projection push-down
minimization (Figure 2).
"""

from repro.algebra.attributes import AttributeSet, attribute_set, validate_attribute_name
from repro.algebra.joins import JoinCondition, JoinPath, intern_path
from repro.algebra.universe import AttrSet, AttributeUniverse
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.schema import Catalog, RelationSchema
from repro.algebra.tree import JoinNode, LeafNode, PlanNode, QueryTreePlan, UnaryNode
from repro.algebra.builder import QuerySpec, build_bushy_plan, build_plan
from repro.algebra.optimizer import enumerate_join_orders

__all__ = [
    "AttributeSet",
    "AttrSet",
    "AttributeUniverse",
    "attribute_set",
    "validate_attribute_name",
    "JoinCondition",
    "JoinPath",
    "intern_path",
    "Comparison",
    "Predicate",
    "Catalog",
    "RelationSchema",
    "PlanNode",
    "LeafNode",
    "UnaryNode",
    "JoinNode",
    "QueryTreePlan",
    "QuerySpec",
    "build_plan",
    "build_bushy_plan",
    "enumerate_join_orders",
]
