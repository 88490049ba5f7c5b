"""Centralized plan evaluation — the correctness oracle.

The relational operators themselves are
:class:`~repro.engine.data.Table`'s columnar kernels (``project``,
``select``, ``equi_join``); they are the only operator implementation
in the engine, and the distributed executor calls the same ones.

:func:`evaluate_plan` evaluates a query tree plan against a set of base
tables *in one place*, ignoring servers, authorizations and
communication entirely.  The distributed executor must produce exactly
this result (a property the test suite checks under random workloads);
the oracle is also what a trusted warehouse would compute, making it the
natural baseline for the communication-cost benchmarks.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.tree import (
    PROJECT,
    JoinNode,
    LeafNode,
    PlanNode,
    QueryTreePlan,
    UnaryNode,
)
from repro.engine.data import Table
from repro.exceptions import ExecutionError


def evaluate_plan(plan: QueryTreePlan, tables: Mapping[str, Table]) -> Table:
    """Evaluate ``plan`` centrally over ``tables``.

    Args:
        plan: the query tree plan.
        tables: base tables keyed by relation name; every leaf relation
            must be present.

    Raises:
        ExecutionError: on a missing base table or an operator failure.
    """
    return _evaluate(plan.root, tables)


def _evaluate(node: PlanNode, tables: Mapping[str, Table]) -> Table:
    if isinstance(node, LeafNode):
        name = node.relation.name
        if name not in tables:
            raise ExecutionError(f"no instance provided for base relation {name!r}")
        table = tables[name]
        missing = set(node.relation.attributes) - set(table.attributes)
        if missing:
            raise ExecutionError(
                f"instance of {name!r} lacks columns {sorted(missing)}"
            )
        return table
    if isinstance(node, UnaryNode):
        child = _evaluate(node.left, tables)
        if node.operator == PROJECT:
            return child.project(node.projection_attributes)
        return child.select(node.predicate)
    if isinstance(node, JoinNode):
        left = _evaluate(node.left, tables)
        return left.equi_join(_evaluate(node.right, tables), node.path)
    raise ExecutionError(f"unknown node kind: {type(node).__name__}")
