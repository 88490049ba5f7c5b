"""Join-order enumeration — the first step of two-step optimization.

The paper's closing note (Section 5) observes that distributed query
optimization commonly proceeds in two steps — pick a good plan, then
assign operations to servers — and that the safe-assignment algorithm
slots into the second step.  :func:`enumerate_join_orders` supplies the
first: every connected left-deep order of the same query (exact,
exponential; fine for paper-scale queries), so that callers can look
for an order that is feasible and cheap.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, List, Optional, Sequence

from repro.algebra.builder import QuerySpec
from repro.algebra.joins import JoinPath
from repro.algebra.schema import Catalog


def _condition_graph(spec: QuerySpec) -> set:
    """The set of every join condition of the spec, from all its join
    steps (order-independent connectivity)."""
    conditions = set()
    for path in spec.join_paths:
        conditions.update(path.conditions)
    return conditions


def _steps_for_order(
    order: Sequence[str], conditions: set, attrs: dict
) -> Optional[List[JoinPath]]:
    """Join steps for a given relation order, or ``None`` if disconnected.

    Step ``i`` collects every condition bridging the accumulated schema of
    ``order[:i+1]`` with ``order[i+1]``; an empty step means the order
    would require a cartesian product, which the paper's query form (and
    :class:`~repro.algebra.tree.JoinNode`) excludes.
    """
    accumulated = set(attrs[order[0]])
    steps: List[JoinPath] = []
    for name in order[1:]:
        right = attrs[name]
        bridge = [
            c
            for c in conditions
            if (c.first in accumulated and c.second in right)
            or (c.second in accumulated and c.first in right)
        ]
        if not bridge:
            return None
        steps.append(JoinPath(bridge))
        accumulated.update(right)
    return steps


def enumerate_join_orders(catalog: Catalog, spec: QuerySpec) -> Iterator[QuerySpec]:
    """Yield every connected left-deep reordering of ``spec``.

    The original join conditions are redistributed to the steps of each
    order; orders requiring a cartesian product are skipped.  The original
    order is yielded first, then the others in lexicographic order, so
    callers preferring the user's order on ties get it for free.
    """
    conditions = _condition_graph(spec)
    attrs = {name: catalog.relation(name).attribute_set for name in spec.relations}
    orders = [spec.relations] + [
        p for p in sorted(permutations(spec.relations)) if p != spec.relations
    ]
    for order in orders:
        steps = _steps_for_order(order, conditions, attrs)
        if steps is not None:
            yield spec.reordered(order, steps)
