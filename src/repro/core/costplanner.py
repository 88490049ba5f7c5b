"""Cost-aware safe planning — the two-step optimization of Section 5.

The paper closes by noting that distributed query optimization usually
runs in two steps — pick a good plan, then assign operations to servers
— and that its algorithm "nicely fits" the second step.  This module
supplies the missing first step and the glue: search the connected
left-deep join orders of a query, find a safe assignment for each
(either the Figure 6 heuristic or the exhaustive optimum), price every
candidate with the static communication estimator, and return the
cheapest safe strategy overall.

This subsumes the plain planner in capability (never worse, given the
same search budget) at the price of enumeration; use it when queries
are small and policies are tight, and the plain
:class:`~repro.core.planner.SafePlanner` otherwise.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.schema import Catalog
from repro.algebra.tree import QueryTreePlan
from repro.core.assignment import Assignment
from repro.core.planner import SafePlanner
from repro.engine.coster import CostModel, estimate_assignment_cost
from repro.exceptions import InfeasiblePlanError, PlanError

#: Assignment-search strategies.
HEURISTIC = "heuristic"
EXHAUSTIVE = "exhaustive"


class CostAwarePlan:
    """Outcome of a cost-aware planning run.

    Attributes:
        plan: the chosen query tree plan (possibly a reordering of the
            user's FROM clause).
        assignment: the chosen safe executor assignment.
        estimated_cost: its predicted communication cost.
        orders_considered: join orders enumerated.
        orders_feasible: join orders admitting at least one safe
            assignment.
    """

    __slots__ = (
        "plan",
        "assignment",
        "estimated_cost",
        "orders_considered",
        "orders_feasible",
    )

    def __init__(
        self,
        plan: QueryTreePlan,
        assignment: Assignment,
        estimated_cost: float,
        orders_considered: int,
        orders_feasible: int,
    ) -> None:
        self.plan = plan
        self.assignment = assignment
        self.estimated_cost = estimated_cost
        self.orders_considered = orders_considered
        self.orders_feasible = orders_feasible

    def __repr__(self) -> str:
        return (
            f"CostAwarePlan(cost={self.estimated_cost:.0f}, "
            f"{self.orders_feasible}/{self.orders_considered} orders feasible)"
        )


class CostAwareSafePlanner:
    """Join-order search x safe-assignment search x cost estimation.

    Args:
        policy: the authorization policy (closed, ideally).
        base_stats: per-relation :class:`~repro.engine.coster.TableStats`
            driving the estimator.
        cost_model: optional :class:`~repro.engine.coster.CostModel`
            (e.g. wrapping a :class:`~repro.distributed.network.NetworkModel`).
        assignment_search: :data:`HEURISTIC` (Figure 6 per order, fast)
            or :data:`EXHAUSTIVE` (optimal per order, ``O(4^joins)``).
        search_join_orders: enumerate alternative connected orders; when
            false only the user's order is considered.
        health: optional
            :class:`~repro.distributed.health.HealthTracker` (duck-typed
            — anything with ``penalty_factor`` and
            ``quarantined_servers``).  Quarantined servers are excluded
            from the Figure 6 search when a safe assignment survives the
            exclusion (advisory: falls back to the full server set
            otherwise), and every candidate's estimated cost is
            surcharged on unhealthy routes, steering ties and near-ties
            toward healthy servers.
        obs: optional :class:`~repro.obs.trace.TraceContext`, forwarded
            to every :class:`~repro.core.planner.SafePlanner` the search
            constructs.
        batch_canview: forwarded to every
            :class:`~repro.core.planner.SafePlanner` the search
            constructs (see its docstring) — join-order search issues
            the same view checks across many orders, so the batched
            kernel pays off most here.  Default ``None`` keeps the
            planner's auto behaviour (batched untraced, scalar traced).
        stats_store: optional :class:`~repro.profiling.StatsStore` of
            harvested runtime statistics (anything with ``table_stats``
            and ``selectivity``): on every ``plan()`` call the store's
            observations overlay ``base_stats`` and observed join
            selectivities replace the System-R guesses, for both the
            heuristic pricing and the exhaustive per-order search — so a
            store warmed by harvested profiles immediately re-ranks
            candidate strategies.  Pricing itself is ``cost_model``'s.
    """

    def __init__(
        self,
        policy,
        base_stats: Mapping[str, "TableStats"],
        cost_model=None,
        assignment_search: str = HEURISTIC,
        search_join_orders: bool = True,
        health=None,
        obs=None,
        batch_canview=None,
        stats_store=None,
    ) -> None:
        if assignment_search not in (HEURISTIC, EXHAUSTIVE):
            raise PlanError(
                f"unknown assignment search strategy: {assignment_search!r}"
            )
        self._policy = policy
        self._base_stats = base_stats
        self._health = health
        self._stats_store = stats_store
        if health is not None:
            cost_model = CostModel(network=cost_model, health=health)
        self._cost_model = cost_model
        self._assignment_search = assignment_search
        self._search_join_orders = search_join_orders
        self._obs = obs
        self._batch_canview = batch_canview
        self._heuristic = SafePlanner(policy, obs=obs, batch_canview=batch_canview)

    def plan(self, catalog: Catalog, spec: QuerySpec) -> CostAwarePlan:
        """Find the cheapest safe strategy for ``spec``.

        Raises:
            InfeasiblePlanError: when no considered order admits a safe
                assignment.
        """
        # Activate the catalog's interned kernel up front: every join
        # order enumerated below shares the same universe, leaf bitsets
        # and (via the reused planner) one memoized CanView cache, so
        # view checks repeated across orders are answered once.
        catalog.universe
        # Resolve the effective statistics once per planning call: a
        # stats store warmed between calls immediately re-ranks orders.
        stats = self._base_stats
        selectivities = None
        if self._stats_store is not None:
            stats = self._stats_store.table_stats(stats)
            selectivities = self._stats_store
        if self._search_join_orders:
            candidates = enumerate_join_orders(catalog, spec)
        else:
            candidates = iter([spec])
        best: Optional[Tuple[QueryTreePlan, Assignment, float]] = None
        considered = 0
        feasible = 0
        for candidate in candidates:
            considered += 1
            try:
                tree = build_plan(catalog, candidate)
            except PlanError:
                continue
            found = self._best_assignment_for(tree, stats, selectivities)
            if found is None:
                continue
            feasible += 1
            assignment, cost = found
            if cost is None:
                cost = estimate_assignment_cost(
                    assignment, stats, self._cost_model, selectivities
                )
            if best is None or cost < best[2]:
                best = (tree, assignment, cost)
        if best is None:
            raise InfeasiblePlanError(
                f"no safe assignment exists for any of the {considered} "
                "considered join orders"
            )
        return CostAwarePlan(best[0], best[1], best[2], considered, feasible)

    def _best_assignment_for(
        self, tree: QueryTreePlan, stats=None, selectivities=None
    ) -> Optional[Tuple[Assignment, Optional[float]]]:
        if stats is None:
            stats = self._base_stats
        if self._assignment_search == HEURISTIC:
            quarantined = (
                tuple(sorted(self._health.quarantined_servers()))
                if self._health is not None
                else ()
            )
            if quarantined:
                # Advisory exclusion: prefer a plan that routes around
                # quarantined servers, fall back to the full server set.
                try:
                    restricted = SafePlanner(
                        self._policy,
                        excluded_servers=quarantined,
                        obs=self._obs,
                        batch_canview=self._batch_canview,
                    )
                    assignment, _ = restricted.plan(tree)
                    return assignment, None
                except InfeasiblePlanError:
                    pass
            try:
                assignment, _ = self._heuristic.plan(tree)
            except InfeasiblePlanError:
                return None
            return assignment, None
        from repro.baselines.exhaustive import optimal_safe_assignment

        best = optimal_safe_assignment(
            self._policy, tree, stats, self._cost_model, selectivities
        )
        if best is None:
            return None
        return best
