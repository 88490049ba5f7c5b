"""Centralized (ship-everything) baseline.

The classical pre-semi-join strategy: pick one site, ship every base
relation of the query to it, evaluate locally.  It maximizes exposure —
the site sees every relation in full — so under a realistic policy it is
usually *unsafe*; and even when safe it moves the most bytes.  The
benchmarks use it as the upper anchor for both safety and cost.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.algebra.tree import QueryTreePlan
from repro.core.flows import Flow
from repro.core.profile import RelationProfile
from repro.engine.coster import CostModel, TableStats
from repro.engine.data import Table
from repro.engine.operators import evaluate_plan
from repro.engine.transfers import Transfer, TransferLog
from repro.exceptions import AuditViolationError, PlanError


class CentralizedBaseline:
    """Evaluate a plan by shipping every base relation to one site.

    Args:
        policy: policy used for the safety analysis (and enforcement
            during :meth:`execute`, unless disabled).
    """

    def __init__(self, policy) -> None:
        self._policy = policy

    def flows(self, plan: QueryTreePlan, site: str) -> List[Flow]:
        """The base-relation shipments the strategy entails."""
        result = []
        for leaf in plan.leaves():
            if leaf.server is None:
                raise PlanError(f"relation {leaf.relation.name!r} has no server")
            result.append(
                Flow(
                    leaf.server,
                    site,
                    RelationProfile.of_base_relation(leaf.relation),
                    f"{leaf.relation.name} -> warehouse",
                )
            )
        return result

    def unauthorized(self, plan: QueryTreePlan, site: str) -> List[Flow]:
        """The shipments the policy forbids."""
        return [
            flow
            for flow in self.flows(plan, site)
            if flow.is_release and not self._policy.can_view(flow.profile, site)
        ]

    def is_safe(self, plan: QueryTreePlan, site: str) -> bool:
        """Whether shipping everything to ``site`` is authorized."""
        return not self.unauthorized(plan, site)

    def safe_sites(self, plan: QueryTreePlan, sites) -> List[str]:
        """The subset of ``sites`` at which the strategy is safe."""
        return [site for site in sites if self.is_safe(plan, site)]

    def estimated_cost(
        self,
        plan: QueryTreePlan,
        site: str,
        base_stats: Mapping[str, TableStats],
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """Predicted bytes (or network cost) of the shipments."""
        model = cost_model or CostModel()
        total = 0.0
        for leaf in plan.leaves():
            stats = base_stats[leaf.relation.name]
            total += model.transfer_cost(
                leaf.server, site, stats.bytes_for(leaf.relation.attribute_set)
            )
        return total

    def execute(
        self,
        plan: QueryTreePlan,
        site: str,
        tables: Mapping[str, Table],
        enforce: bool = True,
    ) -> Tuple[Table, TransferLog]:
        """Run the strategy over concrete tables.

        Returns the query result (computed at ``site``) and the transfer
        log of the shipments.

        Raises:
            AuditViolationError: when ``enforce`` is on and a shipment is
                unauthorized.
        """
        log = TransferLog()
        for leaf in plan.leaves():
            name = leaf.relation.name
            profile = RelationProfile.of_base_relation(leaf.relation)
            if leaf.server == site:
                continue
            if enforce and not self._policy.can_view(profile, site):
                raise AuditViolationError(
                    f"centralized strategy would leak {name} to {site}",
                    sender=leaf.server or "",
                    receiver=site,
                )
            table = tables[name]
            log.record(
                Transfer(
                    sender=leaf.server or "",
                    receiver=site,
                    profile=profile,
                    row_count=len(table),
                    byte_size=table.byte_size(),
                    description=f"{name} -> warehouse",
                    node_id=leaf.node_id,
                )
            )
        return evaluate_plan(plan, tables), log
