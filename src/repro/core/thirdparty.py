"""Third-party execution (the extension of footnote 3).

The paper notes that a join with no safe assignment among its operand
servers may still execute safely with the help of a *third party*,
"acting either as a proxy for one of the two operands or as a
coordinator for them", and omits the algorithm for space reasons.  This
module supplies both facets:

* :class:`ThirdPartyPlanner` — a :class:`~repro.core.planner.SafePlanner`
  that, whenever a join admits no ordinary candidate, tries each
  declared third-party server as a **coordinator**: both operands are
  shipped to it (requiring ``CanView`` of both operand profiles) and it
  computes the join, becoming the holder of the result and a candidate
  for the joins above.  Plans the base algorithm rejects can thus become
  feasible; plans it accepts are planned identically (the fallback never
  fires when ordinary candidates exist).

* :func:`proxy_options` — an analysis of the **proxy** facet: a third
  party standing in for one operand's server.  The proxied operand is
  shipped to the proxy, and the join then executes between the proxy and
  the other operand's server in any of the four Figure 5 modes with the
  proxy substituted.  The function enumerates the safe arrangements with
  their full flow lists; it is used by the third-party benchmarks and by
  callers wanting to rescue an infeasible join without re-planning.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.algebra.joins import JoinPath
from repro.algebra.tree import JoinNode, PlanNode
from repro.core.assignment import Assignment, Executor
from repro.core.authorization import Policy
from repro.core.candidates import FROM_LEAF, MODE_THIRD_PARTY, Candidate
from repro.core.flows import Flow, join_executions
from repro.core.planner import NodeDecision, PlannerTrace, SafePlanner
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError


class ThirdPartyPlanner(SafePlanner):
    """Safe planner with third-party coordinator fallback.

    Args:
        policy: the authorization policy.
        third_parties: servers (holding none of the involved relations is
            not required but is the typical case) that may be asked to
            coordinate joins.  Tried in the given order; order therefore
            determines which coordinator a rescued join gets.
        excluded_servers: servers barred from every executor role,
            including coordination (see
            :class:`~repro.core.planner.SafePlanner`).
        pinned: materialized subtree roots (see
            :class:`~repro.core.planner.SafePlanner`).
    """

    def __init__(
        self,
        policy: Policy,
        third_parties: Sequence[str],
        excluded_servers=(),
        pinned=None,
        obs=None,
    ) -> None:
        super().__init__(policy, excluded_servers=excluded_servers, pinned=pinned, obs=obs)
        self._third_parties = tuple(third_parties)

    @property
    def third_parties(self) -> Tuple[str, ...]:
        """The declared third-party servers, in trial order."""
        return self._third_parties

    def _visit_join(self, node, assignment, trace, decision) -> None:  # type: ignore[override]
        super()._visit_join(node, assignment, trace, decision)
        if not decision.candidates.is_empty():
            return
        left_profile = assignment.profile(node.left.node_id)
        right_profile = assignment.profile(node.right.node_id)
        for server in self._third_parties:
            if server in self.excluded_servers:
                continue
            if self.policy.can_view(left_profile, server) and self.policy.can_view(
                right_profile, server
            ):
                decision.candidates.add(
                    Candidate(server, FROM_LEAF, 1, MODE_THIRD_PARTY)
                )

    def _assign_ex(self, node, from_parent, assignment, trace) -> None:  # type: ignore[override]
        decision = trace.decision(node.node_id)
        if from_parent is not None:
            chosen = decision.candidates.search(from_parent)
        else:
            chosen = decision.candidates.get_first()
        if chosen is None or chosen.mode != MODE_THIRD_PARTY:
            super()._assign_ex(node, from_parent, assignment, trace)
            return
        if not isinstance(node, JoinNode):  # pragma: no cover - only joins get the mode
            raise PlanError("third-party candidates only apply to join nodes")
        trace.assign_order.append((node.node_id, from_parent))
        executor = Executor(chosen.server, None)
        decision.executor = executor
        assignment.set_executor(node.node_id, executor)
        assignment.set_coordinator(node.node_id, chosen.server)
        self._assign_ex(node.left, None, assignment, trace)
        self._assign_ex(node.right, None, assignment, trace)


class ProxyOption:
    """One safe proxy arrangement for a single join.

    Attributes:
        third_party: the proxy server.
        proxied_side: ``"left"`` or ``"right"`` — which operand is handed
            to the proxy.
        mode_tag: the Figure 5 mode of the proxy-substituted join.
        master: server computing the join (holds the result).
        flows: every flow of the arrangement, shipment to the proxy first.
    """

    __slots__ = ("third_party", "proxied_side", "mode_tag", "master", "flows")

    def __init__(
        self,
        third_party: str,
        proxied_side: str,
        mode_tag: str,
        master: str,
        flows: Tuple[Flow, ...],
    ) -> None:
        self.third_party = third_party
        self.proxied_side = proxied_side
        self.mode_tag = mode_tag
        self.master = master
        self.flows = flows

    def __repr__(self) -> str:
        return (
            f"ProxyOption({self.third_party} proxies {self.proxied_side}, "
            f"{self.mode_tag}, master={self.master})"
        )


def proxy_options(
    policy: Policy,
    left_profile: RelationProfile,
    right_profile: RelationProfile,
    left_server: str,
    right_server: str,
    conditions: JoinPath,
    third_parties: Sequence[str],
) -> List[ProxyOption]:
    """Enumerate the safe proxy arrangements for one join.

    For each third party ``T`` and each side, ``T`` must be authorized to
    view the proxied operand (the shipment to the proxy), and every flow
    of the proxy-substituted Figure 5 mode must be authorized for its
    receiver.  Arrangements where the proxy equals the proxied operand's
    server are skipped (that is no proxy at all).
    """
    options: List[ProxyOption] = []
    sides = (
        ("left", left_profile, left_server, right_profile, right_server),
        ("right", right_profile, right_server, left_profile, left_server),
    )
    for third_party in third_parties:
        for side, proxied, proxied_server, other, other_server in sides:
            if third_party in (proxied_server, other_server):
                continue
            if not policy.can_view(proxied, third_party):
                continue
            shipment = Flow(
                proxied_server, third_party, proxied, f"{side} operand -> proxy"
            )
            if side == "left":
                executions = join_executions(
                    proxied, other, third_party, other_server, conditions
                )
            else:
                executions = join_executions(
                    other, proxied, other_server, third_party, conditions
                )
            for execution in executions:
                safe = all(
                    policy.can_view(profile, receiver)
                    for receiver, profile in execution.required_views()
                )
                if not safe:
                    continue
                options.append(
                    ProxyOption(
                        third_party,
                        side,
                        execution.mode.tag,
                        execution.master,
                        (shipment,) + execution.flows,
                    )
                )
    return options
