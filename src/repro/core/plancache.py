"""Policy-epoch plan cache: reuse safe assignments across a workload.

Planning a query is the expensive part of serving it — SQL parsing,
plan minimization, the Figure 6 candidate traversal and the independent
safety verification all run per call — yet heavy workloads repeat the
same query texts over and over, and the answer only depends on the
bound query and the policy in force.  This module memoizes the whole
planning product, ``(tree, assignment, planner trace)``, keyed on

* a **canonical fingerprint** of the bound query
  (:meth:`~repro.algebra.builder.QuerySpec.fingerprint`, which reuses
  :meth:`~repro.algebra.joins.JoinPath.canonical_key` so condition and
  conjunct ordering never split the cache), and
* the policy **epoch** (:attr:`~repro.core.authorization.Policy.epoch`)
  the cached assignment was last proven safe at.

Epoch semantics make the cache *policy-churn tolerant* instead of
merely invalidate-on-write:

* **unchanged epoch** — the policy is exactly the one the plan was
  verified under; the hit is a pure dictionary probe.
* **bumped epoch** — the policy mutated since validation.  The entry is
  **revalidated**: every release flow the cached assignment entails is
  re-checked against the *current* policy through the existing
  covering-authorization probe (:mod:`repro.engine.audit`).  Grants
  only ever widen the policy, so revalidation after an ``add``
  succeeds and merely restamps the entry; after a revocation the probe
  fails exactly when the plan relied on the withdrawn rule, and the
  entry is evicted so the caller replans.  A stale plan can therefore
  never ship a transfer the current policy forbids — the same property
  the runtime audit enforces, applied one layer earlier.

**Shape tier.**  A relation profile is ``[R^pi, R^join, R^sigma]`` —
attribute sets and a join path, never a constant (Definition 3.2) — and
``CanView`` and the Figure 6 planner read nothing else, so a query's
assignment, flows and feasibility are functions of its literal-erased
*shape* (:meth:`~repro.algebra.builder.QuerySpec.shape`) and the epoch.
The same LRU therefore also holds, under the shape key, the plan
**decision** of the first query of each shape: a later query with other
constants misses its fingerprint, finds the decision
(:meth:`PlanCache.lookup_shape`) and *binds* it to its own tree — the
decision's under its own constants
(:meth:`~repro.algebra.tree.QueryTreePlan.with_selections`,
:meth:`~repro.core.assignment.Assignment.rebound`) — instead of planning.
Decisions obey the epoch rule above, through the same code.  An
infeasibility **verdict** is a decision too, but a grant can unlock the
query: a verdict (the planner's message, never the exception object)
answers only at the epoch it was computed at and is *dropped*, not
revalidated, once the epoch moves.  Either tier skips *planning*, never
*checking*: every request's assignment is still verified against the
live policy and every shipment audited.  The cache is a plain LRU
(``maxsize`` entries of any kind, least recently used evicted first).

**Interleaved access.**  The cache is used from asyncio services where
many in-flight queries share it (:mod:`repro.service`).  Lookups and
stores are synchronous and never await, so coroutines cannot observe a
half-applied LRU mutation — but the revalidation path runs arbitrary
audit/trace callbacks which may re-enter the cache (and future callers
may probe from threads).  :meth:`PlanCache.lookup` therefore treats the
revalidation window as a critical section per fingerprint: a re-entrant
lookup of a fingerprint mid-revalidation reports a miss instead of
recursing, and every mutation re-checks that the entry it is about to
touch is still the one it resolved (a re-entrant ``store``/``clear``
can swap or drop it).  Concurrent fills of the *same* fingerprint cannot
happen on one event loop: planning never awaits, so the first request
fills the entry before any other request can look.  The service's
flights (:class:`repro.service.service.QueryService`) share whole
audited runs, not cache fills.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.algebra.tree import (
    PROJECT,
    JoinNode,
    LeafNode,
    PlanNode,
    QueryTreePlan,
    UnaryNode,
)
from repro.core.authorization import Policy
from repro.exceptions import PlanError

#: The always-present keys of a plan-cache stats snapshot; downstream
#: JSON consumers (``summary_dict``, ``BENCH_*.json``) rely on every key
#: existing regardless of which events a run actually saw.
PLAN_CACHE_KEYS = (
    "hits",
    "misses",
    "shape_hits",
    "negative_hits",
    "revalidations",
    "revalidation_failures",
    "evictions",
    "entries",
)


class PlanCacheStats:
    """Counters of one cache's lifetime.

    Attributes:
        hits: exact-fingerprint lookups that returned a plan (pure hits
            plus successful revalidations).
        misses: exact-fingerprint lookups that returned no plan (absent
            fingerprints, failed revalidations, verdicts).
        shape_hits: of those misses, the ones bound from a shape decision.
        negative_hits: of those misses, the ones answered by a live verdict.
        revalidations: epoch-bumped entries re-audited against the
            current policy (successful or not).
        revalidation_failures: re-audits that found a now-forbidden
            flow; the entry was evicted and the query replanned.
        evictions: entries dropped by LRU pressure (revalidation
            failures are counted separately).
    """

    __slots__ = PLAN_CACHE_KEYS[:-1]  # "entries" is the cache's, not a counter

    def __init__(self) -> None:
        for key in self.__slots__:
            setattr(self, key, 0)

    def __repr__(self) -> str:
        counters = ", ".join(f"{key}={getattr(self, key)}" for key in self.__slots__)
        return f"PlanCacheStats({counters})"


class PlanCacheEntry:
    """One cached planning outcome: a product, or an infeasibility verdict.

    Attributes:
        tree: the minimized :class:`~repro.algebra.tree.QueryTreePlan`.
        assignment: the safe executor assignment (treated as immutable
            after planning — the execution layers only read it).
        planner_trace: the Figure 7 trace of the original planning run.
        validated_epoch: the policy epoch the assignment was last
            proven safe at (a verdict: the epoch it was computed at).
        infeasible: ``None`` for a product; for a verdict (no product)
            the planner's ``(message, node_id)`` to raise a *fresh* error
            from — one instance re-raised grows its ``__traceback__``.
    """

    __slots__ = ("tree", "assignment", "planner_trace", "validated_epoch", "infeasible")

    def __init__(self, tree, assignment, planner_trace, validated_epoch: int) -> None:
        self.tree = tree
        self.assignment = assignment
        self.planner_trace = planner_trace
        self.validated_epoch = validated_epoch
        self.infeasible: Optional[Tuple[str, int]] = None


def fingerprint_tree(tree: QueryTreePlan) -> Tuple[object, ...]:
    """A canonical, hashable identity of an explicitly shaped plan.

    Used for queries that bypass :class:`~repro.algebra.builder.QuerySpec`
    (parenthesized/bushy SQL FROM clauses bind straight to a tree): the
    fingerprint is the recursive structure of the tree — operator kinds,
    relation names, sorted projection sets, sorted predicate atoms and
    :meth:`~repro.algebra.joins.JoinPath.canonical_key` join paths.
    """

    def walk(node: PlanNode) -> Tuple[object, ...]:
        if isinstance(node, LeafNode):
            return ("leaf", node.relation.name)
        if isinstance(node, UnaryNode):
            if node.operator == PROJECT:
                parameter: Tuple[object, ...] = tuple(sorted(node.parameter))
            else:
                parameter = tuple(sorted(str(c) for c in node.parameter.comparisons))
            return (node.operator, parameter, walk(node.left))
        if isinstance(node, JoinNode):
            return (
                "join",
                node.path.canonical_key(),
                walk(node.left),
                walk(node.right),
            )
        raise PlanError(f"unknown node kind: {type(node).__name__}")  # pragma: no cover

    return ("tree", walk(tree.root))


class PlanCache:
    """An LRU of epoch-stamped planning outcomes: products, decisions, verdicts.

    Args:
        maxsize: entry cap; the least recently used entry is evicted
            when a store overflows it.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[object, PlanCacheEntry]" = OrderedDict()
        # Fingerprints currently inside the revalidation critical
        # section; a re-entrant lookup of one of these reports a miss
        # instead of recursing into a second re-audit (see the module
        # docstring's interleaved-access notes).
        self._revalidating: set = set()
        self.stats = PlanCacheStats()

    @property
    def maxsize(self) -> int:
        """The entry cap."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"PlanCache({len(self._entries)}/{self._maxsize} entries, {self.stats!r})"

    def lookup(
        self, fingerprint: object, policy: Policy, obs=None
    ) -> Optional[PlanCacheEntry]:
        """The cached entry for ``fingerprint``, revalidated if stale.

        Returns ``None`` on a miss (absent, or present but no longer
        safe under ``policy`` — the entry is then evicted).  Hits and
        successful revalidations refresh the entry's LRU position.  A
        verdict stored under the key (a constant-free spec's fingerprint
        is also its shape) is no plan: a miss here too.

        Args:
            fingerprint: a value from
                :meth:`~repro.algebra.builder.QuerySpec.fingerprint` or
                :func:`fingerprint_tree` (any hashable works).
            policy: the policy currently in force; its
                :attr:`~repro.core.authorization.Policy.epoch` decides
                between a pure hit and a revalidation.
            obs: optional :class:`~repro.obs.trace.TraceContext`;
                lookups feed ``repro_plan_cache_*`` counters and emit
                one ``plan_cache`` event per outcome.
        """
        entry, reported = self._resolve(fingerprint, policy, obs)
        plan = entry is not None and entry.infeasible is None
        if plan:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if not reported:
            self._observe(obs, "hit" if plan else "miss")
        return entry if plan else None

    def lookup_shape(
        self, shape: object, policy: Policy, obs=None
    ) -> Optional[PlanCacheEntry]:
        """After an exact-fingerprint miss: the decision to bind, or the
        live verdict (``entry.infeasible`` set), under a shape key
        (:meth:`~repro.algebra.builder.QuerySpec.shape` plus the order-search
        flag).  The epoch rule of :meth:`lookup`; a miss is silent — the
        exact tier already counted the request."""
        entry, _ = self._resolve(shape, policy, obs)
        if entry is None:
            return None
        if entry.infeasible is None:
            self.stats.shape_hits += 1
            self._observe(obs, "shape_hit")
        else:
            self.stats.negative_hits += 1
            self._observe(obs, "negative_hit")
        return entry

    def _resolve(self, key: object, policy: Policy, obs) -> Tuple[Optional[PlanCacheEntry], bool]:
        """The entry under ``key`` if it holds under ``policy`` (one path for
        every kind of entry), and whether a revalidation reported the outcome."""
        entry = self._entries.get(key)
        if entry is None or key in self._revalidating:
            # Mid-revalidation re-entry is answered as a miss: the outer
            # frame owns the entry's fate, and recursing into a second
            # re-audit of the same assignment could interleave its LRU
            # mutations with ours.
            return None, False
        epoch = policy.epoch
        revalidated = entry.validated_epoch != epoch
        if revalidated:
            if entry.infeasible is not None:
                # The policy moved and a grant may have unlocked the
                # query: a verdict is never revalidated, only dropped.
                del self._entries[key]
                return None, False
            self.stats.revalidations += 1
            self._revalidating.add(key)
            try:
                safe = self._still_safe(policy, entry.assignment, obs)
            finally:
                self._revalidating.discard(key)
            if not safe:
                # The current policy forbids a flow this plan ships —
                # the entry is unusable at any later epoch too (only a
                # fresh plan can route around the revocation).  The
                # audit probe may have re-entered the cache, so only
                # evict the entry we actually revalidated.
                if self._entries.get(key) is entry:
                    del self._entries[key]
                self.stats.revalidation_failures += 1
                self._observe(obs, "revalidation_failed")
                return None, True
            entry.validated_epoch = epoch
            self._observe(obs, "revalidated")
        if self._entries.get(key) is entry:
            self._entries.move_to_end(key)
        return entry, revalidated

    def store(
        self,
        fingerprint: object,
        policy: Policy,
        tree,
        assignment,
        planner_trace,
    ) -> PlanCacheEntry:
        """Cache one freshly planned (or shape-bound) product, validated
        at ``policy``'s current epoch (LRU-evicting on overflow)."""
        entry = PlanCacheEntry(tree, assignment, planner_trace, policy.epoch)
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    def store_infeasible(self, shape: object, policy: Policy, error) -> None:
        """Cache the verdict that no plan of ``shape`` is safe at
        ``policy``'s current epoch — ``error``'s message, not ``error``."""
        self.store(shape, policy, None, None, None).infeasible = (str(error), error.node_id)

    def clear(self) -> None:
        """Drop every entry (stats are kept — they are lifetime counters)."""
        self._entries.clear()

    def snapshot(self) -> dict:
        """JSON-safe stats snapshot with every :data:`PLAN_CACHE_KEYS`
        key present."""
        snapshot = {key: getattr(self.stats, key) for key in PlanCacheStats.__slots__}
        snapshot["entries"] = len(self._entries)
        return snapshot

    @staticmethod
    def _still_safe(policy: Policy, assignment, obs) -> bool:
        """Re-audit every release flow of a cached assignment.

        Runs the exact covering-authorization probe the runtime audit
        layer uses (:class:`~repro.engine.audit.AuditLog`), so "the
        cache revalidated the plan" and "the engine would have permitted
        every shipment" are the same judgement by construction.
        """
        # Deferred import: the audit layer sits above core in the module
        # layering, and only this cold revalidation path needs it.
        from repro.core.safety import enumerate_assignment_flows
        from repro.engine.audit import AuditLog

        audit = AuditLog(policy, enforce=False, trace=obs)
        for flow in enumerate_assignment_flows(assignment):
            if not flow.is_release:
                continue
            allowed, _ = audit.authorize(flow.sender, flow.receiver, flow.profile)
            if not allowed:
                return False
        return True

    @staticmethod
    def _observe(obs, outcome: str) -> None:
        if obs is None:
            return
        obs.count(f"repro_plan_cache_{outcome}_total")
        obs.event("plan_cache", "planner", outcome=outcome)
