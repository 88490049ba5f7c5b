"""Partition-parallel execution, certified or not at all.

:class:`ShardedExecutor` is the coordinator that decides *what* a query
under a partition scheme set executes; the execution itself is the one
unit loop of :class:`~repro.distributed.pipeline.QueryPipeline`.  Its
fallback ladder has two rungs:

1. **hypercube** — the checker certified co-partitioned schemes: one
   pipeline *unit per shard*.  Each shard gets its own catalog (sharded
   relations re-placed at their group member) and its own Figure 6 safe
   assignment planned under the shared chase-closed policy and checked
   by the standard independent verifier; the pipeline then runs each
   unit over the resident shard tables exactly as it runs a single-copy
   query — audit-before-ship, retry, failover, breakers, chaos points,
   profiling — and the shard results merge by union, which is exactly
   single-copy semantics for certified schemes.
2. **single_copy** — anything else (uncertified schemes, an infeasible
   shard plan): one unit over the system's own tables, planned
   through the plan cache.  Uncertified schemes
   therefore *never* execute partitioned — the trace carries a
   ``shard_fallback`` event and no ``shard`` span, the property the
   differential suite asserts.

The coordinator is **long-lived**: a system keeps one per scheme set,
shards stay resident with the loaded instances
(:meth:`DistributedSystem.shards_of
<repro.distributed.system.DistributedSystem.shards_of>`), and only the
per-request work — certify, verify, execute, audit, merge — runs per
request.

Observability: ``repro_shard_*`` counters (queries by mode, partitions,
rows, fallbacks by reason, resident-split hits and misses) and a
``shard_execute`` span wrapping one ``shard`` span per partition.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.schema import Catalog
from repro.algebra.tree import QueryTreePlan
from repro.core.assignment import Assignment
from repro.core.planner import SafePlanner
from repro.engine.data import Table
from repro.engine.executor import ExecutionResult
from repro.exceptions import InfeasiblePlanError, PartitionSchemeError
from repro.obs.hooks import NO_HOOKS, Hooks
from repro.sharding.checker import ParallelCorrectnessChecker, ShardCertificate
from repro.sharding.scheme import PartitionScheme

#: Execution modes reported by :class:`ShardedResult`.
EXEC_PARTITIONED = "partitioned"
EXEC_SINGLE_COPY = "single_copy"

#: What the pipeline executes, one at a time: ``(tree, assignment,
#: tables, shard span attributes or None)``.
Unit = Tuple[QueryTreePlan, Assignment, Mapping[str, Table], Optional[dict]]


class ShardPlan(NamedTuple):
    """The ladder's decision for one query — the plan product of a
    :class:`~repro.distributed.pipeline.QueryPipeline` with ``schemes``.

    Attributes:
        certificate: the checker's verdict (pins the policy epoch the
            decision was taken under).
        mode: ``partitioned`` or ``single_copy``.
        fallback_reason: why the ladder fell to single-copy ("" when it
            did not).
        units: the verified ``(tree, assignment)`` pairs the pipeline
            executes — one per shard when ``partitioned``, the one
            single-copy plan when ``single_copy``.
    """

    certificate: ShardCertificate
    mode: str
    fallback_reason: str
    units: Tuple[Tuple[QueryTreePlan, Assignment], ...]


class ShardedResult:
    """Outcome of one sharded (or fallen-back) execution.

    Attributes:
        mode: ``partitioned`` (hypercube, one pipeline unit per shard)
            or ``single_copy``.
        table: the merged query result (identical to single-copy
            execution — the differential suite's core claim).
        result_server: where the result materialized (the recipient
            when one was given).
        certificate: the checker's verdict.
        unit_results: the :class:`ExecutionResult` of every pipeline
            unit that ran — also readable by mode as
            :attr:`shard_results` / :attr:`single_result`.
        fallback_reason: why the ladder fell to single-copy ("" when it
            did not).
        makespan: simulated parallel completion time — the *slowest
            shard's* wall time for partitioned runs, total wall time
            otherwise.
        elapsed: total wall time spent executing (all shards summed).
        audit: merged audit view over every unit, duck-typed like
            :class:`~repro.engine.audit.AuditLog` for what readers of a
            delivered result use (``violations``, ``checked``,
            ``policy``) — so a :class:`ShardedResult` slots into callers
            that expect an :class:`ExecutionResult`: the service's
            outcome rendering and the invariant monitor's re-probe.
    """

    __slots__ = (
        "mode",
        "table",
        "result_server",
        "certificate",
        "unit_results",
        "fallback_reason",
        "makespan",
        "elapsed",
        "audit",
    )

    def __init__(
        self,
        plan: ShardPlan,
        table: Table,
        result_server: str,
        results: Sequence[ExecutionResult] = (),
        took: Sequence[float] = (),
    ) -> None:
        self.mode = plan.mode
        self.certificate = plan.certificate
        self.fallback_reason = plan.fallback_reason
        self.table = table
        self.result_server = result_server
        self.unit_results = tuple(results)
        self.makespan = max(took, default=0.0)
        self.elapsed = sum(took)
        self.audit = _MergedAudit(self.unit_results)

    @property
    def shard_results(self) -> Tuple[ExecutionResult, ...]:
        """Per-shard results (``partitioned`` mode only)."""
        return self.unit_results if self.mode == EXEC_PARTITIONED else ()

    @property
    def single_result(self) -> Optional[ExecutionResult]:
        """The ordinary execution result (``single_copy`` mode only)."""
        return self.unit_results[0] if self.mode == EXEC_SINGLE_COPY else None

    @property
    def shards(self) -> int:
        """Partitions executed (0 outside ``partitioned`` mode)."""
        return len(self.shard_results)

    def violations(self) -> int:
        """Total audit violations across every underlying run (0 on a
        healthy system — enforcement raises before recording)."""
        return len(self.audit.violations)

    def transfers(self) -> int:
        """Cross-server shipments across every underlying run."""
        return sum(len(r.transfers) for r in self.unit_results)

    def summary_dict(self) -> dict:
        """Stable flat summary; every key always present."""
        return {
            "mode": self.mode,
            "certified": self.certificate.certified,
            "fallback_reason": self.fallback_reason,
            "shards": self.shards,
            "rows": len(self.table),
            "transfers": self.transfers(),
            "bytes": sum(r.transfers.total_bytes() for r in self.unit_results),
            "violations": self.violations(),
            "result_server": self.result_server,
            "makespan": self.makespan,
            "elapsed": self.elapsed,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedResult({self.mode}, {len(self.table)} rows, "
            f"{self.shards} shards, makespan={self.makespan:.4f})"
        )


class _MergedAudit:
    """Read-only audit facade concatenating the unit runs' audit logs
    (one run is synchronous, so every unit was audited under the same
    policy object)."""

    __slots__ = ("violations", "checked", "policy", "epoch")

    def __init__(self, results: Sequence[ExecutionResult]) -> None:
        audits = [r.audit for r in results if r.audit is not None]
        self.violations = [v for audit in audits for v in audit.violations]
        self.checked = [t for audit in audits for t in audit.checked]
        self.policy = audits[0].policy if audits else None
        self.epoch = audits[0].epoch if audits else None


def shard_catalog(
    catalog: Catalog, schemes: Mapping[str, PartitionScheme], shard: int
) -> Catalog:
    """The catalog as shard ``shard`` sees it: sharded relations
    re-placed at their group member, everything else untouched.

    Schemas are copied (``placed_at``), never shared — catalogs intern
    attribute sets into their own universe, and mutating the source
    catalog's schemas would corrupt its bitset kernel.
    """
    shifted = Catalog()
    for schema in catalog.relations():
        scheme = schemes.get(schema.name)
        target = scheme.placement(shard) if scheme is not None else schema.server
        shifted.add_relation(schema.placed_at(target))
    for edge in catalog.join_edges():
        shifted.add_join_edge(edge.first, edge.second)
    return shifted


def scheme_set_key(schemes: Mapping[str, PartitionScheme]) -> Tuple[object, ...]:
    """A scheme set's identity by value: equal for two mappings whose
    schemes route and place identically, however many times they were
    built.  :class:`~repro.distributed.system.DistributedSystem` keys
    its long-lived coordinators on it.

    Raises:
        PartitionSchemeError: a value that is not a scheme, or a scheme
            keyed under a different relation's name.
    """
    for name, scheme in schemes.items():
        if not isinstance(scheme, PartitionScheme):
            raise PartitionSchemeError(
                f"scheme for {name!r} is not a PartitionScheme: {scheme!r}"
            )
        if scheme.relation != name:
            raise PartitionSchemeError(
                f"scheme keyed under {name!r} partitions {scheme.relation!r}"
            )
    return tuple(
        (name, scheme.routing_key(), scheme.group)
        for name, scheme in sorted(schemes.items())
    )


class ShardedExecutor:
    """The long-lived coordinator of one system under one scheme set.

    :class:`~repro.distributed.system.DistributedSystem` keeps one per
    distinct scheme set, so what depends only on (catalog, schemes) —
    the per-shard catalogs — is built once, and per-shard plans live in
    the system's one plan cache, under its epoch rule.  What can change
    between two requests is read at call time: ``system.policy`` and
    the loaded instances (through the system's resident shards).  Each
    request is still certified; verifying every unit's assignment,
    running the units and auditing every transfer is the pipeline's job.

    Args:
        system: the :class:`~repro.distributed.system.DistributedSystem`
            holding catalog, chase-closed policy and loaded instances.
        schemes: the candidate distribution policy, ``relation name ->
            PartitionScheme``.  Validated eagerly: a scheme keyed under
            a different relation's name, or naming a relation the
            catalog does not hold, is a configuration error.
    """

    def __init__(self, system, schemes: Mapping[str, PartitionScheme]) -> None:
        self._key = scheme_set_key(schemes)  # validates
        for name in schemes:
            if name not in system.catalog:
                raise PartitionSchemeError(
                    f"partition scheme names unknown relation {name!r}"
                )
        self._system = system
        self._schemes = dict(schemes)
        self._catalogs: Dict[int, Catalog] = {}

    def certify(self, query, trace=None) -> ShardCertificate:
        """The checker's verdict for ``query`` under these schemes and
        the system's *current* policy."""
        system = self._system
        checker = ParallelCorrectnessChecker(
            system.policy, system.catalog, assume_closed=True, trace=trace
        )
        return checker.certify(system.parse(query), self._schemes)

    def execute(self, query, recipient: Optional[str] = None, **options) -> ShardedResult:
        """Run ``query`` partition-parallel when certified, single-copy
        otherwise: ``system.pipeline(query, schemes=<this coordinator>,
        **options).run()`` — see
        :class:`~repro.distributed.pipeline.QueryPipeline` for the
        options and the module docstring for the ladder."""
        return self._system.pipeline(
            query, recipient=recipient, schemes=self, **options
        ).run()

    # ------------------------------------------------------------------
    # The fallback ladder: what the pipeline will execute
    # ------------------------------------------------------------------

    def plan(
        self,
        query,
        search_join_orders: bool = False,
        hooks: Hooks = NO_HOOKS,
    ) -> ShardPlan:
        """Certify ``query`` and decide its rung of the ladder.

        Raises:
            InfeasiblePlanError: the ladder fell to single-copy and no
                safe single-copy assignment exists either.
        """
        spec = self._system.parse(query)
        certificate = self.certify(spec, hooks.trace)
        reason = certificate.reason or "query touches no sharded relation"
        if certificate.certified and certificate.sharded:
            shards = self._schemes[certificate.sharded[0]].shards
            try:
                units = tuple(
                    self._shard_plan(spec, shard, hooks.trace) for shard in range(shards)
                )
                return ShardPlan(certificate, EXEC_PARTITIONED, "", units)
            except InfeasiblePlanError as error:
                reason = f"infeasible shard plan: {error}"
        # The bottom rung: the ordinary single-copy plan (through the
        # plan cache), tagged with why the ladder fell.
        hooks.shard_fallback(reason)
        tree, assignment, _ = self._system.plan(
            query, search_join_orders=search_join_orders, trace=hooks.trace
        )
        return ShardPlan(certificate, EXEC_SINGLE_COPY, reason, ((tree, assignment),))

    def _sharded(self, certificate: ShardCertificate) -> Dict[str, PartitionScheme]:
        return {name: self._schemes[name] for name in certificate.sharded}

    def _shard_plan(
        self, spec: QuerySpec, shard: int, trace
    ) -> Tuple[QueryTreePlan, Assignment]:
        """One shard's ``(tree, assignment)`` under the current policy.

        Each shard sees its own catalog (shifted placements) but plans
        under the *same* chase-closed policy, and its plan lives in the
        system's one plan cache under ``(fingerprint, scheme set,
        shard)``: a policy mutation re-audits it there and evicts it
        when a flow it ships lost its rule, exactly as for single-copy
        plans.  Neither a planned nor an adopted plan is verified here —
        the pipeline's unit body verifies every unit, with the
        recipient, before anything ships (Definition 4.3).
        """
        system = self._system
        policy, cache = system.policy, system.plan_cache
        key = (spec.fingerprint(), self._key, shard)
        if cache is not None:
            entry = cache.lookup(key, policy, obs=trace)
            if entry is not None:
                return entry.tree, entry.assignment
        catalog = self._catalogs.get(shard)
        if catalog is None:
            catalog = self._catalogs[shard] = shard_catalog(
                system.catalog, self._schemes, shard
            )
        tree = build_plan(catalog, spec)
        assignment, planner_trace = SafePlanner(policy, obs=trace).plan(tree)
        if cache is not None:
            cache.store(key, policy, tree, assignment, planner_trace)
        return tree, assignment

    # ------------------------------------------------------------------
    # Residency and packaging
    # ------------------------------------------------------------------

    def units(self, plan: ShardPlan, trace=None) -> List[Unit]:
        """``plan``'s units as the pipeline runs them.  One
        ``system.tables()`` snapshot per request; a shard's unit sees
        the sharded relations swapped for their resident splits."""
        tables = self._system.tables()
        if plan.mode != EXEC_PARTITIONED:
            return [(tree, assignment, tables, None) for tree, assignment in plan.units]
        schemes = self._sharded(plan.certificate)
        splits = {
            name: self._system.shards_of(scheme, trace=trace)
            for name, scheme in schemes.items()
        }
        first = schemes[plan.certificate.sharded[0]]
        return [
            (
                tree,
                assignment,
                {**tables, **{name: split[shard] for name, split in splits.items()}},
                {"shard": shard, "server": first.placement(shard)},
            )
            for shard, (tree, assignment) in enumerate(plan.units)
        ]

    def package(
        self,
        plan: ShardPlan,
        table: Table,
        results: Sequence[ExecutionResult],
        took: Sequence[float],
        recipient: Optional[str] = None,
        hooks: Hooks = NO_HOOKS,
    ) -> ShardedResult:
        """One finished run as a :class:`ShardedResult`: ``table`` is
        the merged result, ``took`` each unit's wall time."""
        hooks.shard_commit(plan, table, results)
        if recipient is None:
            recipient = results[0].result_server if results else "coordinator"
        return ShardedResult(plan, table, recipient, results, took)
