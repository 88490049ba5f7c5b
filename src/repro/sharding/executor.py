"""Partition-parallel execution, certified or not at all.

:class:`ShardedExecutor` is the coordinator that turns a certified
partition scheme set into a partition-parallel run of an existing
:class:`~repro.distributed.system.DistributedSystem` query.  Its
fallback ladder (each rung provably no wider than the one below):

1. **hypercube** — the checker certified co-partitioned schemes: one
   full distributed execution *per shard*.  Each shard gets its own
   catalog (sharded relations re-placed at their group member), its own
   Figure 6 safe assignment planned under the shared chase-closed
   policy, the standard independent verifier, and its own
   :class:`~repro.engine.executor.DistributedExecutor` — so the
   audit-before-ship invariant, retry, breaker and batch-streaming
   machinery all apply *per shard*.  Shard results merge by union,
   which is exactly single-copy semantics for certified schemes.
2. **multiround** — compatible but unaligned schemes: the engine-level
   repartitioning fallback of :func:`~repro.sharding.shuffle.execute_multiround`,
   every shuffle audited with the group-lifted CanView first.
3. **single_copy** — anything else (uncertified schemes, an infeasible
   shard plan, an unauthorized shuffle): the ordinary
   :meth:`~repro.distributed.system.DistributedSystem.execute` path.
   Uncertified schemes therefore *never* execute partitioned — the
   trace carries a ``shard_fallback`` event and no ``shard`` span, the
   property the differential suite asserts.

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

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.schema import Catalog
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.core.safety import verify_assignment
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor, ExecutionResult
from repro.engine.operators import DEFAULT_BATCH_SIZE
from repro.exceptions import (
    InfeasiblePlanError,
    PartitionSchemeError,
    ShardingError,
)
from repro.sharding.checker import (
    MODE_HYPERCUBE,
    MODE_MULTIROUND,
    ParallelCorrectnessChecker,
    ShardCertificate,
)
from repro.sharding.scheme import PartitionScheme, merge_shards
from repro.sharding.shuffle import ShufflePlan, execute_multiround, plan_shuffle

#: Execution modes reported by :class:`ShardedResult`.
EXEC_PARTITIONED = "partitioned"
EXEC_MULTIROUND = "multiround"
EXEC_SINGLE_COPY = "single_copy"


class ShardedResult:
    """Outcome of one sharded (or fallen-back) execution.

    Attributes:
        mode: ``partitioned`` (hypercube, per-shard distributed runs),
            ``multiround`` (engine-level repartition fallback) or
            ``single_copy``.
        table: the merged query result (identical to single-copy
            execution — the differential suite's core claim).
        result_server: where the result materialized (the recipient
            when one was given).
        certificate: the checker's verdict.
        shuffle: the shuffle plan (``None`` on single-copy fallback).
        shard_results: per-shard :class:`ExecutionResult` records
            (``partitioned`` mode only).
        single_result: the ordinary execution result (``single_copy``
            mode only).
        fallback_reason: why the ladder fell to single-copy ("" when it
            did not).
        makespan: simulated parallel completion time — the *slowest
            shard's* wall time for partitioned runs, total wall time
            otherwise.
        elapsed: total wall time spent executing (all shards summed).
        shuffle_stats: row/byte shuffle accounting (``multiround`` only).
    """

    __slots__ = (
        "mode",
        "table",
        "result_server",
        "certificate",
        "shuffle",
        "shard_results",
        "single_result",
        "fallback_reason",
        "makespan",
        "elapsed",
        "shuffle_stats",
    )

    def __init__(
        self,
        mode: str,
        table: Table,
        result_server: str,
        certificate: ShardCertificate,
        shuffle: Optional[ShufflePlan] = None,
        shard_results: Sequence[ExecutionResult] = (),
        single_result: Optional[ExecutionResult] = None,
        fallback_reason: str = "",
        makespan: float = 0.0,
        elapsed: float = 0.0,
        shuffle_stats=None,
    ) -> None:
        self.mode = mode
        self.table = table
        self.result_server = result_server
        self.certificate = certificate
        self.shuffle = shuffle
        self.shard_results = tuple(shard_results)
        self.single_result = single_result
        self.fallback_reason = fallback_reason
        self.makespan = makespan
        self.elapsed = elapsed
        self.shuffle_stats = shuffle_stats

    @property
    def shards(self) -> int:
        """Partitions executed (0 outside ``partitioned`` mode)."""
        return len(self.shard_results)

    @property
    def audit(self):
        """Merged audit view over every underlying run.

        Duck-typed like :class:`~repro.core.safety.AuditLog` (exposes
        ``violations``), so a :class:`ShardedResult` slots into
        callers — the service layer's outcome rendering, notably — that
        expect an :class:`~repro.engine.executor.ExecutionResult`.
        """
        if self.single_result is not None:
            return self.single_result.audit
        return _MergedAudit(self)

    def violations(self) -> int:
        """Total audit violations across every underlying run (0 on a
        healthy system — enforcement raises before recording)."""
        total = 0
        for result in self.shard_results:
            if result.audit is not None:
                total += len(result.audit.violations)
        if self.single_result is not None and self.single_result.audit is not None:
            total += len(self.single_result.audit.violations)
        return total

    def transfers(self) -> int:
        """Cross-server shipments across every underlying run."""
        total = sum(len(r.transfers) for r in self.shard_results)
        if self.single_result is not None:
            total += len(self.single_result.transfers)
        if self.shuffle_stats is not None:
            total += self.shuffle_stats.repartitions + self.shuffle_stats.broadcasts
        return total

    def summary_dict(self) -> dict:
        """Stable flat summary; every key always present."""
        shipped = sum(r.transfers.total_bytes() for r in self.shard_results)
        if self.single_result is not None:
            shipped += self.single_result.transfers.total_bytes()
        if self.shuffle_stats is not None:
            shipped += self.shuffle_stats.shipped_bytes
        return {
            "mode": self.mode,
            "certified": self.certificate.certified,
            "fallback_reason": self.fallback_reason,
            "shards": self.shards,
            "rounds": self.shuffle.rounds if self.shuffle is not None else 0,
            "rows": len(self.table),
            "transfers": self.transfers(),
            "bytes": shipped,
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
    """Read-only audit facade concatenating per-shard violation lists."""

    __slots__ = ("violations",)

    def __init__(self, result: "ShardedResult") -> None:
        merged = []
        for shard_result in result.shard_results:
            if shard_result.audit is not None:
                merged.extend(shard_result.audit.violations)
        self.violations = merged


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
    the per-shard catalogs — is built once, and per-shard plans are
    memoized per policy epoch.  What can change between two requests is
    read at call time: ``system.policy`` (revocation swaps the object),
    the loaded instances (through the system's resident shards) and
    every per-request option of :meth:`execute`.  Each request is still
    certified, each adopted shard plan re-verified and each shard run
    audited, exactly as a coordinator built for that one request would.

    Args:
        system: the :class:`~repro.distributed.system.DistributedSystem`
            holding catalog, chase-closed policy and loaded instances.
        schemes: the candidate distribution policy, ``relation name ->
            PartitionScheme``.  Validated eagerly: a scheme keyed under
            a different relation's name is a configuration error.
    """

    #: Shard plans kept per epoch; the oldest is evicted beyond this.
    PLAN_MEMO_LIMIT = 1024

    def __init__(self, system, schemes: Mapping[str, PartitionScheme]) -> None:
        scheme_set_key(schemes)  # validates
        self._system = system
        self._schemes = dict(schemes)
        self._catalogs: Dict[int, Catalog] = {}
        # (fingerprint, shard) -> (tree, assignment), all planned under
        # ``_memo_epoch``; dropped whole when the policy epoch moves.
        self._plan_memo: Dict[Tuple[object, int], Tuple[object, object]] = {}
        self._memo_epoch: Optional[int] = None

    @property
    def schemes(self) -> Dict[str, PartitionScheme]:
        """The distribution policy under coordination."""
        return dict(self._schemes)

    def certify(self, query, trace=None) -> ShardCertificate:
        """The checker's verdict for ``query`` under these schemes and
        the system's *current* policy."""
        system = self._system
        checker = ParallelCorrectnessChecker(
            system.policy, system.catalog, assume_closed=True, trace=trace
        )
        return checker.certify(system.parse(query), self._schemes)

    # ------------------------------------------------------------------
    # The fallback ladder
    # ------------------------------------------------------------------

    def execute(
        self,
        query,
        recipient: Optional[str] = None,
        trace=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        allow_multiround: bool = True,
        faults=None,
        retry=None,
        health=None,
    ) -> ShardedResult:
        """Run ``query`` partition-parallel when certified, single-copy
        otherwise (see the module docstring for the ladder).

        Args:
            query: SQL text or bound spec.
            recipient: optional final consumer; audited per shard.
            trace: optional :class:`~repro.obs.trace.TraceContext`.
            batch_size: block size for the per-shard executors.
            allow_multiround: whether rung 2 of the ladder is available
                (off forces unaligned-but-compatible schemes straight to
                single-copy).
            faults: optional fault injector shared by every shard's
                executor — each shard's shipments then retry under
                ``retry`` independently.
            retry: retry policy for fault-aware shard runs.
            health: optional health tracker shared across shards (one
                breaker state per link, fed by every shard).
        """
        spec = self._system.parse(query)
        certificate = self.certify(spec, trace)
        if not certificate.certified or not certificate.sharded:
            reason = certificate.reason or "query touches no sharded relation"
            return self._fallback(query, recipient, certificate, reason, trace)
        if certificate.mode == MODE_HYPERCUBE:
            try:
                return self._execute_hypercube(
                    spec, recipient, certificate, trace,
                    dict(batch_size=batch_size, faults=faults, retry=retry, health=health),
                )
            except InfeasiblePlanError as error:
                return self._fallback(
                    query, recipient, certificate,
                    f"infeasible shard plan: {error}", trace,
                )
        if certificate.mode == MODE_MULTIROUND and allow_multiround:
            try:
                return self._execute_multiround(
                    spec, recipient, certificate, trace, batch_size
                )
            except ShardingError as error:
                return self._fallback(query, recipient, certificate, str(error), trace)
        return self._fallback(
            query, recipient, certificate, f"mode {certificate.mode!r} disabled", trace
        )

    def _fallback(
        self, query, recipient, certificate: ShardCertificate, reason: str, trace
    ) -> ShardedResult:
        if trace is not None:
            trace.event("shard_fallback", "sharding", reason=reason)
            trace.count("repro_shard_fallback_total")
            trace.count("repro_shard_queries_total", mode=EXEC_SINGLE_COPY)
        start = time.perf_counter()
        result = self._system.execute(query, recipient=recipient, trace=trace)
        elapsed = time.perf_counter() - start
        return ShardedResult(
            EXEC_SINGLE_COPY,
            result.table,
            result.result_server,
            certificate,
            single_result=result,
            fallback_reason=reason,
            makespan=elapsed,
            elapsed=elapsed,
        )

    def _execute_hypercube(
        self,
        spec: QuerySpec,
        recipient: Optional[str],
        certificate: ShardCertificate,
        trace,
        engine_options: dict,
    ) -> ShardedResult:
        system = self._system
        schemes = {name: self._schemes[name] for name in certificate.sharded}
        first = schemes[certificate.sharded[0]]
        shards = first.shards
        shuffle = plan_shuffle(spec, schemes, certificate)
        splits = {
            name: system.shards_of(scheme, trace=trace)
            for name, scheme in schemes.items()
        }
        # One working copy: each shard overwrites the sharded relations'
        # entries, and every executor snapshots the mapping it is given.
        shard_tables = system.tables()

        span = None
        if trace is not None:
            span = trace.begin(
                "shard_execute", "sharding", shards=shards, mode=EXEC_PARTITIONED
            )
        try:
            plans = [self._shard_plan(spec, shard, trace) for shard in range(shards)]
            results: List[ExecutionResult] = []
            makespan = 0.0
            elapsed = 0.0
            for shard, (tree, assignment) in enumerate(plans):
                for name in splits:
                    shard_tables[name] = splits[name][shard]
                shard_span = None
                if trace is not None:
                    shard_span = trace.begin(
                        "shard", "sharding", shard=shard, server=first.placement(shard)
                    )
                start = time.perf_counter()
                try:
                    executor = DistributedExecutor(
                        assignment,
                        shard_tables,
                        policy=system.policy,
                        enforce=True,
                        trace=trace,
                        **engine_options,
                    )
                    result = executor.run(recipient=recipient)
                finally:
                    took = time.perf_counter() - start
                    if shard_span is not None:
                        trace.end(shard_span)
                makespan = max(makespan, took)
                elapsed += took
                if shard_span is not None:
                    shard_span.attrs["rows"] = len(result.table)
                results.append(result)
            merged = merge_shards(result.table for result in results)
            if merged is None:  # pragma: no cover - shards >= 2 always
                raise ShardingError("no shard produced a result")
            result_server = recipient if recipient is not None else results[0].result_server
            if trace is not None:
                trace.count("repro_shard_queries_total", mode=EXEC_PARTITIONED)
                trace.count("repro_shard_partitions_total", shards)
                trace.count("repro_shard_rows_total", len(merged))
                trace.event(
                    "shard_parallel_commit",
                    "sharding",
                    shards=shards,
                    rows=len(merged),
                    mode=EXEC_PARTITIONED,
                )
        finally:
            if span is not None:
                trace.end(span)
        return ShardedResult(
            EXEC_PARTITIONED,
            merged,
            result_server,
            certificate,
            shuffle=shuffle,
            shard_results=results,
            makespan=makespan,
            elapsed=elapsed,
        )

    def _shard_plan(self, spec: QuerySpec, shard: int, trace) -> Tuple[object, object]:
        """One shard's verified ``(tree, assignment)`` under the current
        policy.

        Each shard sees its own catalog (shifted placements) but plans
        under the *same* chase-closed policy.  Every plan handed out —
        freshly planned or adopted from the memo — passes the
        independent verifier against the policy in force *now*, so
        neither shard placement nor residency can relax Definition 4.3.
        """
        policy = self._system.policy
        epoch = getattr(policy, "epoch", 0)
        memo = self._plan_memo
        if epoch != self._memo_epoch:
            memo.clear()
            self._memo_epoch = epoch
        key = (spec.fingerprint(), shard)
        product = memo.get(key)
        if product is not None:
            verify_assignment(policy, product[1])
            return product
        catalog = self._catalogs.get(shard)
        if catalog is None:
            catalog = self._catalogs[shard] = shard_catalog(
                self._system.catalog, self._schemes, shard
            )
        tree = build_plan(catalog, spec)
        assignment, _ = SafePlanner(policy, obs=trace).plan(tree)
        verify_assignment(policy, assignment)
        if len(memo) >= self.PLAN_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[key] = (tree, assignment)
        return tree, assignment

    def _execute_multiround(
        self,
        spec: QuerySpec,
        recipient: Optional[str],
        certificate: ShardCertificate,
        trace,
        batch_size: int,
    ) -> ShardedResult:
        system = self._system
        schemes = {name: self._schemes[name] for name in certificate.sharded}
        shuffle = plan_shuffle(spec, schemes, certificate)
        if recipient is not None:
            # The final delivery is a shipment like any other: audit it
            # against the result's profile before running anything.
            profile = RelationProfile.of_base_relation(
                system.catalog.relation(spec.relations[0])
            )
            for step, incoming in zip(spec.join_paths, spec.relations[1:]):
                profile = profile.join(
                    RelationProfile.of_base_relation(system.catalog.relation(incoming)),
                    step,
                )
            profile = profile.select(spec.where.attributes).project(spec.select)
            if not system.policy.can_view(profile, recipient):
                raise ShardingError(
                    f"recipient {recipient!r} is not authorized for the result view"
                )
        span = None
        if trace is not None:
            span = trace.begin("shard_execute", "sharding", mode=EXEC_MULTIROUND)
        start = time.perf_counter()
        try:
            table, stats = execute_multiround(
                system.tables(),
                spec,
                schemes,
                system.policy,
                system.catalog,
                trace=trace,
                batch_size=batch_size,
            )
        finally:
            if span is not None:
                trace.end(span)
        elapsed = time.perf_counter() - start
        if trace is not None:
            trace.count("repro_shard_queries_total", mode=EXEC_MULTIROUND)
            trace.count("repro_shard_rows_total", len(table))
        result_server = recipient if recipient is not None else "coordinator"
        return ShardedResult(
            EXEC_MULTIROUND,
            table,
            result_server,
            certificate,
            shuffle=shuffle,
            makespan=elapsed,
            elapsed=elapsed,
            shuffle_stats=stats,
        )
