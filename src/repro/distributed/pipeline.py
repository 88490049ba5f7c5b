"""The per-query execution pipeline: the only place a query is executed.

One :class:`QueryPipeline` owns the whole lifecycle of a single query —
plan (through the system's plan cache), verify, execute, and on
fault-aware runs the retry / failover / checkpoint machinery.  What it
executes is a list of *units* ``(tree, assignment, tables)``: a
single-copy query is one unit over ``system.tables()``, a query
certified under a partition scheme set is one unit per shard over the
resident shard tables, and the unit results merge by union.  Every
cross-cutting feature — verification, chaos points, profiling, retry,
failover, breakers, deadlines, checkpoints — is written once, in the
unit body (:meth:`QueryPipeline._run_unit`), so it holds for every
combination of the others.

* **Reuse.**  The asyncio service layer (:mod:`repro.service`) runs
  thousands of concurrent queries; it builds one pipeline per flight
  leader, and identical in-flight requests share that one run.
* **Staging.**  Planning and execution are separately callable, so a
  caller can plan early, or attach a plan product computed elsewhere
  (:meth:`QueryPipeline.use_plan`), and execute later — re-verifying
  against the *current* policy in between, which is what makes
  mid-stream policy churn safe (:meth:`QueryPipeline.run` always
  re-verifies before anything ships).

The pipeline holds no mutable system state: policy, planner, plan cache
and tables are read from the owning system at call time, so a policy
mutation between :meth:`plan` and :meth:`run` is *seen* (the run
re-verifies and, when the plan no longer holds, replans through the
cache's epoch probe rather than shipping a stale transfer).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.tree import LeafNode, QueryTreePlan
from repro.core.assignment import Assignment
from repro.core.safety import verify_assignment
from repro.distributed.faults import FaultInjector
from repro.distributed.health import HealthTracker, ObserveOnlyHealth
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.data import Table
from repro.engine.deadline import DeadlineBudget
from repro.engine.executor import DistributedExecutor, ExecutionResult
from repro.engine.resilience import RetryPolicy
from repro.exceptions import (
    ChaosInterrupt,
    CheckpointError,
    DeadlineExceededError,
    DegradedExecutionError,
    InfeasiblePlanError,
    PlanError,
    ResilienceConfigError,
    ShardingError,
    TransferFailedError,
    UnsafeAssignmentError,
)
from repro.obs.hooks import hooks_for
from repro.sharding.executor import (
    EXEC_MULTIROUND,
    EXEC_SINGLE_COPY,
    ShardPlan,
    Unit,
)
from repro.sharding.scheme import merge_shards


class QueryPipeline:
    """Plan → verify → execute for one query against one system — and
    the one place the options of ``DistributedSystem.execute`` /
    ``execute_sharded`` and ``ShardedExecutor.execute`` are declared.

    Args:
        system: the owning
            :class:`~repro.distributed.system.DistributedSystem`.
        query: SQL text or bound :class:`~repro.algebra.builder.QuerySpec`.
        recipient: optional final consumer of the result; the closing
            delivery is audited like every other transfer (per shard
            when the run is partitioned).
        search_join_orders: when the given join order is infeasible, try
            the other connected left-deep orders before giving up.
        verify: re-check each assignment with the independent verifier
            before running (defense in depth; on by default).
        faults: optional fault injector; when given, every shipment is
            retried under ``retry`` and exhausted failures trigger
            failover — re-planning restricted to surviving servers,
            reusing completed subtrees whose results survived.  Every
            re-planned assignment passes the same verifier and audit as
            the original; when no safe alternative exists the query
            *degrades* (raises) rather than run unsafely.
        retry: retry policy for fault-aware runs (default
            :class:`~repro.engine.resilience.RetryPolicy`).
        max_failovers: re-planning rounds (per unit) before giving up.
        deadline: optional simulated-time budget (a number of
            logical-time units, or a pre-built
            :class:`~repro.engine.deadline.DeadlineBudget`).  Attempt
            durations, backoff waits and failover rounds are charged
            against it; exhaustion raises
            :class:`~repro.exceptions.DeadlineExceededError` with the
            run's checkpoint journal attached for resume.  Requires
            ``faults`` (budgets live in the injector's clock).
        health: optional
            :class:`~repro.distributed.health.HealthTracker`.  Every
            shipment outcome feeds its per-link/per-server circuit
            breakers; quarantined servers are routed around at planning
            time and open links fail fast.  Quarantine is *advisory*:
            when avoiding a quarantined server admits no safe
            assignment, planning falls back to ignoring it — health
            never degrades a query that has a safe plan, and never
            relaxes the policy.  Requires ``faults``.
        checkpoint: journal every completed, audited subtree so a
            killed run can resume; the journal rides on the result
            (``result.checkpoint``) and on deadline/degraded errors.
            Implied by ``deadline`` and ``resume_from``.  Requires
            ``faults``.
        resume_from: a
            :class:`~repro.engine.checkpoint.CheckpointJournal` from an
            earlier killed run of the *same* query.  The journal is
            re-audited against the current policy first — a revoked
            rule makes resume refuse with
            :class:`~repro.exceptions.CheckpointError` — then surviving
            subtrees are pinned and their results reused instead of
            re-executed.  A journal checkpoints *one* unit: a run that
            now has several refuses it the same way.  Requires
            ``faults``.
        trace: optional :class:`~repro.obs.trace.TraceContext`
            collecting spans (planning, joins, transfers, failover
            rounds, shards) and metrics for this run (default: the
            system's).  With ``faults`` the trace clock is bound to the
            injector's logical clock (unless the caller pinned an
            explicit clock), making exported timelines deterministic.
        chaos: optional :class:`~repro.chaos.ChaosSchedule` fired at
            the ``pre`` / ``post`` point of every unit.
        profiler: optional :class:`~repro.profiling.QueryProfiler`;
            every unit then opens a profile (estimates from exact
            statistics of the unit's tables unless the profiler carries
            its own ``base_stats``), records the executed operators and
            transfers, and stamps the finished
            :class:`~repro.profiling.QueryProfile` onto its
            ``result.profile`` — emitting ``repro_profile_*`` metrics, a
            ``profile`` span and ``plan_misestimate`` events when a
            trace is also installed.
        schemes: optional distribution policy, ``relation name ->``
            :class:`~repro.sharding.PartitionScheme` (or the
            :class:`~repro.sharding.ShardedExecutor` already
            coordinating one).  The run is then gated by the
            parallel-correctness checker: certified co-partitioned
            schemes execute one unit per shard, merely hash-compatible
            ones the audited multi-round fallback, and anything the
            checker cannot prove equivalent to single-copy execution
            one single-copy unit — :meth:`run` returns a
            :class:`~repro.sharding.ShardedResult` either way.
        allow_multiround: permit the multi-round mode (disable to force
            hypercube-or-single-copy).  Only read with ``schemes``.

    Raises:
        ResilienceConfigError: resilience options given without a fault
            injector (budgets and breakers live in the injector's
            logical clock).
    """

    def __init__(
        self,
        system,
        query,
        recipient: Optional[str] = None,
        search_join_orders: bool = False,
        verify: bool = True,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        max_failovers: int = 3,
        deadline: Optional[Union[float, DeadlineBudget]] = None,
        health: Optional[HealthTracker] = None,
        checkpoint: bool = False,
        resume_from: Optional[CheckpointJournal] = None,
        trace=None,
        chaos=None,
        profiler=None,
        schemes=None,
        allow_multiround: bool = True,
    ) -> None:
        if faults is None and (
            deadline is not None
            or health is not None
            or checkpoint
            or resume_from is not None
        ):
            raise ResilienceConfigError(
                "deadline, health, checkpoint and resume_from require a fault "
                "injector: budgets and breakers are accounted in the "
                "injector's logical clock"
            )
        if deadline is not None and not isinstance(deadline, DeadlineBudget):
            deadline = DeadlineBudget(deadline)
        self._system = system
        self._query = query
        self._recipient = recipient
        self._search_join_orders = search_join_orders
        self._verify = verify
        self._faults = faults
        self._retry = retry if retry is not None else RetryPolicy()
        self._max_failovers = max_failovers
        self._deadline = deadline
        self._health = health
        self._checkpoint = checkpoint
        self._resume_from = resume_from
        self._trace = trace if trace is not None else system._trace
        # The run's one listener: tracer, profiler, both or neither.
        self._hooks = hooks_for(self._trace, profiler)
        self._chaos = chaos
        self._coordinator = (
            system._shard_coordinator(schemes) if schemes is not None else None
        )
        self._allow_multiround = allow_multiround
        self._product: Optional[tuple] = None
        # Policy epoch the product was planned under (None: adopted
        # from another pipeline, so unknown).
        self._planned_epoch: Optional[int] = None
        # What `_current_plan` last verified, and at which policy epoch:
        # the unit body does not verify the same thing again.
        self._verified: Tuple[Optional[Assignment], int] = (None, -1)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self) -> tuple:
        """The query's plan product, computed on first call and memoized
        on the pipeline afterwards: ``(tree, assignment, planner
        trace)`` through the system's plan cache, or — with ``schemes``
        — the coordinator's :class:`~repro.sharding.executor.ShardPlan`
        (certificate, ladder rung, one verified plan per unit), so a
        query feasible only when sharded never needs a single-copy plan.

        Raises:
            InfeasiblePlanError: when no safe assignment exists.
        """
        if self._product is None:
            self._planned_epoch = self._system.policy.epoch
            if self._coordinator is None:
                self._product = self._system.plan(
                    self._query,
                    search_join_orders=self._search_join_orders,
                    trace=self._trace,
                )
            else:
                self._product = self._coordinator.plan(
                    self._query,
                    search_join_orders=self._search_join_orders,
                    allow_multiround=self._allow_multiround,
                    hooks=self._hooks,
                )
        return self._product

    def use_plan(self, *product) -> None:
        """Attach a plan product computed by another pipeline over the
        same query and options: ``use_plan(*other.plan())``.

        :meth:`run` still re-verifies the product against the *current*
        policy before anything ships, so adopting one can never relax
        safety — at worst a policy mutation since the other pipeline
        planned forces this one to replan.

        Raises:
            PlanError: when this pipeline already planned.
        """
        if self._product is not None:
            raise PlanError("pipeline already holds a plan product")
        self._product = product if self._coordinator is None else ShardPlan(*product)
        self._planned_epoch = None

    def _current_plan(self) -> tuple:
        """The attached product, revalidated against the current policy.

        A product adopted from another pipeline, or planned here under
        an earlier policy epoch, may predate a policy mutation.  For a
        single-copy product the independent verifier decides; a
        :class:`~repro.sharding.executor.ShardPlan` carries a
        certificate pinned to its policy epoch, so any mutation since
        re-certifies.  On failure the pipeline replans — the plan
        cache's epoch probe has by then evicted the stale entry —
        instead of shipping a revoked transfer.
        """
        product = self.plan()
        if self._planned_epoch != self._system.policy.epoch and not self._still_safe(
            product
        ):
            self._product = None
            product = self.plan()
        return product

    def _still_safe(self, product: tuple) -> bool:
        policy = self._system.policy
        if self._coordinator is not None:
            return product.certificate.policy_epoch == policy.epoch
        try:
            verify_assignment(policy, product[1], recipient=self._recipient)
        except UnsafeAssignmentError:
            return False
        self._verified = (product[1], policy.epoch)
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self):
        """Execute end-to-end, audited: the plan's units — one over
        ``system.tables()``, or one per shard — each through
        :meth:`_run_unit`, merged by union.

        Returns:
            the :class:`~repro.engine.executor.ExecutionResult`, or with
            ``schemes`` a :class:`~repro.sharding.ShardedResult`.

        Raises:
            InfeasiblePlanError: when no safe assignment exists.
            UnsafeAssignmentError: if verification fails (planner bug).
            AuditViolationError: if a runtime transfer escapes the policy
                (engine bug — verification should have caught it).
            DegradedExecutionError: fault-aware runs only — retries and
                failover are exhausted, or no safe assignment survives
                the crashed servers.
            DeadlineExceededError: the budget ran out; carries the
                checkpoint journal for resume.
            CheckpointError: ``resume_from`` failed re-audit (plan shape
                mismatch, revoked authorization, or a multi-unit run).
        """
        system = self._system
        hooks = self._hooks
        if self._faults is not None:
            # The injector's deterministic clock timestamps the whole
            # run (spans and profiles alike) — unless the caller pinned
            # an explicit clock already.
            hooks.logical_clock(self._faults, self._deadline, self._health)
        plan = self._current_plan()
        coordinator = self._coordinator
        if coordinator is None:
            tree, assignment, _ = plan
            results, _ = self._run_units([(tree, assignment, system.tables(), None)])
            self._stamp(results)
            return results[0]
        sharded = plan.mode != EXEC_SINGLE_COPY
        if sharded:
            hooks.shards_begin(plan)
        try:
            if plan.mode == EXEC_MULTIROUND:
                # An engine-level call, not an assignment, so not a
                # unit: it keeps its own audited shuffle, inside the
                # same chaos points.
                try:
                    self._fire_chaos("pre", None)
                    result = coordinator.run_multiround(
                        self._query, plan, self._recipient, hooks
                    )
                    self._fire_chaos("post", None)
                    return result
                except ShardingError as error:
                    # An unauthorized shuffle moved nothing: single-copy.
                    plan = coordinator.fallback(
                        self._query, plan.certificate, str(error),
                        self._search_join_orders, hooks,
                    )
            results, took = self._run_units(coordinator.units(plan, self._trace))
            self._stamp(results)
            table = merge_shards(result.table for result in results)
            return coordinator.package(
                plan, table, results, took, self._recipient, hooks
            )
        finally:
            if sharded:
                hooks.shards_end()

    def _run_units(
        self, units: Sequence[Unit]
    ) -> Tuple[List[ExecutionResult], List[float]]:
        """Run every unit in order; returns the results and each unit's
        wall time.

        Checkpoints are per unit, so only a one-unit run parks or
        resumes one: a journal handed to a multi-unit run is refused,
        and an interrupted multi-unit run restarts from scratch (its
        errors carry no checkpoint).
        """
        if self._resume_from is not None and len(units) != 1:
            raise CheckpointError(
                f"checkpoint journal covers one unit but the plan now has "
                f"{len(units)}; refusing to resume"
            )
        hooks = self._hooks
        results: List[ExecutionResult] = []
        took: List[float] = []
        for tree, assignment, tables, shard in units:
            hooks.shard_begin(shard)
            start = time.perf_counter()
            result = None
            try:
                result = self._run_unit(tree, assignment, tables)
            except (ChaosInterrupt, DeadlineExceededError, DegradedExecutionError) as error:
                if len(units) > 1:
                    error.checkpoint = None
                raise
            finally:
                took.append(time.perf_counter() - start)
                hooks.shard_end(result)
            results.append(result)
        return results, took

    def _run_unit(
        self, tree: QueryTreePlan, assignment: Assignment, tables: Mapping[str, Table]
    ) -> ExecutionResult:
        """The unit body — where every cross-cutting feature lives,
        once: checkpoint re-audit and health-aware refinement, verify,
        chaos ``pre``, profile, plain or resilient execution (retry /
        failover / breakers / deadline), chaos ``post``."""
        system = self._system
        hooks = self._hooks
        faults = self._faults
        journal: Optional[CheckpointJournal] = None
        reuse: Dict[int, Table] = {}
        resume_from = self._resume_from
        if resume_from is not None:
            resume_from.bind_trace(hooks.trace)
            # Re-audit before anything ships: a revoked authorization
            # refuses the journal outright (CheckpointError).
            resume_from.verify(system.policy, tree)
            journal = resume_from
        elif self._checkpoint or self._deadline is not None:
            journal = CheckpointJournal.for_plan(tree)
            journal.bind_trace(hooks.trace)
        if self._health is not None or resume_from is not None:
            assignment = self._initial_assignment(
                tree, assignment, faults, self._health, resume_from
            )
            if resume_from is not None:
                materialized = set(assignment.materialized_nodes())
                reuse = {
                    entry.node_id: entry.table
                    for entry in resume_from
                    if entry.node_id in materialized
                }
        verified, at_epoch = self._verified
        if self._verify and not (
            assignment is verified and at_epoch == system.policy.epoch
        ):
            verify_assignment(system.policy, assignment, recipient=self._recipient)
        self._fire_chaos("pre", journal)
        hooks.unit_begin(self._query, assignment, tables)
        finished = None
        try:
            if faults is None:
                result = DistributedExecutor(
                    assignment, tables, policy=system.policy, enforce=True, hooks=hooks
                ).run(recipient=self._recipient)
            else:
                result = self._execute_resilient(
                    tree, assignment, tables, journal=journal, reuse=reuse
                )
            # The "post" stage models the crash-consistency window: the
            # run completed but its completion was never recorded, so a
            # recovery must resume from the journal without
            # double-shipping subtrees.
            self._fire_chaos("post", journal)
            finished = result
        finally:
            hooks.unit_end(finished)
        return result

    def _fire_chaos(self, stage: str, journal: Optional[CheckpointJournal]) -> None:
        if self._chaos is None:
            return
        try:
            self._chaos.fire("execute", stage=stage)
        except ChaosInterrupt as interrupt:
            interrupt.checkpoint = journal
            raise

    def _stamp(self, results: List[ExecutionResult]) -> None:
        """One plan-cache snapshot per request, on every unit result."""
        cache = self._system.plan_cache
        snapshot = cache.snapshot() if cache is not None else None
        for result in results:
            result.plan_cache = snapshot

    # ------------------------------------------------------------------
    # Fault-aware machinery
    # ------------------------------------------------------------------

    def _initial_assignment(
        self,
        tree: QueryTreePlan,
        assignment: Assignment,
        faults: FaultInjector,
        health: Optional[HealthTracker],
        journal: Optional[CheckpointJournal],
    ) -> Assignment:
        """Health- and checkpoint-aware refinement of the default plan.

        Prefers assignments that route around quarantined (and already
        crashed) servers and that pin checkpointed subtrees for reuse,
        falling back toward the default assignment when the preferences
        over-constrain the search.  Purely advisory: the weakest rung is
        the default plan itself, so health state never makes a feasible
        query infeasible.
        """
        avoid = set(faults.down_servers())
        if health is not None:
            avoid |= set(health.quarantined_servers())
        pins = journal.pinned(excluded=avoid) if journal is not None else {}
        attempts = []
        if avoid and pins:
            attempts.append((avoid, pins))
        if pins:
            attempts.append((set(), pins))
        if avoid:
            attempts.append((avoid, {}))
        try:
            return self._first_feasible(tree, attempts)[0]
        except InfeasiblePlanError:
            return assignment

    def _first_feasible(
        self, tree: QueryTreePlan, rungs: Sequence[Tuple[set, Mapping[int, str]]]
    ) -> Tuple[Assignment, Mapping[int, str]]:
        """The re-plan ladder: the first rung ``(excluded servers, pinned
        subtrees)``, most preferred first, that admits a safe assignment,
        as ``(assignment, pins)``.

        Raises:
            InfeasiblePlanError: when no rung does (the last rung's error).
        """
        error = InfeasiblePlanError("no re-plan rung to try")
        for excluded, pinned in rungs:
            try:
                planner = self._system._make_planner(
                    excluded_servers=tuple(sorted(excluded)),
                    pinned=pinned,
                    obs=self._trace,
                )
                return planner.plan(tree)[0], pinned
            except InfeasiblePlanError as failure:
                error = failure
        raise error

    @staticmethod
    def _forced_through_quarantine(
        assignment: Assignment, health: HealthTracker
    ) -> bool:
        """Whether the assignment routes over quarantined resources.

        True when a quarantined server executes part of the plan, or a
        quarantined directed link connects two involved servers — i.e.
        the breakers would refuse shipments this plan needs.
        """
        used = set(assignment.servers_used())
        if used & set(health.quarantined_servers()):
            return True
        return any(
            sender in used and receiver in used
            for sender, receiver in health.quarantined_links()
        )

    def _execute_resilient(
        self,
        tree: QueryTreePlan,
        assignment: Assignment,
        tables: Mapping[str, Table],
        journal: Optional[CheckpointJournal] = None,
        reuse: Optional[Dict[int, Table]] = None,
    ) -> ExecutionResult:
        """Run with retry + authorization-safe failover.

        Each round executes the current assignment through the fault
        layer.  On a failed shipment the query is re-planned restricted
        to the surviving servers, pinning completed subtrees whose
        results sit at live servers (re-execution resumes from the last
        completed subtree); if pinning over-constrains the search the
        round falls back to a full restricted re-plan.  Safety is never
        relaxed: every re-planned assignment is independently verified
        and audited, and exhausting all rounds raises
        :class:`~repro.exceptions.DegradedExecutionError`.

        With ``health``, failover also avoids quarantined servers
        (advisory — see :meth:`_replan_restricted`); with ``deadline``,
        an exhausted budget propagates as
        :class:`~repro.exceptions.DeadlineExceededError` carrying
        ``journal`` for resume.
        """
        system = self._system
        hooks = self._hooks
        faults = self._faults
        health = self._health
        reuse = dict(reuse) if reuse else {}
        failovers = 0
        while True:
            gate = health
            if health is not None and self._forced_through_quarantine(
                assignment, health
            ):
                # No safe plan avoids the quarantined resources, so this
                # round runs them anyway; the breakers keep observing
                # but must not fail-fast the only viable route.
                gate = ObserveOnlyHealth(health)
            executor = DistributedExecutor(
                assignment,
                tables,
                policy=system.policy,
                enforce=True,
                faults=faults,
                retry=self._retry,
                reuse=reuse,
                health=gate,
                deadline=self._deadline,
                checkpoint=journal,
                hooks=hooks,
            )
            try:
                hooks.attempt_begin(failovers, reuse)
                result = None
                try:
                    result = executor.run(recipient=self._recipient)
                finally:
                    # Closed here: a failover below replans outside it.
                    hooks.attempt_end(result)
                result.failovers = failovers
                return result
            except DeadlineExceededError as error:
                # Hand the journal of completed, audited subtrees to the
                # caller: resume picks up from here with a fresh budget.
                error.checkpoint = journal
                raise
            except TransferFailedError as error:
                failovers += 1
                hooks.failover(failovers, error, faults)
                if failovers > self._max_failovers:
                    degraded = DegradedExecutionError(
                        f"execution failed after {self._max_failovers} failover "
                        f"rounds; last failure: {error}",
                        excluded_servers=faults.down_servers(),
                        failovers=failovers - 1,
                    )
                    degraded.checkpoint = journal
                    raise degraded from error
                excluded = set(faults.down_servers())
                quarantined = (
                    set(health.quarantined_servers()) if health is not None else set()
                )
                completed = executor.completed_subtrees()
                completed.update(
                    {
                        node_id: (assignment.materialized_server(node_id), table)
                        for node_id, table in reuse.items()
                    }
                )
                if journal is not None:
                    for entry in journal:
                        completed.setdefault(
                            entry.node_id, (entry.server, entry.table)
                        )
                pinned = {
                    node_id: server
                    for node_id, (server, _) in completed.items()
                    if not isinstance(tree.node(node_id), LeafNode)
                }
                try:
                    assignment, pinned = self._replan_restricted(
                        tree, excluded, quarantined, pinned, error
                    )
                except DegradedExecutionError as degraded:
                    degraded.checkpoint = journal
                    raise
                if self._verify:
                    verify_assignment(
                        system.policy, assignment, recipient=self._recipient
                    )
                reuse = {
                    node_id: completed[node_id][1]
                    for node_id in assignment.materialized_nodes()
                    if node_id in completed
                }

    def _replan_restricted(
        self,
        tree: QueryTreePlan,
        excluded: set,
        quarantined: set,
        pinned: Mapping[int, str],
        cause: TransferFailedError,
    ) -> Tuple[Assignment, Mapping[int, str]]:
        """Re-plan on surviving servers, preferring subtree reuse.

        The attempt ladder, most- to least-preferred:

        1. avoid crashed *and* quarantined servers, pin completed
           subtrees held by the remainder;
        2. same avoidance, no pins (reuse over-constrained the search);
        3. avoid only crashed servers, pin surviving subtrees;
        4. avoid only crashed servers, no pins.

        Quarantine is advisory — rungs 3 and 4 ignore it, so a breaker
        can never degrade a query that still has a safe plan on the
        actually-live servers.  Crashed servers are a hard exclusion on
        every rung; raises
        :class:`~repro.exceptions.DegradedExecutionError` when no rung
        admits a safe assignment.
        """
        hard = set(excluded)
        soft = set(quarantined) - hard
        attempts = []
        if soft:
            avoid = hard | soft
            pins_avoiding = {
                node_id: server
                for node_id, server in pinned.items()
                if server not in avoid
            }
            if pins_avoiding:
                attempts.append((avoid, pins_avoiding))
            attempts.append((avoid, {}))
        pins_surviving = {
            node_id: server
            for node_id, server in pinned.items()
            if server not in hard
        }
        if pins_surviving:
            attempts.append((hard, pins_surviving))
        attempts.append((hard, {}))
        try:
            return self._first_feasible(tree, attempts)
        except InfeasiblePlanError as error:
            raise DegradedExecutionError(
                "no safe assignment survives the current faults "
                f"(excluded: {sorted(hard)}); last failure: {cause}",
                excluded_servers=hard,
            ) from error
