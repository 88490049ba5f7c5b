"""Distributed execution of an assigned query plan.

Executes a query tree plan *as the assignment dictates*: every operation
runs at its executor's master, joins follow the Figure 5 flows exactly
(regular shipments, semi-join probe/return round-trips, or third-party
coordinator shipments), and every cross-server transfer is measured and
— when a policy is supplied — audited before it happens.

The executor is a faithful simulator rather than a network service: the
"servers" are table namespaces, and shipping a table means recording a
:class:`~repro.engine.transfers.Transfer` with the table's real row and
byte volume.  This is exactly the level of abstraction at which the
paper's cost and safety claims live.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.tree import (
    PROJECT,
    JoinNode,
    LeafNode,
    PlanNode,
    UnaryNode,
)
from repro.core.assignment import Assignment
from repro.core.flows import semi_join_probe_profile, semi_join_result_profile
from repro.core.plancache import PLAN_CACHE_KEYS
from repro.core.profile import RelationProfile
from repro.engine.audit import AuditLog
from repro.engine.data import Table
from repro.engine.resilience import RetryPolicy, attempt_shipment
from repro.engine.transfers import Transfer, TransferLog
from repro.exceptions import ExecutionError, TransferFailedError
from repro.obs.hooks import NO_HOOKS, Hooks


class ExecutionResult:
    """Outcome of one distributed execution.

    Attributes:
        table: the query result.
        result_server: server holding the result (root master, or the
            recipient when one was given).
        transfers: every cross-server shipment performed.
        audit: the audit log (``None`` for unaudited runs).
        failovers: how many times the execution was re-planned onto
            surviving servers before completing (0 for fault-free runs).
        breaker_trips: circuit-breaker trips observed by the run's
            health tracker (0 when none was attached).
        checkpointed: subtree results journaled by the run.
        resumed: checkpointed subtree results reused instead of
            re-executed.
        deadline: the run's :class:`~repro.engine.deadline.DeadlineBudget`
            (``None`` when no budget was set).
        checkpoint: the run's
            :class:`~repro.engine.checkpoint.CheckpointJournal` (``None``
            when journaling was off).
        plan_cache: snapshot of the system's plan-cache counters at the
            end of the run (:meth:`repro.core.plancache.PlanCache.snapshot`;
            ``None`` when the cache is disabled).
        profile: the run's :class:`~repro.profiling.QueryProfile`
            (``None`` unless a profiler was attached; stamped by the
            pipeline after the run finishes).
    """

    __slots__ = (
        "table",
        "result_server",
        "transfers",
        "audit",
        "failovers",
        "breaker_trips",
        "checkpointed",
        "resumed",
        "deadline",
        "checkpoint",
        "plan_cache",
        "profile",
    )

    def __init__(
        self,
        table: Table,
        result_server: str,
        transfers: TransferLog,
        audit: Optional[AuditLog],
        failovers: int = 0,
        breaker_trips: int = 0,
        checkpointed: int = 0,
        resumed: int = 0,
        deadline=None,
        checkpoint=None,
        plan_cache: Optional[dict] = None,
        profile=None,
    ) -> None:
        self.table = table
        self.result_server = result_server
        self.transfers = transfers
        self.audit = audit
        self.failovers = failovers
        self.breaker_trips = breaker_trips
        self.checkpointed = checkpointed
        self.resumed = resumed
        self.deadline = deadline
        self.checkpoint = checkpoint
        self.plan_cache = plan_cache
        self.profile = profile

    def summary_dict(self) -> dict:
        """Stable, flat JSON-safe summary of the run.

        Every key is always present — breaker/deadline/checkpoint and
        plan-cache fields are emitted with zero/``None``/``False``
        values when the corresponding feature was off — so downstream
        JSON consumers get one schema regardless of which features a
        run enabled.
        """
        return {
            "rows": len(self.table),
            "result_server": self.result_server,
            "transfers": len(self.transfers),
            "bytes": self.transfers.total_bytes(),
            "retries": self.transfers.total_retries(),
            "failovers": self.failovers,
            "audited": self.audit is not None,
            "violations": (
                len(self.audit.violations) if self.audit is not None else 0
            ),
            "breaker_trips": self.breaker_trips,
            "deadline_budget": (
                self.deadline.budget if self.deadline is not None else None
            ),
            "deadline_spent": (
                self.deadline.spent if self.deadline is not None else 0.0
            ),
            "deadline_remaining": (
                self.deadline.remaining if self.deadline is not None else None
            ),
            "checkpointed": self.checkpointed,
            "resumed": self.resumed,
            "plan_cache_enabled": self.plan_cache is not None,
            # The cache's size and LRU pressure are not per-run facts.
            **{
                f"plan_cache_{key}": (self.plan_cache or {}).get(key, 0)
                for key in PLAN_CACHE_KEYS
                if key not in ("evictions", "entries")
            },
        }

    def summary(self) -> str:
        """One line: rows, transfers, retries, failovers, audit outcome,
        plus breaker/deadline/checkpoint accounting when present.

        Used by the CLI's ``execute`` command and the fault benchmarks.
        """
        retries = self.transfers.total_retries()
        if self.audit is None:
            audit = "unaudited"
        elif self.audit.all_authorized():
            audit = "clean"
        else:
            audit = f"{len(self.audit.violations)} violations"
        line = (
            f"{len(self.table)} rows at {self.result_server} | "
            f"{len(self.transfers)} transfers / {self.transfers.total_bytes()} B | "
            f"{retries} retries | {self.failovers} failovers | audit {audit}"
        )
        if self.breaker_trips:
            line += f" | {self.breaker_trips} breaker trips"
        if self.deadline is not None:
            line += (
                f" | deadline {self.deadline.describe()} "
                f"({self.deadline.remaining:.1f} left)"
            )
        if self.checkpointed or self.resumed:
            line += f" | {self.checkpointed} checkpointed / {self.resumed} resumed"
        return line

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({len(self.table)} rows at {self.result_server}, "
            f"{len(self.transfers)} transfers)"
        )


class JoinStep(NamedTuple):
    """How the executor runs one join of an assignment: its own reading
    of Figure 5, independent of the verifier's (:mod:`repro.core.safety`),
    kept per assignment by join node id (``Assignment.memoized``).  It
    names servers, profiles and attributes only — never a node or a
    predicate — so it holds for every tree the assignment is rebound to.

    ``ships`` are two shipments as :meth:`DistributedExecutor._ship`
    takes them, ``(profile, sender, receiver, description)``: both
    operands to the server that computes a ``regular`` or ``coordinator``
    join (the operand already there ships nowhere), or a ``semi`` join's
    probe and shipped-back join.
    """

    mode: str
    ships: Tuple[tuple, tuple]
    join_attributes: Sequence[str] = ()
    master_is_left: bool = True


def derive_join_steps(assignment: Assignment) -> Dict[int, JoinStep]:
    """The :class:`JoinStep` of every join the assignment executes."""
    skipped = assignment.skipped_node_ids()
    return {
        node.node_id: _join_step(assignment, node)
        for node in assignment.plan
        if isinstance(node, JoinNode)
        and node.node_id not in skipped
        and not assignment.is_materialized(node.node_id)
    }


def _join_step(assignment: Assignment, node: JoinNode) -> JoinStep:
    servers = [assignment.master(child.node_id) for child in (node.left, node.right)]
    profiles = [assignment.profile(child.node_id) for child in (node.left, node.right)]
    executor = assignment.executor(node.node_id)
    where = f"join n{node.node_id}"
    if executor.slave is None:
        # Computed at a third-party coordinator or at the master: both
        # operands go there (Definition 4.1, checked by the caller, puts
        # a master at one of them — that operand's shipment is local).
        mode = "regular" if assignment.coordinator(node.node_id) is None else "coordinator"
        role = "master" if mode == "regular" else mode
        left, right = (
            (profile, server, executor.master, f"{where}: {operand} -> {role}")
            for profile, server, operand in zip(profiles, servers, ("R_l", "R_r"))
        )
        return JoinStep(mode, (left, right))
    # Semi-join (Figure 5 five-step sequence).
    master_is_left = executor.master == servers[0]
    master_profile, slave_profile = profiles if master_is_left else reversed(profiles)
    join_attributes = sorted(node.path.attributes & master_profile.attributes)
    if not join_attributes:
        raise ExecutionError(f"{where}: master operand carries no join attributes")
    probed = frozenset(join_attributes)
    # Step 1-2: the master operand projected on its join attributes goes
    # to the slave; step 3-4: the slave joins the probe with its operand
    # and ships the (reduced) result back.
    probe = (
        semi_join_probe_profile(master_profile, probed),
        executor.master, executor.slave, f"{where}: probe -> slave",
    )
    back = (
        semi_join_result_profile(master_profile, slave_profile, probed, node.path),
        executor.slave, executor.master, f"{where}: join -> master",
    )
    return JoinStep("semi", (probe, back), join_attributes, master_is_left)


class DistributedExecutor:
    """Executes one assignment over concrete base tables.

    Args:
        assignment: a complete executor assignment (with profiles), e.g.
            from :class:`~repro.core.planner.SafePlanner`.
        tables: base tables keyed by relation name.
        policy: when given, every transfer is audited against it.
        enforce: forwarded to :class:`~repro.engine.audit.AuditLog`;
            with ``enforce=False`` violations are recorded, not raised
            (useful to measure what an unsafe strategy would leak).
        faults: optional fault injector (see
            :class:`~repro.distributed.faults.FaultInjector`); when
            given, every shipment is attempted through it under
            ``retry``, attempt counts are recorded on each transfer and
            exhausted retries raise
            :class:`~repro.exceptions.TransferFailedError`.  When
            ``None`` (the default) the execution path is exactly the
            fault-unaware one.
        retry: retry policy for fault-aware shipping (default: a fresh
            :class:`~repro.engine.resilience.RetryPolicy`).
        reuse: ``node_id -> Table`` results materialized by an earlier
            execution attempt; required for every node the assignment
            marks materialized.
        health: optional :class:`~repro.distributed.health.HealthTracker`
            (duck-typed); every shipment attempt feeds it and is refused
            fast when its breaker is open.
        deadline: optional :class:`~repro.engine.deadline.DeadlineBudget`;
            shipment durations and backoff waits are charged against it.
        checkpoint: optional
            :class:`~repro.engine.checkpoint.CheckpointJournal`; every
            completed non-leaf subtree whose holder is authorized for
            its profile is journaled (audited runs only), so a killed
            run can resume.
        hooks: the run's listener (:mod:`repro.obs.hooks`): every
            executed node and every cross-server shipment is reported to
            it, begin and end.  A tracer renders one ``join`` span per
            join and one ``transfer`` span per shipment, stamped with
            the covering-authorization id; a profiler records operators,
            transfers and CanView probes into its active profile.  The
            default listens to nothing.
    """

    def __init__(
        self,
        assignment: Assignment,
        tables: Mapping[str, Table],
        policy=None,
        enforce: bool = True,
        faults=None,
        retry: Optional[RetryPolicy] = None,
        reuse: Optional[Mapping[int, Table]] = None,
        health=None,
        deadline=None,
        checkpoint=None,
        hooks: Hooks = NO_HOOKS,
    ) -> None:
        assignment.validate_structure()
        self._assignment = assignment
        self._steps: Dict[int, JoinStep] = assignment.memoized(
            "join_steps", derive_join_steps
        )
        self._tables = dict(tables)
        self._log = TransferLog()
        self._hooks = hooks
        self._audit = (
            AuditLog(policy, enforce=enforce, trace=hooks.trace)
            if policy is not None
            else None
        )
        self._faults = faults
        self._retry = retry if retry is not None else (RetryPolicy() if faults is not None else None)
        self._reuse = dict(reuse or {})
        self._health = health
        self._deadline = deadline
        self._checkpoint = checkpoint
        self._completed: Dict[int, Tuple[str, Table]] = {}

    def completed_subtrees(self) -> Dict[int, Tuple[str, Table]]:
        """Node results that materialized before a failure, keyed by node
        id, each with the server holding it.  Populated only for
        fault-aware runs; the failover layer feeds surviving entries back
        as ``reuse`` after re-planning."""
        return dict(self._completed)

    def run(self, recipient: Optional[str] = None) -> ExecutionResult:
        """Execute the plan; optionally deliver the result to ``recipient``.

        Raises:
            AuditViolationError: on an unauthorized transfer (audited,
                enforcing runs).
            ExecutionError: on missing instances or operator failures.
        """
        root = self._assignment.plan.root
        root_id = root.node_id
        table = self._execute(root)
        result_server = self._assignment.master(root_id)
        if recipient is not None:
            table = self._ship(
                table,
                self._assignment.profile(root_id),
                sender=result_server,
                receiver=recipient,
                description="result -> recipient",
                node_id=root_id,
            )
            result_server = recipient
        return ExecutionResult(
            table,
            result_server,
            self._log,
            self._audit,
            breaker_trips=(
                self._health.breaker_trips() if self._health is not None else 0
            ),
            checkpointed=len(self._checkpoint) if self._checkpoint is not None else 0,
            resumed=len(self._reuse),
            deadline=self._deadline,
            checkpoint=self._checkpoint,
        )

    # ------------------------------------------------------------------
    # Node execution
    # ------------------------------------------------------------------

    def _execute(self, node: PlanNode) -> Table:
        assignment = self._assignment
        node_id = node.node_id
        if assignment.is_materialized(node_id):
            if node_id not in self._reuse:
                raise ExecutionError(
                    f"node n{node_id} is marked materialized but no "
                    "reused result was provided"
                )
            return self._reuse[node_id]
        hooks = self._hooks
        hooks.node_begin(node, assignment)
        table = None
        try:
            table = self._execute_node(node)
        finally:
            hooks.node_end(node, assignment, table)
        if self._faults is None and self._checkpoint is None:
            # Nothing can fail over from this result or park it.
            return table
        if not isinstance(node, LeafNode):
            server = assignment.master(node_id)
            if self._faults is not None:
                self._completed[node_id] = (server, table)
            if self._checkpoint is not None and self._audit is not None:
                profile = assignment.profile(node_id)
                # Journal only what is audited-safe to park: the holder
                # must be authorized for the view it would resume with.
                if self._audit.policy.can_view(profile, server):
                    self._checkpoint.record(node_id, server, profile, table)
        return table

    def _execute_node(self, node: PlanNode) -> Table:
        if isinstance(node, LeafNode):
            name = node.relation.name
            if name not in self._tables:
                raise ExecutionError(f"no instance provided for base relation {name!r}")
            return self._tables[name]
        if isinstance(node, UnaryNode):
            child = self._execute(node.left)
            if node.operator == PROJECT:
                return child.project(node.projection_attributes)
            return child.select(node.predicate)
        if isinstance(node, JoinNode):
            return self._execute_join(node)
        raise ExecutionError(f"unknown node kind: {type(node).__name__}")

    def _execute_join(self, node: JoinNode) -> Table:
        left_table = self._execute(node.left)
        right_table = self._execute(node.right)
        node_id = node.node_id
        step = self._steps[node_id]
        first, second = step.ships
        if step.mode != "semi":
            shipped_left = self._ship(left_table, *first, node_id)
            shipped_right = self._ship(right_table, *second, node_id)
            return shipped_left.equi_join(shipped_right, node.path)
        if step.master_is_left:
            master_table, slave_table = left_table, right_table
        else:
            master_table, slave_table = right_table, left_table
        probe = self._ship(master_table.project(step.join_attributes), *first, node_id)
        slave_join = self._ship(probe.equi_join(slave_table, node.path), *second, node_id)
        # Step 5: recombine with the full master operand (natural join on
        # the probe columns).
        return master_table.natural_join(slave_join)

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _ship(
        self,
        table: Table,
        profile: RelationProfile,
        sender: str,
        receiver: str,
        description: str,
        node_id: int,
    ) -> Table:
        """Move a table across servers: audit, attempt, record.

        The authorization check always precedes any shipment attempt —
        unauthorized bytes never reach the fault layer, so faults can
        only delay or deny data the policy already allows.

        Each (non-local) shipment is reported exactly once, begin and
        end — under a tracer one ``transfer`` span carrying the
        covering-authorization id, so the span count matches the audit
        log entry count one-to-one on runs where every shipment delivers.
        """
        if sender == receiver:
            return table
        # The payload is measured once per shipment; the span, the fault
        # layer, the transfer record and the metrics all carry this value.
        size = table.byte_size()
        audit = self._audit
        hooks = self._hooks
        hooks.ship_begin(table, size, sender, receiver, description, node_id)
        authorized_by = transfer = None
        violation = False
        try:
            if audit is not None:
                # A single exact-path probe decides the release and yields
                # the covering rule in one pass (see AuditLog.authorize).
                allowed, authorized_by = audit.authorize(sender, receiver, profile)
                if not allowed:
                    # Either raises (enforcing) or falls through as a
                    # recorded violation (measure-only runs).
                    audit.deny(sender, receiver, profile)
                    violation = True
            transfer = self._ship_once(
                table, size, profile, sender, receiver, description, node_id,
                authorized_by,
            )
            if audit is not None:
                audit.record(transfer, violation=violation)
            return table
        finally:
            hooks.ship_end(audit, authorized_by, violation, transfer)

    def _ship_once(
        self,
        table: Table,
        size: int,
        profile: RelationProfile,
        sender: str,
        receiver: str,
        description: str,
        node_id: int,
        authorized_by,
    ) -> Transfer:
        """One authorized shipment through the fault layer (retried
        under the run's policy), recorded in the transfer log."""
        attempts, outcomes, retry_delay = 1, ("ok",), 0.0
        if self._faults is not None:
            report = attempt_shipment(
                self._faults,
                self._retry,
                sender,
                receiver,
                size,
                health=self._health,
                deadline=self._deadline,
                trace=self._hooks.trace,
            )
            if not report.delivered:
                raise TransferFailedError(
                    f"{description}: shipment {sender} -> {receiver} failed "
                    f"after {report.attempt_count} attempts "
                    f"(last: {report.last_status})",
                    sender=sender,
                    receiver=receiver,
                    report=report,
                )
            attempts = report.attempt_count
            outcomes = report.outcomes
            retry_delay = report.retry_delay
        transfer = Transfer(
            sender=sender,
            receiver=receiver,
            profile=profile,
            row_count=len(table),
            byte_size=size,
            description=description,
            node_id=node_id,
            authorized_by=authorized_by,
            attempts=attempts,
            outcomes=outcomes,
            retry_delay=retry_delay,
        )
        self._log.record(transfer)
        return transfer
