"""The one instrumentation seam of the execution spine.

Planner, executor, pipeline and sharding coordinator each have one body
that reports what it does to one :class:`Hooks` object and never asks
whether anybody listens.  :class:`Hooks` is the null listener — what
every untraced, unprofiled run gets — and :func:`hooks_for` the only
switch: it adapts the public ``trace=`` / ``obs=`` / ``profiler=``
keywords to the listener that renders them.

Call sites follow every ``x_begin`` by its ``x_end`` in a ``try`` /
``finally``, strictly LIFO; the last argument of ``x_end`` is the
outcome, ``None`` when an exception is leaving the region.  They pass the objects they hold: names, labels, span
attributes, statistics and clock reads happen in the listener.  Leaf
emitters that only drop events into whichever span is open (audit,
retry, breakers, deadline, checkpoint, plan cache, chase and shard
checker) take :attr:`Hooks.trace` instead.

The query service has its own seam, built the same way:
:class:`ServiceHooks` and its switch :func:`service_hooks_for`.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.algebra.tree import JoinNode, LeafNode, UnaryNode


class Hooks:
    """The events of one run, as no-ops: the null listener."""

    __slots__ = ()

    #: The :class:`~repro.obs.trace.TraceContext` leaf emitters write
    #: into (``None``: nobody is tracing).
    trace = None

    # Planner (Figure 6).  ``counting_can_view`` returns the CanView
    # callable to probe through: ``inner``, or a wrapper counting calls;
    # ``plan_phase`` says which traversal runs from here to the next
    # phase or the plan's end; ``enumerate_end`` gets the join and the
    # PlannerTrace holding its and its operands' candidate lists.
    def counting_can_view(self, inner, policy):
        return inner

    def plan_begin(self) -> None: ...
    def plan_end(self, assignment) -> None: ...
    def plan_phase(self, name: str) -> None: ...
    def enumerate_begin(self, node) -> None: ...
    def enumerate_end(self, node, decisions) -> None: ...

    # Pipeline.  ``logical_clock``: the run executes under ``faults``,
    # whose clock times it; budget and breakers report into the trace.
    def logical_clock(self, faults, deadline, health) -> None: ...
    def shard_begin(self, shard: Optional[dict]) -> None: ...
    def shard_end(self, result) -> None: ...
    def unit_begin(self, query, assignment, tables) -> None: ...
    def unit_end(self, result) -> None: ...
    def attempt_begin(self, round: int, reuse) -> None: ...
    def attempt_end(self, result) -> None: ...
    def failover(self, round: int, error, faults) -> None: ...

    # Executor (Figure 5).  ``ship_end``: ``audit`` is the run's audit
    # log (``None`` unaudited), ``rule`` the covering authorization it
    # found, ``transfer`` the recorded Transfer (``None``: undelivered).
    def node_begin(self, node, assignment) -> None: ...
    def node_end(self, node, assignment, table) -> None: ...
    def ship_begin(self, table, size, sender, receiver, description, node_id) -> None: ...
    def ship_end(self, audit, rule, violation: bool, transfer) -> None: ...

    # Sharding coordinator.
    def shards_begin(self, plan) -> None: ...
    def shards_end(self) -> None: ...
    def shard_fallback(self, reason: str) -> None: ...
    def shard_commit(self, plan, table, results) -> None: ...


#: The null listener (stateless, so one instance serves every run).
NO_HOOKS = Hooks()

#: ``execute_attempt`` spans name these two failures as they always did.
_ATTEMPT_ERRORS = {
    "DeadlineExceededError": "deadline-exceeded",
    "TransferFailedError": "transfer-failed",
}


class TracerHooks(Hooks):
    """Renders the events as spans, instant events and ``repro_*``
    series of one :class:`~repro.obs.trace.TraceContext`."""

    __slots__ = ("trace", "_open")

    def __init__(self, trace) -> None:
        self.trace = trace
        # What each pending begin opened, innermost last (None: no span).
        self._open: List[object] = []

    def _begin(self, name: str, category: str, track=None, **attrs) -> None:
        self._open.append(self.trace.begin(name, category, track, **attrs))

    def _end(self, failed: bool = False, **attrs) -> None:
        span = self._open.pop()
        if span is None:
            return
        if failed:
            # Called from the call site's ``finally`` with no outcome:
            # the exception leaving the region is the one in flight.
            span.attrs.setdefault("error", sys.exc_info()[0].__name__)
        self.trace.end(span, **attrs)

    def counting_can_view(self, inner, policy):
        count = self.trace.count
        # Hits are derived from a closed policy's cold-path miss counter
        # (bumped in the ``Policy._cover`` kernel only), which keeps the
        # memoized hit path free of bookkeeping.
        memoized = hasattr(policy, "uncached_can_view_calls")

        def counted(profile, server):
            before = memoized and policy.uncached_can_view_calls
            result = inner(profile, server)
            if memoized:
                hit = policy.uncached_can_view_calls == before
                count(
                    "repro_canview_cache_hits_total"
                    if hit
                    else "repro_canview_cache_misses_total"
                )
            count("repro_canview_calls_total", server=server)
            return result

        return counted

    def plan_begin(self) -> None:
        self._begin("plan", "planner")

    def plan_phase(self, name: str) -> None:
        if self._open[-1].name != "plan":
            self._end()
        self._begin(name, "planner")

    def plan_end(self, assignment) -> None:
        failed = assignment is None
        self._end(failed)  # the phase that was running
        if failed:
            return self._end(True)
        root = assignment.plan.root.node_id
        self._end(root_master=assignment.executor(root).master)

    def enumerate_begin(self, node) -> None:
        self._begin("enumerate_candidates", "planner", node=f"n{node.node_id}")

    def enumerate_end(self, node, decisions) -> None:
        from repro.core.candidates import MODE_REGULAR, MODE_SEMI

        if decisions is None:
            return self._end(True)
        # Every candidate of either operand was tried as a master; the
        # join's own list holds the admitted ones (a third-party rescue
        # is appended outside that loop and is not one of them).
        count = self.trace.count
        count("repro_candidates_generated_total", sum(
            len(decisions.decision(child.node_id).candidates)
            for child in node.children()
        ))
        admitted = decisions.decision(node.node_id).candidates
        for candidate in admitted:
            if candidate.mode in (MODE_SEMI, MODE_REGULAR):
                count("repro_candidates_admitted_total", mode=candidate.mode)
        self._end(admitted=len(admitted))

    def logical_clock(self, faults, deadline, health) -> None:
        self.trace.maybe_use_clock(lambda: faults.clock)
        if deadline is not None:
            deadline.bind_trace(self.trace)
        if health is not None:
            health.bind_trace(self.trace)

    def shard_begin(self, shard: Optional[dict]) -> None:
        if shard is None:
            self._open.append(None)
        else:
            self._begin("shard", "sharding", **shard)

    def shard_end(self, result) -> None:
        if result is None:
            return self._end()
        self._end(rows=len(result.table))

    def attempt_begin(self, round: int, reuse) -> None:
        self._begin(
            "execute_attempt", "engine", round=round, reused_subtrees=len(reuse)
        )

    def attempt_end(self, result) -> None:
        if result is not None:
            return self._end(delivered=True)
        name = sys.exc_info()[0].__name__
        self._end(delivered=False, error=_ATTEMPT_ERRORS.get(name, name))

    def failover(self, round: int, error, faults) -> None:
        self.trace.count("repro_failovers_total")
        self.trace.event(
            "failover", "engine", round=round, cause=str(error),
            down_servers=sorted(faults.down_servers()),
        )

    def node_begin(self, node, assignment) -> None:
        if not isinstance(node, JoinNode):
            return self._open.append(None)
        executor = assignment.executor(node.node_id)
        self._begin(
            "join", "engine", track=executor.master, node=f"n{node.node_id}",
            master=executor.master, slave=executor.slave,
        )

    def node_end(self, node, assignment, table) -> None:
        self._end(table is None)

    def ship_begin(self, table, size, sender, receiver, description, node_id) -> None:
        self._begin(
            "transfer", "engine", track=sender, link=f"{sender}->{receiver}",
            receiver=receiver, node=f"n{node_id}", rows=len(table), bytes=size,
            description=description,
        )

    def ship_end(self, audit, rule, violation: bool, transfer) -> None:
        trace, attrs = self.trace, self._open[-1].attrs
        link, size = attrs["link"], attrs["bytes"]
        delivered = transfer is not None
        if audit is not None:
            attrs["auth_id"] = audit.rule_id(rule)
        if violation and delivered:
            attrs["violation"] = True
        trace.count("repro_transfers_total", link=link)
        if delivered:
            trace.count("repro_bytes_shipped_total", size, link=link)
            trace.metrics.observe("repro_transfer_bytes", size, link=link)
        self._end(delivered=delivered)

    def shards_begin(self, plan) -> None:
        self._begin("shard_execute", "sharding", shards=len(plan.units), mode=plan.mode)

    def shards_end(self) -> None:
        self._end()

    def shard_fallback(self, reason: str) -> None:
        self.trace.event("shard_fallback", "sharding", reason=reason)
        self.trace.count("repro_shard_fallback_total")

    def shard_commit(self, plan, table, results) -> None:
        from repro.sharding.executor import EXEC_PARTITIONED

        trace = self.trace
        trace.count("repro_shard_queries_total", mode=plan.mode)
        if plan.mode == EXEC_PARTITIONED:
            trace.count("repro_shard_partitions_total", len(results))
            trace.count("repro_shard_rows_total", len(table))
            trace.event(
                "shard_parallel_commit", "sharding", shards=len(results),
                rows=len(table), mode=EXEC_PARTITIONED,
            )


class ProfilerHooks(Hooks):
    """Records the events into the active profile of one
    :class:`~repro.profiling.QueryProfiler`: a profile per unit, an
    operator per executed node, a transfer per delivered shipment."""

    __slots__ = ("_profiler", "_started")

    def __init__(self, profiler) -> None:
        self._profiler = profiler
        self._started: List[float] = []

    def logical_clock(self, faults, deadline, health) -> None:
        self._profiler.maybe_use_clock(lambda: faults.clock)

    def unit_begin(self, query, assignment, tables):
        """Opens the unit's profile; returns the coster's estimate."""
        from repro.engine.coster import TableStats, estimate_assignment_detail

        profiler = self._profiler
        base = profiler.base_stats
        if base is None:
            # Exact statistics of the unit's instances: the estimate
            # then isolates the coster's *model* error (System-R
            # selectivity assumptions), not stale-input error.
            base = {name: TableStats.of_table(table) for name, table in tables.items()}
        estimate = estimate_assignment_detail(
            assignment, base, selectivities=profiler.selectivities
        )
        profiler.start(query if isinstance(query, str) else str(query), estimate)
        return estimate

    def unit_end(self, result):
        """Stamps the finished profile on ``result`` and returns it; a
        failed unit's profile is dropped."""
        if result is None:
            return self._profiler.abandon()
        result.profile = self._profiler.finish()
        return result.profile

    def node_begin(self, node, assignment) -> None:
        self._started.append(self._profiler.now())

    def node_end(self, node, assignment, table) -> None:
        from repro.engine.coster import TableStats, join_path_key
        from repro.engine.executor import derive_join_steps

        profiler = self._profiler
        started, finished = self._started.pop(), profiler.now()
        if table is None:
            return
        node_id = node.node_id
        if isinstance(node, LeafNode):
            kind, about = "scan", {"relation": node.relation.name}
            stats = TableStats.of_table(table)
            profiler.record_relation(
                node.relation.name, stats.rows, stats.distinct, stats.widths
            )
        elif isinstance(node, UnaryNode):
            kind, about = str(node.operator), {"left_id": node.left.node_id}
        else:
            mode = assignment.memoized("join_steps", derive_join_steps)[node_id].mode
            kind, about = f"{mode}_join", {
                "path_key": join_path_key(node.path),
                "left_id": node.left.node_id,
                "right_id": node.right.node_id,
            }
        profiler.record_operator(
            node_id, kind, assignment.master(node_id), len(table), started,
            finished, **about,
        )

    def ship_end(self, audit, rule, violation: bool, transfer) -> None:
        # Only delivered shipments are recorded; the audit probe count
        # mirrors the audit log one-to-one.
        if transfer is None:
            return
        if audit is not None:
            self._profiler.record_probe()
        self._profiler.record_transfer(
            transfer.node_id, transfer.sender, transfer.receiver,
            transfer.row_count, transfer.byte_size, transfer.description,
        )


class ProfiledTracerHooks(TracerHooks):
    """Both listeners — the tracer's spans around the profiler's
    records — plus what exists only when both are on: the ``profile``
    span, the ``repro_profile_*`` series and ``plan_misestimate`` events."""

    __slots__ = ("_recorder",)

    def __init__(self, trace, profiler) -> None:
        super().__init__(trace)
        self._recorder = ProfilerHooks(profiler)

    def logical_clock(self, faults, deadline, health) -> None:
        super().logical_clock(faults, deadline, health)
        self._recorder.logical_clock(faults, deadline, health)

    def unit_begin(self, query, assignment, tables) -> None:
        estimate = self._recorder.unit_begin(query, assignment, tables)
        self._begin("profile", "profiler", estimated_bytes=estimate.total_bytes)

    def unit_end(self, result) -> None:
        profile = self._recorder.unit_end(result)
        if profile is None:
            return self._end(True)
        self._end(
            actual_bytes=profile.actual_bytes,
            canview_probes=profile.canview_probes,
            misestimates=len(profile.misestimates),
        )
        trace = self.trace
        trace.count("repro_profile_runs_total")
        trace.count("repro_profile_operators_total", len(profile.operators))
        trace.count("repro_profile_transfers_total", len(profile.transfers))
        for flag in profile.misestimates:
            trace.count("repro_plan_misestimate_total")
            trace.event(
                "plan_misestimate", "profiler", node=f"n{flag['node_id']}",
                link=f"{flag['sender']}->{flag['receiver']}", kind=flag["kind"],
                estimated_bytes=flag["estimated_bytes"],
                actual_bytes=flag["actual_bytes"], ratio=flag["ratio"],
            )

    def node_begin(self, node, assignment) -> None:
        self._recorder.node_begin(node, assignment)
        super().node_begin(node, assignment)

    def node_end(self, node, assignment, table) -> None:
        super().node_end(node, assignment, table)
        self._recorder.node_end(node, assignment, table)

    def ship_end(self, audit, rule, violation: bool, transfer) -> None:
        self._recorder.ship_end(audit, rule, violation, transfer)
        super().ship_end(audit, rule, violation, transfer)


def hooks_for(trace=None, profiler=None) -> Hooks:
    """The listener for a run's ``trace=`` and ``profiler=`` keywords."""
    if profiler is None:
        return NO_HOOKS if trace is None else TracerHooks(trace)
    if trace is None:
        return ProfilerHooks(profiler)
    return ProfiledTracerHooks(trace, profiler)


class ServiceHooks:
    """The events of a query service's requests, as no-ops: the null
    listener.  A request is ``admit``-ted, or ``adopt``-ed by recovery,
    ``requeue``-d per chaos-interrupted attempt and ``resolve``-d once.
    ``flight_lead`` fires when an admitted request opens the flight of
    its key (identical requests admitted while it is open attach to
    it), ``flight_promote`` when the leader leaves by its own fate and
    the first follower leads that flight.  ``submit``, ``worker`` and
    ``leader`` are the chaos points, whose return values the service
    applies."""

    #: Request ids issued so far (per listener, from the first ``admit``).
    _issued = 0

    def admit(self, tenant, query, recipient, epoch, future, request_id=None) -> int:
        """Returns the request's id: ``request_id`` when a listener
        heard before this one issued it, else a fresh one."""
        if request_id is None:
            self._issued += 1
            request_id = self._issued
        return request_id

    def adopt(self, request_id, tenant) -> None: ...
    def requeue(self, request_id, checkpoint) -> None: ...
    def resolve(self, request_id, outcome) -> None: ...
    def flight_lead(self, key) -> None: ...
    def flight_promote(self, key) -> None: ...
    def execution_begin(self, key) -> None: ...
    def execution_end(self, key) -> None: ...
    def epoch(self, old: int, new: int) -> None: ...
    def degrade(self, level: int) -> None: ...
    def breaker(self, tenant, old: str, new: str) -> None: ...

    def submit(self):
        """Policy toggles ``(op, rule)`` to apply before admission."""
        return ()

    def worker(self) -> int:
        """Event-loop turns to yield before touching the dequeued item."""
        return 0

    def leader(self) -> None: ...


class ServiceFanout(ServiceHooks):
    """Several service listeners, heard in order; the first one issues
    the request ids."""

    def __init__(self, listeners) -> None:
        self._listeners = tuple(listeners)

    def admit(self, *args, request_id=None) -> int:
        for listener in self._listeners:
            request_id = listener.admit(*args, request_id=request_id)
        return request_id

    def submit(self):
        return [toggle for listener in self._listeners for toggle in listener.submit()]

    def worker(self) -> int:
        return sum(listener.worker() for listener in self._listeners)


def _heard_by_each(event: str):
    def each(self, *args) -> None:
        for listener in self._listeners:
            getattr(listener, event)(*args)

    return each


# Every event the fan-out does not combine itself reaches each listener.
for _event in [name for name in vars(ServiceHooks) if not name.startswith("_")]:
    if _event not in vars(ServiceFanout):
        setattr(ServiceFanout, _event, _heard_by_each(_event))


def service_hooks_for(journal=None, monitor=None, chaos=None) -> ServiceHooks:
    """The listener for a service's ``journal=`` / ``monitor=`` /
    ``chaos=`` keywords, heard in that order: the journal issues the
    lineage's request ids and records them before the monitor checks
    them."""
    if monitor is not None and chaos is not None:
        monitor.bind_chaos(chaos)
    listeners = [
        listener for listener in (journal, monitor, chaos) if listener is not None
    ]
    if not listeners:
        return ServiceHooks()
    return listeners[0] if len(listeners) == 1 else ServiceFanout(listeners)
