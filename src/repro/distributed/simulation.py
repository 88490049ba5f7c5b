"""Discrete-event schedules of executed plans.

:func:`simulate_timeline` answers "how long does *one* query take on an
idle system": latency ranks strategies by round trips, so a semi-join
(two serialized legs) loses to a regular join on high-latency links
even though it ships fewer bytes.  Real deployments run many queries,
and the paper's second planning principle — *prefer the server already
involved in many joins* — concentrates work.
:class:`MultiQuerySimulator` quantifies that: a list-scheduling,
event-driven simulator where

* every **compute task** (scan, projection/selection, join step)
  occupies its server exclusively for ``processed bytes / compute_rate``
  time units — servers are the contended resource;
* every **transfer task** occupies the wire for the network model's
  cost — links are latency/bandwidth pipes without queueing (the
  classic Kossmann-style assumption; server CPUs, not NICs, are the
  bottleneck being studied);
* tasks of *all* submitted queries compete: a server executes one task
  at a time, FIFO by readiness (ties broken deterministically by task
  id).

Both read one task graph per executed plan (:func:`build_query_tasks`:
assignment + transfer log, so volumes are real, not estimated) and run
it through one scheduler; the timeline is that schedule at infinite
compute rate (the paper's cost discussion is communication-only).
Results report per-query completion times, global makespan and
per-server busy time (:mod:`benchmarks.bench_abl8_contention`).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.tree import JoinNode, LeafNode, UnaryNode
from repro.core.assignment import Assignment
from repro.distributed.network import NetworkModel
from repro.engine.transfers import Transfer, TransferLog
from repro.exceptions import ExecutionError


class Task:
    """One schedulable unit.

    Attributes:
        task_id: globally unique, deterministic id.
        kind: ``"compute"`` or ``"transfer"``.
        resource: server name for compute tasks; ``None`` for transfers
            (the wire is not a queued resource).
        duration: service time.
        deps: task ids that must finish first.
        query: index of the owning query.
        label: human-readable description.
        transfer: the shipment a transfer task replays (``None`` for
            compute tasks).
    """

    __slots__ = (
        "task_id", "kind", "resource", "duration", "deps", "query", "label", "transfer"
    )

    def __init__(
        self,
        task_id: str,
        kind: str,
        resource: Optional[str],
        duration: float,
        deps: Tuple[str, ...],
        query: int,
        label: str,
        transfer: Optional[Transfer] = None,
    ) -> None:
        self.task_id = task_id
        self.kind = kind
        self.resource = resource
        self.duration = duration
        self.deps = deps
        self.query = query
        self.label = label
        self.transfer = transfer

    def __repr__(self) -> str:
        return f"Task({self.task_id}: {self.label}, {self.duration:.1f})"


class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        completion_times: per-query completion time, query order.
        makespan: when the last task finished.
        busy_time: per-server total compute occupancy.
        task_finish: finish time per task id.
        arrival_times: per-query submission time, query order.
    """

    __slots__ = (
        "completion_times",
        "makespan",
        "busy_time",
        "task_finish",
        "arrival_times",
    )

    def __init__(
        self,
        completion_times: List[float],
        makespan: float,
        busy_time: Dict[str, float],
        task_finish: Dict[str, float],
        arrival_times: Optional[List[float]] = None,
    ) -> None:
        self.completion_times = completion_times
        self.makespan = makespan
        self.busy_time = busy_time
        self.task_finish = task_finish
        self.arrival_times = (
            list(arrival_times)
            if arrival_times is not None
            else [0.0] * len(completion_times)
        )

    def mean_completion(self) -> float:
        """Average query completion time (0.0 with no queries)."""
        if not self.completion_times:
            return 0.0
        return sum(self.completion_times) / len(self.completion_times)

    def max_busy_server(self) -> Optional[Tuple[str, float]]:
        """The busiest server and its occupancy, or ``None``."""
        if not self.busy_time:
            return None
        server = max(sorted(self.busy_time), key=lambda s: self.busy_time[s])
        return server, self.busy_time[server]

    def describe(self) -> str:
        """Completion times, makespan and per-server occupancy."""
        lines = [
            f"query {i}: done at {t:.1f}"
            for i, t in enumerate(self.completion_times)
        ]
        lines.append(f"makespan: {self.makespan:.1f}")
        for server in sorted(self.busy_time):
            lines.append(f"{server}: busy {self.busy_time[server]:.1f}")
        return "\n".join(lines)


def build_query_tasks(
    query_index: int,
    assignment: Assignment,
    transfers: TransferLog,
    compute_rate: float,
    network: NetworkModel,
) -> Tuple[List[Task], str]:
    """Derive the task DAG of one executed query.

    Returns the tasks plus the id of the query's sink task, whose finish
    time is the query's completion: the root's compute task, or the
    delivery of the result to its recipient when the log holds one
    (delivery is on the critical path).

    Compute durations charge the server for the bytes it processes:
    a scan charges the base table, a join charges both inputs, and the
    semi-join's intermediate steps charge the cooperating server too.

    Raises:
        ExecutionError: if the transfer log does not match the
            assignment's structure.
    """
    if compute_rate <= 0:
        raise ExecutionError("compute_rate must be positive")
    plan = assignment.plan
    by_node: Dict[int, List[Transfer]] = {}
    delivery: Optional[Transfer] = None
    for transfer in transfers:
        if transfer.description.startswith("result"):
            delivery = transfer
        else:
            by_node.setdefault(transfer.node_id, []).append(transfer)

    tasks: List[Task] = []
    sink_of: Dict[int, str] = {}

    def tid(node_id: int, suffix: str) -> str:
        return f"q{query_index}.n{node_id}.{suffix}"

    def add(task: Task) -> str:
        tasks.append(task)
        return task.task_id

    def pick(node_id: int, fragment: str) -> Transfer:
        for transfer in by_node.get(node_id, ()):
            if fragment in transfer.description:
                return transfer
        raise ExecutionError(
            f"transfer log lacks the {fragment!r} shipment of node n{node_id}"
        )

    def transfer_task(
        node_id: int, suffix: str, transfer: Transfer, deps: Tuple[str, ...]
    ) -> str:
        # Each failed attempt occupied the wire for a full shipment and
        # was followed by its backoff wait, so a retried transfer lasts
        # attempts x link cost + total retry delay.  With the fault-free
        # defaults (1 attempt, no delay) this is the plain link cost.
        duration = (
            transfer.attempts
            * network.transfer_cost(
                transfer.sender, transfer.receiver, transfer.byte_size
            )
            + transfer.retry_delay
        )
        return add(
            Task(
                tid(node_id, suffix),
                "transfer",
                None,
                duration,
                deps,
                query_index,
                f"{transfer.sender}->{transfer.receiver} ({transfer.byte_size}B)",
                transfer,
            )
        )

    def compute_task(
        node_id: int, suffix: str, server: str, input_bytes: float, deps: Tuple[str, ...], label: str
    ) -> str:
        return add(
            Task(
                tid(node_id, suffix),
                "compute",
                server,
                input_bytes / compute_rate,
                deps,
                query_index,
                f"{label} @ {server}",
            )
        )

    skipped = assignment.skipped_node_ids()
    for node in plan:
        node_id = node.node_id
        if node_id in skipped:
            continue
        if assignment.is_materialized(node_id):
            # Failover reuse: the result already sits at its server; it
            # anchors dependencies like a leaf and costs nothing.
            sink_of[node_id] = compute_task(
                node_id, "mat", assignment.master(node_id), 0.0, (), "materialized"
            )
            continue
        master = assignment.master(node_id)
        if isinstance(node, LeafNode):
            # Scanning the base relation: charge an approximation of its
            # size — the bytes every consumer of this node observes is
            # unknown here, so charge nothing for the scan and let the
            # first real operator pay; leaves only anchor dependencies.
            sink_of[node_id] = compute_task(
                node_id, "scan", master, 0.0, (), f"scan {node.relation.name}"
            )
            continue
        if isinstance(node, UnaryNode):
            child_sink = sink_of[node.left.node_id]
            sink_of[node_id] = compute_task(
                node_id, "op", master, 0.0, (child_sink,), node.label()
            )
            continue
        if not isinstance(node, JoinNode):  # pragma: no cover
            raise ExecutionError(f"unknown node kind: {type(node).__name__}")
        left_sink = sink_of[node.left.node_id]
        right_sink = sink_of[node.right.node_id]
        left_master = assignment.master(node.left.node_id)
        right_master = assignment.master(node.right.node_id)
        executor = assignment.executor(node_id)
        coordinator = assignment.coordinator(node_id)
        if coordinator is not None:
            ship_left = transfer_task(
                node_id, "inL", pick(node_id, "R_l -> coordinator"), (left_sink,)
            )
            ship_right = transfer_task(
                node_id, "inR", pick(node_id, "R_r -> coordinator"), (right_sink,)
            )
            volume = sum(t.byte_size for t in by_node.get(node_id, ()))
            sink_of[node_id] = compute_task(
                node_id, "join", coordinator, volume, (ship_left, ship_right), "join"
            )
            continue
        if executor.slave is None:
            local = [t for t in by_node.get(node_id, ()) if "-> master" in t.description]
            if not local:
                # Fully local join.
                sink_of[node_id] = compute_task(
                    node_id, "join", master, 0.0, (left_sink, right_sink), "local join"
                )
                continue
            shipped = local[0]
            origin_sink = left_sink if shipped.sender == left_master else right_sink
            stay_sink = right_sink if shipped.sender == left_master else left_sink
            ship = transfer_task(node_id, "in", shipped, (origin_sink,))
            sink_of[node_id] = compute_task(
                node_id, "join", master, float(shipped.byte_size), (ship, stay_sink), "join"
            )
            continue
        # Semi-join: probe out, slave-side join, return, recombination.
        probe = pick(node_id, "probe -> slave")
        back = pick(node_id, "join -> master")
        master_sink = left_sink if master == left_master else right_sink
        slave_sink = right_sink if master == left_master else left_sink
        probe_build = compute_task(
            node_id, "probe", master, float(probe.byte_size), (master_sink,), "probe build"
        )
        probe_ship = transfer_task(node_id, "probeS", probe, (probe_build,))
        slave_join = compute_task(
            node_id,
            "slavejoin",
            executor.slave,
            float(probe.byte_size + back.byte_size),
            (probe_ship, slave_sink),
            "slave join",
        )
        back_ship = transfer_task(node_id, "backS", back, (slave_join,))
        sink_of[node_id] = compute_task(
            node_id, "join", master, float(back.byte_size), (back_ship,), "recombine"
        )

    root = plan.root.node_id
    sink = sink_of[root]
    if delivery is not None:
        sink = transfer_task(root, "deliver", delivery, (sink,))
    return tasks, sink


class MultiQuerySimulator:
    """Schedules the tasks of several executed queries over shared servers.

    Args:
        compute_rate: bytes a server processes per time unit.
        network: link model for transfer durations (default: unit
            bandwidth, zero latency).
        downtime: per-server crash windows ``{server: [(start, end),
            ...]}`` (``end=None`` means the server never recovers); a
            compute task cannot start inside a window — its start shifts
            to the recovery point, pushing the makespan out.  Use
            :meth:`~repro.distributed.faults.FaultInjector.downtime_windows`
            to feed an injector's schedule in.
    """

    def __init__(
        self,
        compute_rate: float = 100.0,
        network: Optional[NetworkModel] = None,
        downtime: Optional[
            Mapping[str, Sequence[Tuple[float, Optional[float]]]]
        ] = None,
    ) -> None:
        self._compute_rate = compute_rate
        self._network = network or NetworkModel()
        self._downtime: Dict[str, Tuple[Tuple[float, Optional[float]], ...]] = {}
        for server, windows in (downtime or {}).items():
            self._downtime[server] = tuple(
                sorted((float(start), end) for start, end in windows)
            )

    def _available_at(self, server: str, start: float) -> float:
        """Earliest time >= ``start`` at which ``server`` is up."""
        for window_start, window_end in self._downtime.get(server, ()):
            if start < window_start:
                break
            if window_end is None:
                raise ExecutionError(
                    f"server {server!r} never recovers after {window_start}; "
                    "its tasks cannot be scheduled"
                )
            if start < window_end:
                start = window_end
        return start

    def run(
        self,
        executions: Sequence[Tuple[Assignment, TransferLog]],
        arrival_times: Optional[Sequence[float]] = None,
        trace=None,
    ) -> SimulationResult:
        """Simulate the concurrent execution of ``executions``.

        Args:
            executions: (assignment, transfer log) per query, e.g. from
                :class:`~repro.engine.executor.DistributedExecutor` runs.
            arrival_times: submission time per query (default: all 0).
            trace: optional :class:`~repro.obs.trace.TraceContext`; each
                scheduled task is recorded as a retroactive span on its
                server's track (transfers on the ``wire`` track), with
                the makespan mirrored onto a gauge.

        Raises:
            ExecutionError: on malformed inputs or mismatched logs.
        """
        if arrival_times is None:
            arrival_times = [0.0] * len(executions)
        if len(arrival_times) != len(executions):
            raise ExecutionError("arrival_times must match executions")

        all_tasks: List[Task] = []
        sinks: List[str] = []
        for index, (assignment, log) in enumerate(executions):
            tasks, sink = build_query_tasks(
                index, assignment, log, self._compute_rate, self._network
            )
            all_tasks.extend(tasks)
            sinks.append(sink)
        _, finish, busy_time = self._schedule(all_tasks, arrival_times, trace)
        completion = [finish[sink] for sink in sinks]
        makespan = max(finish.values()) if finish else 0.0
        if trace is not None:
            trace.metrics.set_gauge("repro_sim_makespan", makespan)
        return SimulationResult(
            completion,
            makespan,
            busy_time,
            finish,
            arrival_times=[float(t) for t in arrival_times],
        )

    def _schedule(
        self, tasks: Sequence[Task], arrival_times: Sequence[float], trace=None
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """List-schedule ``tasks`` (a task is ready at the later of its
        query's arrival and its dependencies' finish); returns the start
        and finish time per task id and the busy time per server."""
        by_id = {task.task_id: task for task in tasks}
        remaining_deps = {tid: set(task.deps) for tid, task in by_id.items()}
        dependents: Dict[str, List[str]] = {}
        for tid, task in by_id.items():
            for dep in task.deps:
                dependents.setdefault(dep, []).append(tid)

        #: min-heap of (ready_time, task_id) for tasks with deps met.
        ready: List[Tuple[float, str]] = []
        for tid, deps in remaining_deps.items():
            if not deps:
                heapq.heappush(ready, (float(arrival_times[by_id[tid].query]), tid))

        server_free: Dict[str, float] = {}
        busy_time: Dict[str, float] = {}
        started: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        while ready:
            ready_time, tid = heapq.heappop(ready)
            task = by_id[tid]
            if task.kind == "compute":
                server = task.resource or ""
                start = max(ready_time, server_free.get(server, 0.0))
                if self._downtime:
                    start = self._available_at(server, start)
                end = start + task.duration
                server_free[server] = end
                busy_time[server] = busy_time.get(server, 0.0) + task.duration
            else:
                start = ready_time
                end = start + task.duration
            started[tid] = start
            finish[tid] = end
            if trace is not None:
                trace.record_span(
                    task.label,
                    "simulation",
                    start,
                    end,
                    track=task.resource if task.resource else "wire",
                    task=tid,
                    kind=task.kind,
                    query=task.query,
                )
                trace.count("repro_sim_tasks_total", kind=task.kind)
            for succ in dependents.get(tid, ()):
                remaining_deps[succ].discard(tid)
                if not remaining_deps[succ]:
                    succ_task = by_id[succ]
                    succ_ready = max(
                        [float(arrival_times[succ_task.query])]
                        + [finish[d] for d in succ_task.deps]
                    )
                    heapq.heappush(ready, (succ_ready, succ))
        if len(finish) != len(by_id):
            raise ExecutionError(
                "task graph contains a cycle or unresolved dependency"
            )
        return started, finish, busy_time


class TimelineEvent(NamedTuple):
    """One scheduled communication: the transfer record, its departure
    and its arrival (departure + network cost of the payload, times
    its attempts, plus its retry waits)."""

    transfer: Transfer
    start: float
    finish: float


class Timeline(NamedTuple):
    """The schedule of one execution: every communication in start-time
    order, and the completion time of the whole query (including the
    recipient delivery when the log holds one)."""

    events: List[TimelineEvent]
    makespan: float

    def describe(self) -> str:
        """One line per event plus the makespan."""
        lines = [
            f"t={event.start:8.2f} .. {event.finish:8.2f}  "
            f"{event.transfer.sender} -> {event.transfer.receiver}  "
            f"({event.transfer.description})"
            for event in self.events
        ]
        lines.append(f"makespan: {self.makespan:.2f}")
        return "\n".join(lines)


def simulate_timeline(
    assignment: Assignment,
    transfers: TransferLog,
    network: Optional[NetworkModel] = None,
) -> Timeline:
    """Schedule an executed plan's transfers on an idle system and
    compute the makespan: :class:`MultiQuerySimulator` at infinite
    compute rate, so only the wire costs time (a semi-join's probe and
    return legs serialize; a coordinator's two inbound legs overlap).

    Args:
        assignment: the executed assignment (for structure and modes).
        transfers: the transfer log of the actual run (for volumes).
        network: link model; defaults to a uniform unit-bandwidth,
            zero-latency network (makespan == bytes on the critical path).

    Raises:
        ExecutionError: if the log does not contain the transfers the
            assignment's structure implies (e.g. a log from a different
            run).
    """
    simulator = MultiQuerySimulator(compute_rate=math.inf, network=network)
    tasks, sink = build_query_tasks(
        0, assignment, transfers, math.inf, simulator._network
    )
    start, finish, _ = simulator._schedule(tasks, [0.0])
    events = [
        TimelineEvent(task.transfer, start[task.task_id], finish[task.task_id])
        for task in tasks
        if task.transfer is not None
    ]
    events.sort(key=lambda event: (event.start, event.finish))
    return Timeline(events, finish[sink])
