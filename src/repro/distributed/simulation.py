"""Discrete-event simulation of concurrent query execution.

The timeline of :mod:`repro.engine.timeline` answers "how long does
*one* query take on an idle system".  Real deployments run many, and
the paper's second planning principle — *prefer the server already
involved in many joins* — deliberately concentrates work, which is
great for coordination and questionable for throughput.  This module
quantifies that: a list-scheduling, event-driven simulator where

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

Task graphs are derived from executed plans (assignment + transfer
log), so volumes are real, not estimated.  Results report per-query
completion times, global makespan and per-server busy time — enough to
see the load-concentration effect directly
(:mod:`benchmarks.bench_abl8_contention`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.tree import JoinNode, LeafNode, PlanNode, UnaryNode
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
    """

    __slots__ = ("task_id", "kind", "resource", "duration", "deps", "query", "label")

    def __init__(
        self,
        task_id: str,
        kind: str,
        resource: Optional[str],
        duration: float,
        deps: Tuple[str, ...],
        query: int,
        label: str,
    ) -> None:
        self.task_id = task_id
        self.kind = kind
        self.resource = resource
        self.duration = duration
        self.deps = deps
        self.query = query
        self.label = label

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

    Returns the tasks plus the id of the query's sink task (the root's
    compute task), whose finish time is the query's completion.

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
    for transfer in transfers:
        if not transfer.description.startswith("result"):
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

    return tasks, sink_of[plan.root.node_id]


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

        all_tasks: Dict[str, Task] = {}
        sinks: List[str] = []
        arrival_of: Dict[str, float] = {}
        for index, (assignment, log) in enumerate(executions):
            tasks, sink = build_query_tasks(
                index, assignment, log, self._compute_rate, self._network
            )
            for task in tasks:
                all_tasks[task.task_id] = task
                arrival_of[task.task_id] = float(arrival_times[index])
            sinks.append(sink)

        # List scheduling. ready time = max(deps finish, arrival).
        remaining_deps = {
            tid: set(task.deps) for tid, task in all_tasks.items()
        }
        dependents: Dict[str, List[str]] = {}
        for tid, task in all_tasks.items():
            for dep in task.deps:
                dependents.setdefault(dep, []).append(tid)

        #: min-heap of (ready_time, task_id) for tasks with deps met.
        ready: List[Tuple[float, str]] = []
        for tid, deps in remaining_deps.items():
            if not deps:
                heapq.heappush(ready, (arrival_of[tid], tid))

        server_free: Dict[str, float] = {}
        busy_time: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        scheduled = 0
        while ready:
            ready_time, tid = heapq.heappop(ready)
            task = all_tasks[tid]
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
            scheduled += 1
            for succ in dependents.get(tid, ()):
                remaining_deps[succ].discard(tid)
                if not remaining_deps[succ]:
                    succ_ready = max(
                        [arrival_of[succ]]
                        + [finish[d] for d in all_tasks[succ].deps]
                    )
                    heapq.heappush(ready, (succ_ready, succ))
        if scheduled != len(all_tasks):
            raise ExecutionError(
                "task graph contains a cycle or unresolved dependency"
            )
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
