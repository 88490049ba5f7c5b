"""Per-query runtime profiles — the EXPLAIN ANALYZE data model.

A `QueryProfiler` is attached to a `QueryPipeline` (or directly to a
`DistributedExecutor`) and collects one `QueryProfile` per run: the
operator tree with observed output cardinalities, every transfer with
its actual byte size next to the coster's estimate, CanView probe
counts, and start/finish timestamps on whatever clock the run uses
(wall time by default, the fault injector's logical clock under a
pinned run — which is what makes profile artifacts byte-stable).

The profiler is pull-free: `repro.obs.hooks.ProfilerHooks` pushes
records as the run reports its events, and `finish()` derives observed
join selectivities and misestimation flags.  A run without a profiler
reports to the null listener instead.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError

#: Flow kind assigned to the final result delivery — it has no coster
#: estimate (the coster prices plan-internal flows only), so it is
#: excluded from misestimate detection.
RESULT_FLOW = "result"

#: Flow kind for a transfer the estimate did not predict at all
#: (e.g. a retried shipment after a failover replan).
UNPLANNED_FLOW = "unplanned"

#: Default overshoot factor: a transfer whose actual bytes exceed
#: ``factor * max(estimate, 1)`` is flagged as a misestimate.
DEFAULT_MISESTIMATE_FACTOR = 2.0


class OperatorProfile:
    """Observed execution of one plan node."""

    __slots__ = (
        "node_id",
        "kind",
        "server",
        "rows",
        "est_rows",
        "left_rows",
        "right_rows",
        "selectivity",
        "path_key",
        "relation",
        "started",
        "finished",
    )

    def __init__(
        self,
        node_id: int,
        kind: str,
        server: str,
        rows: int,
        est_rows: Optional[float] = None,
        left_rows: Optional[int] = None,
        right_rows: Optional[int] = None,
        selectivity: Optional[float] = None,
        path_key: Optional[str] = None,
        relation: Optional[str] = None,
        started: float = 0.0,
        finished: float = 0.0,
    ) -> None:
        self.node_id = int(node_id)
        self.kind = str(kind)
        self.server = str(server)
        self.rows = int(rows)
        self.est_rows = None if est_rows is None else float(est_rows)
        self.left_rows = None if left_rows is None else int(left_rows)
        self.right_rows = None if right_rows is None else int(right_rows)
        self.selectivity = None if selectivity is None else float(selectivity)
        self.path_key = path_key
        self.relation = relation
        self.started = float(started)
        self.finished = float(finished)

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperatorProfile(node={self.node_id}, kind={self.kind!r}, "
            f"rows={self.rows}, est={self.est_rows})"
        )


class TransferProfile:
    """One network shipment: actual bytes next to the coster's estimate."""

    __slots__ = (
        "node_id",
        "sender",
        "receiver",
        "rows",
        "bytes",
        "est_bytes",
        "kind",
        "description",
    )

    def __init__(
        self,
        node_id: int,
        sender: str,
        receiver: str,
        rows: int,
        nbytes: float,
        est_bytes: Optional[float] = None,
        kind: str = UNPLANNED_FLOW,
        description: str = "",
    ) -> None:
        self.node_id = int(node_id)
        self.sender = str(sender)
        self.receiver = str(receiver)
        self.rows = int(rows)
        self.bytes = float(nbytes)
        self.est_bytes = None if est_bytes is None else float(est_bytes)
        self.kind = str(kind)
        self.description = str(description)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferProfile(node={self.node_id}, "
            f"{self.sender}->{self.receiver}, bytes={self.bytes}, "
            f"est={self.est_bytes}, kind={self.kind!r})"
        )


class RelationObservation:
    """Exact statistics of one base relation, measured at scan time."""

    __slots__ = ("name", "rows", "distinct", "widths")

    def __init__(
        self,
        name: str,
        rows: float,
        distinct: Mapping[str, float],
        widths: Mapping[str, float],
    ) -> None:
        self.name = str(name)
        self.rows = float(rows)
        self.distinct = dict(distinct)
        self.widths = dict(widths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationObservation({self.name!r}, rows={self.rows})"


class QueryProfile:
    """The complete observed execution of one query run."""

    __slots__ = (
        "query",
        "operators",
        "transfers",
        "relations",
        "canview_probes",
        "estimated_bytes",
        "estimated_cost",
        "node_est_rows",
        "misestimate_factor",
        "misestimates",
        "started",
        "finished",
    )

    def __init__(
        self,
        query: str = "",
        misestimate_factor: float = DEFAULT_MISESTIMATE_FACTOR,
    ) -> None:
        self.query = str(query)
        self.operators: Dict[int, OperatorProfile] = {}
        self.transfers: List[TransferProfile] = []
        self.relations: Dict[str, RelationObservation] = {}
        self.canview_probes = 0
        self.estimated_bytes = 0.0
        self.estimated_cost = 0.0
        self.node_est_rows: Dict[int, float] = {}
        self.misestimate_factor = float(misestimate_factor)
        self.misestimates: List[Dict[str, Any]] = []
        self.started = 0.0
        self.finished = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    @property
    def actual_bytes(self) -> float:
        """Bytes shipped by plan-internal flows (result delivery excluded),
        comparable to ``estimated_bytes``."""
        return sum(t.bytes for t in self.transfers if t.kind != RESULT_FLOW)

    @property
    def total_bytes(self) -> float:
        """Every byte on the wire, result delivery included."""
        return sum(t.bytes for t in self.transfers)

    def sorted_operators(self) -> List[OperatorProfile]:
        return [self.operators[k] for k in sorted(self.operators)]

    def summary_dict(self) -> Dict[str, Any]:
        """Stable flat summary — feeds ``write_bench_json(profile=...)``."""
        return {
            "operators": len(self.operators),
            "transfers": len(self.transfers),
            "estimated_bytes": float(self.estimated_bytes),
            "actual_bytes": float(self.actual_bytes),
            "canview_probes": int(self.canview_probes),
            "misestimates": len(self.misestimates),
            "elapsed": float(self.elapsed),
        }

    def _detect_misestimates(self) -> None:
        factor = self.misestimate_factor
        flagged: List[Dict[str, Any]] = []
        for transfer in self.transfers:
            if transfer.kind in (RESULT_FLOW, UNPLANNED_FLOW):
                continue
            estimate = transfer.est_bytes
            if estimate is None:
                continue
            floor = max(estimate, 1.0)
            if transfer.bytes > factor * floor:
                flagged.append(
                    {
                        "node_id": transfer.node_id,
                        "sender": transfer.sender,
                        "receiver": transfer.receiver,
                        "kind": transfer.kind,
                        "estimated_bytes": float(estimate),
                        "actual_bytes": float(transfer.bytes),
                        "ratio": round(transfer.bytes / floor, 4),
                    }
                )
        self.misestimates = flagged


class QueryProfiler:
    """Collects `QueryProfile` objects across pipeline runs.

    ``base_stats`` optionally overrides the exact per-table statistics
    the pipeline would otherwise compute for the estimate; pass the
    *static* stats a cost-aware planner used to see the planner's own
    misestimates surfaced.  ``selectivities`` (anything with a
    ``selectivity(path_key)`` method, e.g. a `StatsStore`) refines join
    cardinality estimates, so a warmed store visibly tightens the
    estimated column across repeated runs.
    """

    def __init__(
        self,
        base_stats: Optional[Mapping[str, Any]] = None,
        selectivities: Optional[Any] = None,
        misestimate_factor: float = DEFAULT_MISESTIMATE_FACTOR,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if misestimate_factor < 1.0:
            raise ReproError(
                f"misestimate factor must be >= 1, got {misestimate_factor}"
            )
        self.base_stats = dict(base_stats) if base_stats is not None else None
        self.selectivities = selectivities
        self.misestimate_factor = float(misestimate_factor)
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._clock_pinned = clock is not None
        self.profiles: List[QueryProfile] = []
        self._active: Optional[QueryProfile] = None
        self._flows: Dict[Tuple[int, str, str], List[Tuple[float, str]]] = {}

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        return float(self._clock())

    def maybe_use_clock(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` unless one was pinned explicitly — mirrors
        `TraceContext.maybe_use_clock` so pipelines bind the fault
        injector's logical clock for deterministic profiles."""
        if not self._clock_pinned:
            self._clock = clock

    # -- lifecycle -----------------------------------------------------

    @property
    def active(self) -> Optional[QueryProfile]:
        return self._active

    @property
    def last(self) -> Optional[QueryProfile]:
        return self.profiles[-1] if self.profiles else None

    def start(self, query: str = "", estimate: Optional[Any] = None) -> QueryProfile:
        """Open a profile for one run; ``estimate`` is the coster's
        `AssignmentEstimate` (or None when no plan estimate exists)."""
        profile = QueryProfile(query, self.misestimate_factor)
        profile.started = self.now()
        if estimate is not None:
            profile.estimated_bytes = float(estimate.total_bytes)
            profile.estimated_cost = float(estimate.total_cost)
            profile.node_est_rows = dict(estimate.node_rows)
            self._flows = {key: list(flows) for key, flows in estimate.flows.items()}
        else:
            self._flows = {}
        self._active = profile
        return profile

    def finish(self) -> QueryProfile:
        profile = self._require_active()
        profile.finished = self.now()
        profile._detect_misestimates()
        self.profiles.append(profile)
        self.abandon()
        return profile

    def abandon(self) -> None:
        """Drop the active profile, keeping nothing of it (the run it
        was observing failed)."""
        self._active = None
        self._flows = {}

    def _require_active(self) -> QueryProfile:
        if self._active is None:
            raise ReproError("no active profile — call start() first")
        return self._active

    # -- recording (called by ProfilerHooks) ----------------------------

    def record_operator(
        self,
        node_id: int,
        kind: str,
        server: str,
        rows: int,
        started: float,
        finished: float,
        relation: Optional[str] = None,
        path_key: Optional[str] = None,
        left_id: Optional[int] = None,
        right_id: Optional[int] = None,
    ) -> OperatorProfile:
        profile = self._require_active()
        left_rows = right_rows = selectivity = None
        if left_id is not None and left_id in profile.operators:
            left_rows = profile.operators[left_id].rows
        if right_id is not None and right_id in profile.operators:
            right_rows = profile.operators[right_id].rows
        if left_rows is not None and right_rows is not None:
            cross = left_rows * right_rows
            if cross > 0:
                selectivity = rows / cross
        record = OperatorProfile(
            node_id,
            kind,
            server,
            rows,
            est_rows=profile.node_est_rows.get(node_id),
            left_rows=left_rows,
            right_rows=right_rows,
            selectivity=selectivity,
            path_key=path_key,
            relation=relation,
            started=started,
            finished=finished,
        )
        profile.operators[node_id] = record
        return record

    def record_relation(
        self,
        name: str,
        rows: float,
        distinct: Mapping[str, float],
        widths: Mapping[str, float],
    ) -> None:
        profile = self._require_active()
        profile.relations[name] = RelationObservation(name, rows, distinct, widths)

    def record_transfer(
        self,
        node_id: int,
        sender: str,
        receiver: str,
        rows: int,
        nbytes: float,
        description: str = "",
    ) -> TransferProfile:
        profile = self._require_active()
        flows = self._flows.get((node_id, sender, receiver))
        if flows:
            est_bytes, kind = flows.pop(0)
        elif description == "result -> recipient":
            est_bytes, kind = None, RESULT_FLOW
        else:
            est_bytes, kind = None, UNPLANNED_FLOW
        record = TransferProfile(
            node_id, sender, receiver, rows, nbytes, est_bytes, kind, description
        )
        profile.transfers.append(record)
        return record

    def record_probe(self, count: int = 1) -> None:
        self._require_active().canview_probes += int(count)
