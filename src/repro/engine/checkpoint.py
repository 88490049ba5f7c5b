"""Checkpoint/resume: an execution journal of audited subtrees.

PR 1's failover already *reuses* completed subtrees within one
``execute`` call; this module makes that reuse survive the call.  A
:class:`CheckpointJournal` records, for an executing plan, every
completed non-leaf subtree result together with the server holding it
and the Figure 4 profile describing its information content — but only
when the holding server is authorized (Definition 3.3) to view that
profile under the executing policy.  A run killed by an exhausted
deadline budget or a tripped breaker hands the journal back on the
error; a later ``execute(..., resume_from=journal)`` pins the
checkpointed subtrees and re-executes only what is missing.

Resume is re-audited, never trusted: :meth:`CheckpointJournal.verify`
checks that the journal belongs to the same plan shape *and* that every
entry's holder may still view its profile under the *current* policy —
a rule revoked between checkpoint and restart makes resume refuse with
:class:`~repro.exceptions.CheckpointError` rather than replay a view the
policy no longer grants.  The resumed assignment then passes the same
independent verifier and runtime audit as any other (every shipment of a
checkpointed result is checked against the receiver like any transfer).

Journals serialize to plain dictionaries (see
:func:`repro.io.serialize.checkpoint_to_dict`), so the CLI can park one
in a JSON file between invocations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.algebra.tree import QueryTreePlan
from repro.core.profile import RelationProfile
from repro.engine.data import Table
from repro.exceptions import CheckpointError


def plan_signature(plan: QueryTreePlan) -> str:
    """A deterministic fingerprint of a plan's shape.

    Node ids and labels in traversal order — enough to refuse resuming a
    journal against a structurally different plan (node ids would alias
    silently otherwise).
    """
    return "|".join(f"n{node.node_id}:{node.label()}" for node in plan)


class CheckpointEntry:
    """One audited subtree result parked at a server."""

    __slots__ = ("node_id", "server", "profile", "table")

    def __init__(
        self, node_id: int, server: str, profile: RelationProfile, table: Table
    ) -> None:
        self.node_id = node_id
        self.server = server
        self.profile = profile
        self.table = table

    def __repr__(self) -> str:
        return (
            f"CheckpointEntry(n{self.node_id} @ {self.server}, "
            f"{len(self.table)} rows)"
        )


class CheckpointJournal:
    """Completed, authorization-audited subtrees of one plan.

    Args:
        signature: the owning plan's :func:`plan_signature`.
        entries: optional initial entries (used by deserialization).
    """

    __slots__ = ("_signature", "_entries", "_trace")

    def __init__(
        self, signature: str, entries: Iterable[CheckpointEntry] = ()
    ) -> None:
        self._signature = signature
        self._entries: Dict[int, CheckpointEntry] = {}
        self._trace = None
        for entry in entries:
            self._entries[entry.node_id] = entry

    def bind_trace(self, trace) -> None:
        """Attach a :class:`~repro.obs.trace.TraceContext`; records and
        verifications then emit ``checkpoint_*`` events and counters."""
        self._trace = trace

    @classmethod
    def for_plan(cls, plan: QueryTreePlan) -> "CheckpointJournal":
        """A fresh journal bound to ``plan``."""
        return cls(plan_signature(plan))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def signature(self) -> str:
        """The owning plan's fingerprint."""
        return self._signature

    def record(
        self, node_id: int, server: str, profile: RelationProfile, table: Table
    ) -> None:
        """Journal one completed subtree (later results overwrite)."""
        self._entries[node_id] = CheckpointEntry(node_id, server, profile, table)
        if self._trace is not None:
            self._trace.count("repro_checkpoints_recorded_total", server=server)
            self._trace.event(
                "checkpoint_record", "checkpoint", node=f"n{node_id}",
                server=server, rows=len(table),
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CheckpointEntry]:
        for node_id in sorted(self._entries):
            yield self._entries[node_id]

    def entries(self) -> List[CheckpointEntry]:
        """All entries, by node id."""
        return list(self)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def verify(self, policy, plan: QueryTreePlan) -> None:
        """Re-audit the journal against the current plan and policy.

        Raises:
            CheckpointError: on a plan-shape mismatch, or when any
                entry's holding server is no longer authorized for the
                view it holds (a rule was revoked since the checkpoint) —
                resume must refuse, not replay.
        """
        if self._trace is not None:
            self._trace.event(
                "checkpoint_verify", "checkpoint", entries=len(self._entries)
            )
        current = plan_signature(plan)
        if current != self._signature:
            raise CheckpointError(
                "checkpoint journal belongs to a different plan shape; "
                "refusing to resume (checkpointed "
                f"{self._signature!r}, current {current!r})"
            )
        for entry in self:
            if not policy.can_view(entry.profile, entry.server):
                if self._trace is not None:
                    self._trace.count("repro_checkpoint_verify_failures_total")
                raise CheckpointError(
                    f"authorization for checkpointed subtree n{entry.node_id} "
                    f"at {entry.server} is no longer granted by the current "
                    "policy; refusing to resume from this checkpoint"
                )
        if self._trace is not None:
            self._trace.count("repro_checkpoints_verified_total", len(self._entries))

    def pinned(self, excluded: Iterable[str] = ()) -> Dict[int, str]:
        """``node_id -> server`` pins for the planner, skipping entries
        whose holder is excluded (crashed or quarantined)."""
        barred = frozenset(excluded)
        return {
            entry.node_id: entry.server
            for entry in self
            if entry.server not in barred
        }

    def reuse_tables(self) -> Dict[int, Table]:
        """``node_id -> result`` for the executor's reuse map."""
        return {entry.node_id: entry.table for entry in self}

    def describe(self) -> str:
        """One line per entry."""
        if not self._entries:
            return "(empty journal)"
        return "\n".join(
            f"n{entry.node_id} @ {entry.server}: {len(entry.table)} rows, "
            f"{entry.profile}"
            for entry in self
        )

    def __repr__(self) -> str:
        return f"CheckpointJournal({len(self._entries)} entries)"
