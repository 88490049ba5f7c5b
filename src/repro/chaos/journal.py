"""The crash-consistent service journal.

A :class:`ServiceJournal` is the write-ahead log that makes a
:class:`~repro.service.service.QueryService` recoverable: *before* a
request enters the queue the service journals its admission (tenant,
query, recipient, the policy epoch in force), and when the request
reaches a terminal outcome the service journals completion.  Between
the two, a chaos-interrupted execution may park its completed, audited
checkpoint subtrees (the PR 3
:class:`~repro.engine.checkpoint.CheckpointJournal`) on the entry.

After a crash — :meth:`QueryService.kill` in the chaos harness, a
process death in production — a fresh service constructed over the same
journal replays *nothing blindly*:

* entries journaled **completed** are never re-executed (no duplicated
  transfers, no double answers);
* entries journaled **admitted but incomplete** are re-verified against
  the *current* policy epoch: the query replans through the live plan
  cache, any parked checkpoint subtrees re-audit via
  :meth:`CheckpointJournal.verify` (a revoked rule refuses the subtree
  rather than replaying a view the policy no longer grants), and the
  request resumes — or structurally rejects with a
  ``recovery-rejected`` :class:`~repro.service.admission.Rejection`.
  Either way the submitter's future resolves: no hangs.

The journal serializes to a plain dictionary
(:func:`repro.io.serialize.service_journal_to_dict`) so crash
consistency can be proven across a real process boundary: every test
round-trips the journal through JSON before recovering from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exceptions import ReproError
from repro.obs.hooks import ServiceHooks

#: Journal entry states.
ADMITTED = "admitted"
COMPLETED = "completed"


class JournalError(ReproError):
    """Misuse of the service journal (unknown request id, ...)."""


class JournalEntry:
    """One admitted request's durable state.

    Attributes:
        request_id: the service-assigned id (journal-unique).
        tenant: submitting tenant's name.
        query: SQL text or a bound
            :class:`~repro.algebra.builder.QuerySpec`.
        recipient: optional final consumer of the result.
        admitted_epoch: policy epoch at admission — recovery compares
            it against the *current* epoch and always re-verifies.
        state: :data:`ADMITTED` or :data:`COMPLETED`.
        outcome_status: terminal status once completed.
        checkpoint: optional
            :class:`~repro.engine.checkpoint.CheckpointJournal` of
            completed subtrees parked by an interrupted execution.
        attempts: chaos-interrupt requeues this request survived.
        future: the submitter's pending ``asyncio.Future`` (transient —
            never serialized; present only for same-process recovery).
    """

    __slots__ = (
        "request_id", "tenant", "query", "recipient", "admitted_epoch",
        "state", "outcome_status", "checkpoint", "attempts", "future",
    )

    def __init__(
        self,
        request_id: int,
        tenant: str,
        query,
        recipient: Optional[str],
        admitted_epoch: int,
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.query = query
        self.recipient = recipient
        self.admitted_epoch = admitted_epoch
        self.state = ADMITTED
        self.outcome_status: Optional[str] = None
        self.checkpoint = None
        self.attempts = 0
        self.future = None

    @property
    def complete(self) -> bool:
        """Whether a terminal outcome was journaled."""
        return self.state == COMPLETED

    def __repr__(self) -> str:
        return (
            f"JournalEntry(#{self.request_id} {self.tenant} "
            f"{self.state}{':' + self.outcome_status if self.outcome_status else ''})"
        )


class ServiceJournal(ServiceHooks):
    """Write-ahead admitted/completed state for one service lineage.

    One journal outlives service instances: the chaos harness threads
    the same journal through every kill/restart cycle, exactly as a
    production deployment would re-open the same WAL file.  It is a
    service listener (``QueryService(journal=...)``), heard first: its
    :meth:`admit` issues the lineage's request ids.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, JournalEntry] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[JournalEntry]:
        """All entries, in admission order."""
        return [self._entries[rid] for rid in sorted(self._entries)]

    def get(self, request_id: int) -> JournalEntry:
        """The entry for ``request_id``.

        Raises:
            JournalError: unknown id.
        """
        entry = self._entries.get(request_id)
        if entry is None:
            raise JournalError(f"unknown journal request id {request_id}")
        return entry

    # ------------------------------------------------------------------
    # The write-ahead surface (the service's listener events)
    # ------------------------------------------------------------------

    def admit(
        self,
        tenant: str,
        query,
        recipient: Optional[str],
        epoch: int,
        future=None,
        request_id=None,
    ) -> int:
        """Journal one admission *before* the request queues; returns
        the assigned request id."""
        request_id = self._next_id
        self._next_id += 1
        entry = JournalEntry(request_id, tenant, query, recipient, epoch)
        entry.future = future
        self._entries[request_id] = entry
        return request_id

    def restore(self, entry: JournalEntry) -> None:
        """Reattach a deserialized entry under its original id
        (deserialization only — ids must not collide)."""
        if entry.request_id in self._entries:
            raise JournalError(
                f"journal already holds request id {entry.request_id}"
            )
        self._entries[entry.request_id] = entry
        self._next_id = max(self._next_id, entry.request_id + 1)

    def requeue(self, request_id: int, checkpoint) -> None:
        """Count one chaos-interrupted attempt and park the completed
        subtrees the retry will resume from (``None``: from scratch)."""
        entry = self.get(request_id)
        entry.checkpoint = checkpoint
        entry.attempts += 1

    def resolve(self, request_id: int, outcome) -> None:
        """Journal a terminal outcome; the entry will never replay."""
        entry = self.get(request_id)
        entry.state = COMPLETED
        entry.outcome_status = outcome.status

    # ------------------------------------------------------------------
    # Recovery queries
    # ------------------------------------------------------------------

    def incomplete(self) -> List[JournalEntry]:
        """Entries admitted but never completed, in admission order —
        exactly the set a restarted service must resume or reject."""
        return [entry for entry in self.entries() if not entry.complete]

    def counts(self) -> Dict[str, int]:
        """``{admitted, completed, incomplete}`` totals."""
        completed = sum(1 for e in self._entries.values() if e.complete)
        return {
            "admitted": len(self._entries),
            "completed": completed,
            "incomplete": len(self._entries) - completed,
        }

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"ServiceJournal({counts['admitted']} admitted, "
            f"{counts['completed']} completed)"
        )
