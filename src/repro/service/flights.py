"""The service's flights and the priority queue their leaders wait in.

The first request of a flight key
(:meth:`~repro.service.runner.RequestRunner.flight_key`) opens the
flight and queues as its leader; an identical request *attaches*,
taking no queue slot.  A flight queues at the priority of its most
urgent request: a raise queues a fresh entry and leaves the old one
*stale*, skipped when dequeued.  :class:`Flights` owns this
bookkeeping and keeps its invariant: :meth:`Flights.depth` is the
queued live leaders plus the attached followers, and no stale entry
reaches a worker.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterator, List, Optional


class WorkItem:
    """One admitted request: its flight's leader (queued for a worker)
    or a follower awaiting its own future beside the leader."""

    __slots__ = (
        "query", "recipient", "ticket", "future", "submitted_at",
        "request_id", "key", "retries", "checkpoint", "entry",
    )

    def __init__(
        self, query, recipient, ticket, future, submitted_at, request_id, key
    ) -> None:
        self.query = query
        self.recipient = recipient
        self.ticket = ticket
        self.future = future
        self.submitted_at = submitted_at
        self.request_id = request_id
        self.key = key
        self.retries = 0
        # Completed, audited subtrees an interrupted attempt parked for
        # the retry to resume from.
        self.checkpoint = None
        # ``(rank, seq)`` of the item's live queue entry; ``None`` while
        # it is not queued.  Read and written by :class:`Flights` only.
        self.entry = None


class Flights:
    """The open flights and their leaders' priority queue; ``hooks``
    (the service's listener) hears every flight opened and handed
    over."""

    def __init__(self, hooks) -> None:
        self._hooks = hooks
        self._queue: Optional[asyncio.PriorityQueue] = None
        # Open flights: key -> [leader, *followers in admission order].
        self._flights: Dict[tuple, List[WorkItem]] = {}
        self._attached = 0
        # Queue entries a priority raise left behind (skipped when
        # dequeued, not counted as waiting).
        self._stale = 0
        self._seq = 0
        self._promotions = 0

    def start(self) -> None:
        """A fresh, empty queue (each service start gets one)."""
        self._queue = asyncio.PriorityQueue()

    @property
    def promotions(self) -> int:
        """Flights a leader handed to a follower."""
        return self._promotions

    def depth(self) -> int:
        """Admitted requests waiting: queued leaders and the followers
        attached to their flights (0 before the first start)."""
        if self._queue is None:
            return 0
        return self._queue.qsize() - self._stale + self._attached

    def join(self, item: WorkItem, priority: int) -> None:
        """Open ``item``'s flight and queue it as the leader, or attach
        it to the open one; a queued leader inherits the priority of the
        most urgent request waiting on it."""
        flight = self._flights.get(item.key)
        if flight is None:
            self._flights[item.key] = [item]
            self._hooks.flight_lead(item.key)
            self._enqueue(item, priority)
            return
        flight.append(item)
        self._attached += 1
        leader = flight[0]
        if leader.entry is not None and -leader.entry[0] < priority:
            self._enqueue(leader, priority)

    async def next(self) -> Optional[WorkItem]:
        """The next queued leader, or ``None`` for a stale entry; every
        call is paired with one :meth:`task_done`."""
        return self._live(await self._queue.get())

    def task_done(self) -> None:
        self._queue.task_done()

    async def drained(self) -> None:
        """Wait until every queued entry was taken and done."""
        if self._queue is not None:
            await self._queue.join()

    def followers(self, leader: WorkItem) -> List[WorkItem]:
        """The requests attached to ``leader``'s flight, in admission
        order (a copy)."""
        return self._flights[leader.key][1:]

    def successor(self, leader: WorkItem) -> Optional[WorkItem]:
        """The follower that would lead ``leader``'s flight next."""
        flight = self._flights[leader.key]
        return flight[1] if len(flight) > 1 else None

    def drop(self, follower: WorkItem) -> None:
        """Detach a follower resolved on its own (an overdue shed)."""
        self._flights[follower.key].remove(follower)
        self._attached -= 1

    def requeue(self, leader: WorkItem) -> None:
        """Queue a flight's (new) leader at the highest priority among
        the flight's requests."""
        flight = self._flights[leader.key]
        self._enqueue(leader, max(item.ticket.tenant.priority for item in flight))

    def hand_over(self, leader: WorkItem, follow: bool = False) -> None:
        """``leader`` left its flight by its own fate (a deadline shed,
        spent chaos attempts, shutdown): the first follower leads it from
        here.  With ``follow`` the old leader re-attaches at the tail
        first, so the promoted leader queues at its priority too."""
        flight = self._flights[leader.key]
        if follow:
            flight.append(leader)
            self._attached += 1
        del flight[0]
        if not flight:
            del self._flights[leader.key]
            return
        self._attached -= 1
        self._promotions += 1
        self._hooks.flight_promote(leader.key)
        self.requeue(flight[0])

    def close(self, leader: WorkItem) -> List[WorkItem]:
        """End ``leader``'s flight; returns its requests, leader first."""
        flight = self._flights.pop(leader.key)
        self._attached -= len(flight) - 1
        return flight

    def unqueue(self) -> Iterator[WorkItem]:
        """Take every live leader left in the queue, in queue order,
        once the workers are gone.  A leader the caller hands over
        queues its successor, which this yields in turn."""
        while not self._queue.empty():
            leader = self._live(self._queue.get_nowait())
            try:
                if leader is not None:
                    yield leader
            finally:
                self._queue.task_done()

    def clear(self) -> None:
        """Forget every open flight (a killed service's journal owns
        them now)."""
        self._flights.clear()
        self._attached = 0

    def _enqueue(self, leader: WorkItem, priority: int) -> None:
        """Queue ``leader`` at ``priority``; an entry it already had is
        left behind, stale."""
        if leader.entry is not None:
            self._stale += 1
        self._seq += 1
        # Higher priority first; FIFO within a priority class.  ``seq``
        # is unique, so entries never compare their items.
        leader.entry = (-priority, self._seq)
        self._queue.put_nowait((-priority, self._seq, leader))

    def _live(self, entry) -> Optional[WorkItem]:
        """The leader a dequeued entry carries, or ``None`` when a
        priority raise superseded the entry."""
        rank, seq, leader = entry
        if leader.entry != (rank, seq):
            self._stale -= 1
            return None
        leader.entry = None
        return leader
