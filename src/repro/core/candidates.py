"""Candidate bookkeeping for the safe planner (Figure 6).

``Find_candidates`` associates with every node a list of records
``[server, fromchild, counter]``: a server that could act as master for
the node's operation, the child subtree its copy of the data would come
from, and the number of joins in the subtree for which it is a
candidate.  The counter implements the paper's second cost principle —
*prefer the server involved in the most join operations* — and the list
is consumed in decreasing counter order (``GetFirst``).

Beyond the paper's record we keep one extra field, ``mode``: whether the
candidate was admitted by the semi-join master check or by the
regular-join check.  Figure 6's ``Assign_ex`` unconditionally pairs a
chosen master with the recorded slave, which would silently turn a
candidate verified only for a *regular* join into the master of a
*semi-join* — a different (unchecked) set of exposed views.  Recording
the admission mode preserves safety without changing the algorithm's
search behaviour; semi-join admission is attempted first, consistent
with the paper's stated preference for semi-joins.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.exceptions import PlanError

#: ``fromchild`` values.
FROM_LEFT = "left"
FROM_RIGHT = "right"
FROM_LEAF = "-"

#: Admission modes.
MODE_LEAF = "leaf"
MODE_UNARY = "unary"
MODE_SEMI = "semi"
MODE_REGULAR = "regular"
MODE_THIRD_PARTY = "third-party"
#: A node whose result is already materialized at a server (failover
#: re-planning reuses completed subtrees; no flow happens below it).
MODE_PINNED = "pinned"


class Candidate:
    """One candidate record ``[server, fromchild, counter]`` (+ mode)."""

    __slots__ = ("server", "from_child", "count", "mode")

    def __init__(self, server: str, from_child: str, count: int, mode: str) -> None:
        if from_child not in (FROM_LEFT, FROM_RIGHT, FROM_LEAF):
            raise PlanError(f"invalid fromchild: {from_child!r}")
        if mode not in (
            MODE_LEAF,
            MODE_UNARY,
            MODE_SEMI,
            MODE_REGULAR,
            MODE_THIRD_PARTY,
            MODE_PINNED,
        ):
            raise PlanError(f"invalid candidate mode: {mode!r}")
        if count < 0:
            raise PlanError("candidate counter cannot be negative")
        self.server = server
        self.from_child = from_child
        self.count = count
        self.mode = mode

    def propagated(self, from_child: str, count: int, mode: str) -> "Candidate":
        """A copy of this candidate as seen by the parent node."""
        return Candidate(self.server, from_child, count, mode)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Candidate):
            return NotImplemented
        return (
            self.server == other.server
            and self.from_child == other.from_child
            and self.count == other.count
            and self.mode == other.mode
        )

    def __hash__(self) -> int:
        return hash((self.server, self.from_child, self.count, self.mode))

    def __repr__(self) -> str:
        return f"[{self.server}, {self.from_child}, {self.count}]"


class CandidateList:
    """An ordered candidate list consumed in decreasing counter order.

    Insertion is stable within equal counters, so traversal order (and
    therefore planning) is fully deterministic.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[List[Candidate]] = None) -> None:
        self._items: List[Candidate] = []
        for item in items or []:
            self.add(item)

    def add(self, candidate: Candidate) -> None:
        """Insert keeping the list sorted by decreasing counter (stable).

        Binary search for the insertion point: a new candidate lands
        *after* every existing candidate of equal or higher counter, so
        equal-counter candidates keep insertion order (stability is what
        makes planning fully deterministic).
        """
        items = self._items
        count = candidate.count
        lo, hi = 0, len(items)
        while lo < hi:
            mid = (lo + hi) // 2
            if items[mid].count >= count:
                lo = mid + 1
            else:
                hi = mid
        items.insert(lo, candidate)

    def get_first(self) -> Optional[Candidate]:
        """The paper's ``GetFirst``: highest-counter candidate, or None."""
        return self._items[0] if self._items else None

    def search(self, server: str) -> Optional[Candidate]:
        """The paper's ``Search``: first candidate of ``server``, or None."""
        for candidate in self._items:
            if candidate.server == server:
                return candidate
        return None

    def in_count_order(self) -> Iterator[Candidate]:
        """Candidates in decreasing counter order (the consumption order
        of ``Find_candidates``'s slave search and master loops)."""
        return iter(self._items)

    def servers(self) -> List[str]:
        """Candidate server names in list order (may repeat)."""
        return [c.server for c in self._items]

    def is_empty(self) -> bool:
        """Whether no candidate exists (the node is not executable)."""
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._items)

    def __repr__(self) -> str:
        return "CandidateList(" + ", ".join(repr(c) for c in self._items) + ")"
