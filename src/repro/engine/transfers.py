"""Transfer records and logs.

Every cross-server communication performed by the distributed executor
is recorded as a :class:`Transfer`: who sent what to whom, the profile
of the released relation (the information-theoretic content, per
Definition 3.2), the tuple/byte volume (the cost), and — when the
transfer was permitted — the authorization that covered it (the
accountability trail).

A :class:`TransferLog` aggregates transfers for cost reporting: total
volume, per-link volume, and per-node breakdowns feed the semi-join
versus regular-join benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.authorization import Authorization
from repro.core.profile import RelationProfile


class Transfer:
    """One recorded cross-server data shipment.

    Attributes:
        sender: releasing server.
        receiver: receiving server.
        profile: profile of the shipped relation.
        row_count: number of tuples shipped.
        byte_size: payload size (see ``Table.byte_size``).
        description: human-readable step label (mirrors the Figure 5 row).
        node_id: plan node whose execution caused the shipment.
        authorized_by: the covering authorization, or ``None`` when the
            transfer was performed unaudited.
        attempts: shipment attempts made (1 for fault-free runs).
        outcomes: per-attempt statuses (``("ok",)`` for fault-free runs).
        retry_delay: total backoff time waited before delivery.
    """

    __slots__ = (
        "sender",
        "receiver",
        "profile",
        "row_count",
        "byte_size",
        "description",
        "node_id",
        "authorized_by",
        "attempts",
        "outcomes",
        "retry_delay",
    )

    def __init__(
        self,
        sender: str,
        receiver: str,
        profile: RelationProfile,
        row_count: int,
        byte_size: int,
        description: str,
        node_id: int,
        authorized_by: Optional[Authorization] = None,
        attempts: int = 1,
        outcomes: Tuple[str, ...] = ("ok",),
        retry_delay: float = 0.0,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.profile = profile
        self.row_count = row_count
        self.byte_size = byte_size
        self.description = description
        self.node_id = node_id
        self.authorized_by = authorized_by
        self.attempts = attempts
        self.outcomes = outcomes
        self.retry_delay = retry_delay

    def __repr__(self) -> str:
        return (
            f"Transfer({self.sender} -> {self.receiver}, {self.row_count} rows, "
            f"{self.byte_size} bytes, {self.description})"
        )


class TransferLog:
    """Append-only log of the transfers of one execution."""

    def __init__(self) -> None:
        self._transfers: List[Transfer] = []

    def record(self, transfer: Transfer) -> None:
        """Append one transfer."""
        self._transfers.append(transfer)

    @property
    def transfers(self) -> Tuple[Transfer, ...]:
        """All transfers, in execution order."""
        return tuple(self._transfers)

    def total_rows(self) -> int:
        """Total tuples shipped across all links."""
        return sum(t.row_count for t in self._transfers)

    def total_bytes(self) -> int:
        """Total payload bytes shipped across all links."""
        return sum(t.byte_size for t in self._transfers)

    def by_link(self) -> Dict[Tuple[str, str], int]:
        """Bytes shipped per (sender, receiver) link, sorted keys."""
        links: Dict[Tuple[str, str], int] = {}
        for transfer in self._transfers:
            key = (transfer.sender, transfer.receiver)
            links[key] = links.get(key, 0) + transfer.byte_size
        return dict(sorted(links.items()))

    def by_node(self) -> Dict[int, int]:
        """Bytes shipped per plan node."""
        nodes: Dict[int, int] = {}
        for transfer in self._transfers:
            nodes[transfer.node_id] = nodes.get(transfer.node_id, 0) + transfer.byte_size
        return dict(sorted(nodes.items()))

    def total_retries(self) -> int:
        """Failed attempts absorbed by retries across all transfers."""
        return sum(t.attempts - 1 for t in self._transfers)

    def total_retry_delay(self) -> float:
        """Total backoff time waited across all transfers."""
        return sum(t.retry_delay for t in self._transfers)

    def __len__(self) -> int:
        return len(self._transfers)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self._transfers)

    def describe(self) -> str:
        """One line per transfer plus a totals line."""
        lines = [
            f"{t.sender} -> {t.receiver}: {t.row_count} rows / {t.byte_size} B "
            f"({t.description})"
            + (f" [{t.attempts} attempts]" if t.attempts > 1 else "")
            for t in self._transfers
        ]
        lines.append(
            f"total: {self.total_rows()} rows / {self.total_bytes()} B over "
            f"{len(self._transfers)} transfers"
        )
        return "\n".join(lines)
