"""Open-policy variant (footnote 1).

The paper assumes a closed policy but notes the approach "can be adapted
to an open policy scenario, where data are visible by default and
negative rules specify restrictions".  This module provides that
adaptation: an :class:`OpenPolicy` holds *denials* of the same
``[Attributes, JoinPath] -> Server`` shape and answers
``can_view(profile, server)`` like a closed policy, making it a drop-in
policy for the planner, the verifier and the engine.

Denial semantics (our interpretation — the paper defers to [17] without
details, so we pick the natural dual of Definition 3.3 and document it):
a denial ``[A, J] -x-> S`` blocks the release of a relation with profile
:math:`[R^\\pi, R^\\bowtie, R^\\sigma]` to ``S`` iff

1. :math:`(R^\\pi \\cup R^\\sigma) \\cap A \\neq \\emptyset` — the view
   exposes at least one denied attribute, and
2. :math:`J \\subseteq R^\\bowtie` — the view embodies at least the denied
   association (an empty ``J`` therefore denies the attributes in every
   context).

Clause 2 is a containment rather than Definition 3.3's equality because
denials and grants dualize differently: a grant for a *specific*
association must not leak stronger associations (hence equality), while
a denial of an association must also block every view that *refines* it
(hence containment) — otherwise adding an extra join condition would
launder a forbidden association.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.authorization import Authorization
from repro.core.profile import RelationProfile
from repro.exceptions import PolicyError


class Denial(Authorization):
    """A negative rule; structurally identical to an authorization."""

    def __repr__(self) -> str:
        base = super().__repr__()
        return base.replace(" -> ", " -x-> ")

    __str__ = __repr__


class OpenPolicy:
    """Default-allow policy restricted by denials.

    Iteration and :meth:`denials_for` follow insertion order per server.
    """

    def __init__(self, denials: Iterable[Denial] = ()) -> None:
        self._by_server: Dict[str, List[Denial]] = {}
        self._all: set = set()
        for denial in denials:
            self.deny(denial)

    def deny(self, denial: Denial) -> None:
        """Add one denial.

        Raises:
            PolicyError: on a duplicate or a non-:class:`Denial` rule.
        """
        if not isinstance(denial, Denial):
            raise PolicyError("open policies contain Denial objects")
        if denial in self._all:
            raise PolicyError(f"duplicate denial: {denial}")
        self._all.add(denial)
        self._by_server.setdefault(denial.server, []).append(denial)

    def denials_for(self, server: str) -> Tuple[Denial, ...]:
        """All denials targeting ``server``."""
        return tuple(self._by_server.get(server, ()))

    def blocking_denials(
        self, profile: RelationProfile, server: str
    ) -> List[Denial]:
        """The denials that block releasing ``profile`` to ``server``."""
        blocked = []
        for denial in self.denials_for(server):
            exposes_denied = bool(profile.exposed_attributes & denial.attributes)
            embodies_association = denial.join_path.issubset(profile.join_path)
            if exposes_denied and embodies_association:
                blocked.append(denial)
        return blocked

    def can_view(self, profile: RelationProfile, server: str) -> bool:
        """Whether ``server`` may view ``profile`` (default allow)."""
        return not self.blocking_denials(profile, server)

    def servers(self) -> List[str]:
        """All servers targeted by at least one denial, sorted."""
        return sorted(self._by_server)

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Denial]:
        for server in sorted(self._by_server):
            yield from self._by_server[server]

    def __repr__(self) -> str:
        return f"OpenPolicy({len(self._all)} denials, servers={self.servers()})"

    def describe(self) -> str:
        """One denial per line."""
        return "\n".join(str(d) for d in self)
