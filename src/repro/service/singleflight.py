"""Single-flight coalescing of concurrent identical requests.

:class:`SingleFlight` turns N concurrent callers of one key into one
*leader* (who computes) and N - 1 *followers* (who await the leader's
future and receive its result, or its exception).  Keys are
caller-chosen.  The service keys each request on its planning
fingerprint, recipient, whether the run is profiled, and the policy
epoch, and the leader plans, executes and audits the whole request, so
followers share one audited run: they neither plan nor build a
pipeline.

Safety note: a flight shares a run only among requests keyed on the
same policy epoch.  The leader plans through the plan cache's epoch
probe and verifies against the policy in force when it runs, and every
transfer it ships is audited; a request keyed after a grant or revoke
carries the new epoch and never joins an older flight.  Planning needs no
flight of its own: it never awaits, so the first request of a
fingerprint fills the plan cache before any other request can look.

Leader cancellation: a leader whose ``compute`` is cancelled (a client
disconnect, a chaos-injected crash) does *not* fail its followers.
The cancellation is the leader's private fate; the first waiting
follower is promoted to re-run the flight and the rest keep waiting on
the promoted leader.  Only a non-cancellation error propagates to every
waiter — those are properties of the computation, not of the caller.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Tuple

#: Sentinel resolved into a cancelled leader's future: waiting
#: followers interpret it as "the leader died without an answer —
#: promote yourself and re-run the flight".
_RERUN = object()


class SingleFlight:
    """Per-key coalescing of concurrent async computations.

    Args:
        hooks: the service's listener
            (:class:`~repro.obs.hooks.ServiceHooks`):
            ``flight_lead(key)`` fires as every leader starts computing,
            preceded by ``flight_promote(key)`` when that leader is a
            follower taking over a cancelled leader's flight.
    """

    def __init__(self, hooks) -> None:
        self._inflight: Dict[object, "asyncio.Future"] = {}
        self._hooks = hooks
        self._leads = 0
        self._followers = 0
        self._promotions = 0

    @property
    def leads(self) -> int:
        """Computations actually run (leaders)."""
        return self._leads

    @property
    def followers(self) -> int:
        """Requests served by another request's computation."""
        return self._followers

    @property
    def promotions(self) -> int:
        """Followers promoted to leader after a leader cancellation."""
        return self._promotions

    async def run(
        self, key: object, compute: Callable[[], Awaitable[object]]
    ) -> Tuple[object, bool]:
        """``(result, coalesced)`` for ``key``.

        The first caller for a key becomes the leader and awaits
        ``compute()``; concurrent callers for the same key park on the
        leader's future and receive the same result (or the same
        exception) with ``coalesced=True``.  The key is released once
        the leader resolves, so later calls compute afresh — the plan
        cache, not this class, is the long-term memo.

        A *cancelled* leader promotes a waiting follower instead of
        failing the herd: the follower re-runs ``compute`` (its own
        ``compute`` — computations for one key are interchangeable by
        construction) and the remaining waiters follow the new leader.
        The cancellation still propagates to the original leader.
        """
        promoted = False
        while True:
            existing = self._inflight.get(key)
            if existing is not None:
                self._followers += 1
                result = await asyncio.shield(existing)
                if result is _RERUN:
                    # The leader was cancelled mid-flight.  Its future
                    # resolved every waiter with the sentinel; whichever
                    # waiter wakes first re-enters the loop, finds the
                    # key free and leads — the rest park behind it.
                    self._followers -= 1
                    promoted = True
                    continue
                return result, True
            loop = asyncio.get_running_loop()
            future: "asyncio.Future" = loop.create_future()
            self._inflight[key] = future
            self._leads += 1
            if promoted:
                self._promotions += 1
                self._hooks.flight_promote(key)
            self._hooks.flight_lead(key)
            try:
                result = await compute()
            except asyncio.CancelledError:
                # The leader's cancellation is not the followers'
                # problem: hand the flight to the first waiter instead
                # of failing the herd, then let the cancellation keep
                # propagating to this (former) leader's caller.
                if not future.done():
                    future.set_result(_RERUN)
                raise
            except BaseException as error:  # noqa: BLE001 - propagated to waiters
                if not future.done():
                    future.set_exception(error)
                # A future whose exception is never retrieved warns at GC;
                # every follower retrieves it, but with zero followers we
                # must mark it retrieved ourselves.
                future.exception()
                raise
            else:
                if not future.done():
                    future.set_result(result)
                return result, False
            finally:
                if self._inflight.get(key) is future:
                    del self._inflight[key]
