"""Deterministic, seed-driven chaos schedules for the service layer.

:class:`ChaosSchedule` extends the PR 1
:class:`~repro.distributed.faults.FaultInjector` — so it slots into
every ``faults=`` parameter in the stack (pipelines run their resilient
path, deadlines and checkpoints account in its logical clock) — with
*service-level* chaos the wire-level injector cannot express:

========================  ==================================================
event                     hook (``fire`` point)
========================  ==================================================
clock jump                ``POINT_SUBMIT`` — the logical clock leaps forward
policy grant/revoke storm ``POINT_SUBMIT`` — the service applies the toggles
admission-queue stall     ``POINT_WORKER`` — a worker yields N event-loop
                          turns before touching its item
worker death mid-query    ``POINT_EXECUTE`` — the pipeline raises
                          :class:`~repro.exceptions.ChaosInterrupt`, before
                          (``pre``) or after (``post``) the execution body
flight leader crash       ``POINT_LEADER`` — the leader raises a chaos-tagged
                          ``asyncio.CancelledError`` before its run and is
                          requeued, its followers still attached
service kill/restart      polled by the driver via :meth:`kill_due`
========================  ==================================================

Chaos draws come from a *separate* seeded RNG, so adding service-level
chaos never perturbs the base class's transfer-drop sequence — a wire
schedule stays bit-identical whether or not service chaos rides along.
Every injected event is appended to :meth:`event_log` with the logical
clock at injection; two runs with the same seed and the same request
sequence produce identical logs, which is what makes one-command
violation replay possible (see ``docs/chaos.md``).
"""

from __future__ import annotations

import asyncio
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distributed.faults import FaultInjector
from repro.distributed.network import NetworkModel
from repro.exceptions import ChaosError, ChaosInterrupt
from repro.obs.hooks import ServiceHooks

#: Hook points, in request-lifecycle order.
POINT_SUBMIT = "submit"
POINT_WORKER = "worker"
POINT_LEADER = "leader"
POINT_EXECUTE = "execute"

_POINTS = (POINT_SUBMIT, POINT_WORKER, POINT_LEADER, POINT_EXECUTE)

#: Salt xored into the chaos RNG seed so chaos draws and the base
#: class's drop draws are decorrelated even for seed 0.
_CHAOS_SALT = 0x5EED_C4A0


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ChaosError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class ChaosSchedule(FaultInjector, ServiceHooks):
    """A seeded service-level chaos schedule.

    It is the injector of every pipeline the service runs (``faults=``
    and the ``execute`` point's ``chaos=``) and a service listener whose
    ``submit`` / ``worker`` / ``leader`` events fire those points.

    Args:
        seed: seeds both the base injector's drop RNG and (salted) the
            chaos-event RNG; same seed + same request sequence replays
            the same events.
        network / drop_probability: passed through to
            :class:`~repro.distributed.faults.FaultInjector`.
        cancel_probability: per-execution chance that the worker "dies"
            mid-query (a :class:`~repro.exceptions.ChaosInterrupt` from
            the pipeline hook).  Each execution draws twice — once
            before the body (``pre``: nothing ran) and once after it
            (``post``: the run completed but its completion was never
            recorded, the crash-consistency window).
        leader_crash_probability: per-run chance that a flight leader
            crashes before its run (exercises the requeue that keeps the
            flight open and, past ``max_chaos_retries``, the give-up
            that hands the flight to a follower).
        stall_probability: per-dequeue chance that a worker stalls
            (only leaders are dequeued; followers wait on their flight).
        stall_ticks: event-loop turns a stalled worker yields.
        storm_probability: per-submit chance of a policy grant/revoke
            storm step.
        storm_rules: the :class:`~repro.core.authorization.Authorization`
            rules the storm toggles (each step grants a currently
            revoked rule or revokes a currently granted one).
        clock_jump_probability: per-submit chance the logical clock
            leaps forward.
        clock_jump: the leap size (logical clock units).
        kill_every: kill/restart the service after every N submissions
            (``None`` disables kill points).
        max_kills: cap on kill points (``None``: unlimited).
    """

    def __init__(
        self,
        seed: int = 0,
        network: Optional[NetworkModel] = None,
        drop_probability: float = 0.0,
        cancel_probability: float = 0.0,
        leader_crash_probability: float = 0.0,
        stall_probability: float = 0.0,
        stall_ticks: int = 3,
        storm_probability: float = 0.0,
        storm_rules: Sequence[object] = (),
        clock_jump_probability: float = 0.0,
        clock_jump: float = 0.0,
        kill_every: Optional[int] = None,
        max_kills: Optional[int] = None,
    ) -> None:
        super().__init__(
            seed=seed, network=network, drop_probability=drop_probability
        )
        self.cancel_probability = _check_probability(
            "cancel_probability", cancel_probability
        )
        self.leader_crash_probability = _check_probability(
            "leader_crash_probability", leader_crash_probability
        )
        self.stall_probability = _check_probability(
            "stall_probability", stall_probability
        )
        self.storm_probability = _check_probability(
            "storm_probability", storm_probability
        )
        self.clock_jump_probability = _check_probability(
            "clock_jump_probability", clock_jump_probability
        )
        if stall_ticks < 0:
            raise ChaosError(f"stall_ticks cannot be negative, got {stall_ticks}")
        if clock_jump < 0:
            raise ChaosError(f"clock_jump cannot be negative, got {clock_jump}")
        if kill_every is not None and kill_every < 1:
            raise ChaosError(f"kill_every must be >= 1, got {kill_every}")
        if max_kills is not None and max_kills < 0:
            raise ChaosError(f"max_kills cannot be negative, got {max_kills}")
        if storm_probability > 0.0 and not storm_rules:
            raise ChaosError("storm_probability > 0 requires storm_rules")
        self.stall_ticks = int(stall_ticks)
        self.clock_jump = float(clock_jump)
        self.kill_every = kill_every
        self.max_kills = max_kills
        self.storm_rules = tuple(storm_rules)
        self._chaos_rng = Random(seed ^ _CHAOS_SALT)
        self._granted: List[bool] = [False] * len(self.storm_rules)
        self._events: List[Dict[str, object]] = []
        self._submissions = 0
        self._kills = 0
        self._since_kill = 0

    # ------------------------------------------------------------------
    # The event surface
    # ------------------------------------------------------------------

    def fire(self, point: str, **info) -> Dict[str, object]:
        """Evaluate every chaos draw registered at ``point``.

        Returns a dict of *actions the caller must apply*:

        * ``"stall"`` (int) — event-loop turns to yield before
          proceeding (``POINT_WORKER``);
        * ``"storm"`` (list of ``(op, rule)`` with ``op`` in
          ``{"grant", "revoke"}``) — policy toggles to apply through
          the service's churn API (``POINT_SUBMIT``).

        Raises:
            ChaosInterrupt: at ``POINT_EXECUTE`` when the worker-death
                draw fires (``info["stage"]`` tags ``pre``/``post``).
            asyncio.CancelledError: at ``POINT_LEADER`` when the
                leader-crash draw fires; the error carries a ``chaos``
                attribute so the service can tell an injected crash
                from a real shutdown cancellation.
            ChaosError: for an unknown hook point.
        """
        if point not in _POINTS:
            raise ChaosError(f"unknown chaos point {point!r}")
        actions: Dict[str, object] = {}
        if point == POINT_SUBMIT:
            self._submissions += 1
            self._since_kill += 1
            if (
                self.clock_jump_probability > 0.0
                and self._chaos_rng.random() < self.clock_jump_probability
            ):
                self._clock += self.clock_jump
                self._record("clock-jump", point, jump=self.clock_jump)
            if (
                self.storm_probability > 0.0
                and self._chaos_rng.random() < self.storm_probability
            ):
                index = self._chaos_rng.randrange(len(self.storm_rules))
                op = "revoke" if self._granted[index] else "grant"
                self._granted[index] = not self._granted[index]
                self._record("policy-storm", point, op=op, rule=index)
                actions["storm"] = [(op, self.storm_rules[index])]
        elif point == POINT_WORKER:
            if (
                self.stall_probability > 0.0
                and self._chaos_rng.random() < self.stall_probability
            ):
                self._record("stall", point, ticks=self.stall_ticks)
                actions["stall"] = self.stall_ticks
        elif point == POINT_LEADER:
            if (
                self.leader_crash_probability > 0.0
                and self._chaos_rng.random() < self.leader_crash_probability
            ):
                self._record("leader-crash", point)
                error = asyncio.CancelledError(
                    "chaos: single-flight leader crashed mid-flight"
                )
                error.chaos = {"point": point, "clock": self._clock}
                raise error
        elif point == POINT_EXECUTE:
            stage = str(info.get("stage", "pre"))
            if (
                self.cancel_probability > 0.0
                and self._chaos_rng.random() < self.cancel_probability
            ):
                self._record("worker-death", point, stage=stage)
                raise ChaosInterrupt(
                    f"chaos: worker died mid-query ({stage}-execution)",
                    point=point,
                    stage=stage,
                )
        return actions

    def submit(self):
        return self.fire(POINT_SUBMIT).get("storm", ())

    def worker(self) -> int:
        return self.fire(POINT_WORKER).get("stall", 0)

    def leader(self) -> None:
        self.fire(POINT_LEADER)

    def kill_due(self) -> bool:
        """Whether a service kill/restart point is due (consuming).

        The driver polls this between submissions; ``True`` means "kill
        the service now" and resets the per-kill submission counter, so
        each window of ``kill_every`` submissions ends in at most one
        kill.  Respects ``max_kills``.
        """
        if self.kill_every is None:
            return False
        if self.max_kills is not None and self._kills >= self.max_kills:
            return False
        if self._since_kill < self.kill_every:
            return False
        self._kills += 1
        self._since_kill = 0
        self._record("service-kill", "driver", kill=self._kills)
        return True

    def _record(self, kind: str, point: str, **detail) -> None:
        event: Dict[str, object] = {
            "clock": self._clock,
            "seq": self._submissions,
            "point": point,
            "kind": kind,
        }
        event.update(detail)
        self._events.append(event)

    # ------------------------------------------------------------------
    # Introspection / replay support
    # ------------------------------------------------------------------

    @property
    def seed(self) -> int:
        """The schedule's seed (replay handle)."""
        return self._seed

    @property
    def kills(self) -> int:
        """Kill points consumed."""
        return self._kills

    def event_log(self) -> List[Dict[str, object]]:
        """Every injected event, in injection order (JSON-safe).

        Two runs with the same seed and request sequence produce
        identical logs — the determinism tests and the replay digest
        compare exactly this.
        """
        return [dict(event) for event in self._events]

    def summary(self) -> Dict[str, int]:
        """``kind -> count`` over the injected events."""
        counts: Dict[str, int] = {}
        for event in self._events:
            kind = str(event["kind"])
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def config_dict(self) -> Dict[str, object]:
        """The knobs needed to rebuild this schedule for a replay.

        Storm rules are carried structurally (server / attributes /
        join path) via :func:`repro.io.serialize._rule_to_dict`'s
        shape, so a violation artifact is self-contained.
        """
        from repro.io.serialize import _rule_to_dict

        return {
            "seed": self._seed,
            "drop_probability": self._drop_probability,
            "cancel_probability": self.cancel_probability,
            "leader_crash_probability": self.leader_crash_probability,
            "stall_probability": self.stall_probability,
            "stall_ticks": self.stall_ticks,
            "storm_probability": self.storm_probability,
            "storm_rules": [_rule_to_dict(rule) for rule in self.storm_rules],
            "clock_jump_probability": self.clock_jump_probability,
            "clock_jump": self.clock_jump,
            "kill_every": self.kill_every,
            "max_kills": self.max_kills,
        }

    def __repr__(self) -> str:
        return (
            f"ChaosSchedule(seed={self._seed}, events={len(self._events)}, "
            f"submissions={self._submissions}, kills={self._kills}, "
            f"clock={self._clock:.1f})"
        )


def chaos_event_key(events: Sequence[Dict[str, object]]) -> Tuple:
    """A hashable digest key of an event log (determinism assertions)."""
    return tuple(
        tuple(sorted((k, str(v)) for k, v in event.items())) for event in events
    )
