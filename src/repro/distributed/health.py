"""Per-server and per-link health tracking with circuit breakers.

PR 1's fault layer made execution *react* to failures: every shipment is
retried, and exhausted retries trigger an authorization-safe replan.
But every failure is rediscovered from scratch — a flapping coordinator
is retried on every shipment of every query.  This module is the
proactive half: a :class:`HealthTracker` accumulates rolling
success/failure/latency scores per server and per directed link, fed by
the attempt outcomes of :func:`~repro.engine.resilience.attempt_shipment`,
and guards each resource with a three-state **circuit breaker**:

* **closed** — traffic flows; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker opens: shipments are refused instantly (status
  ``breaker-open``) instead of burning retry attempts, and the planner
  treats the resource as quarantined.
* **half-open** — once ``cooldown`` units of *logical* time pass, the
  next shipment is admitted as a probe.  A successful probe closes the
  breaker (and resets the cooldown); a failed probe re-opens it with the
  cooldown scaled by ``cooldown_factor`` (capped), so a persistently
  flapping resource is probed ever more rarely.

Everything is deterministic: time is the fault injector's logical clock,
passed in by the caller — no wall clock, no RNG.  The tracker never
participates in authorization; like the injector, it decides whether
bytes are *attempted*, never whether they *may be sent*.  Quarantine is
advisory for planning: the failover layer always falls back to ignoring
it before declaring a query degraded, so an open breaker can cost a
replan but never availability the policy would otherwise permit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional, Tuple

from repro.distributed.faults import (
    STATUS_OK,
    STATUS_RECEIVER_DOWN,
    STATUS_SENDER_DOWN,
)
from repro.exceptions import ResilienceConfigError

#: Circuit breaker states.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class RollingStats:
    """Success/failure/latency over a bounded window of observations."""

    __slots__ = ("_window", "_outcomes", "successes", "failures", "_duration")

    def __init__(self, window: int = 32) -> None:
        if window < 1:
            raise ResilienceConfigError("stats window must be at least 1")
        self._window = window
        self._outcomes: Deque[Tuple[bool, float]] = deque()
        self.successes = 0
        self.failures = 0
        self._duration = 0.0

    def record(self, ok: bool, duration: float) -> None:
        """Push one observation, evicting the oldest beyond the window."""
        self._outcomes.append((ok, duration))
        if ok:
            self.successes += 1
        else:
            self.failures += 1
        self._duration += duration
        if len(self._outcomes) > self._window:
            old_ok, old_duration = self._outcomes.popleft()
            if old_ok:
                self.successes -= 1
            else:
                self.failures -= 1
            self._duration -= old_duration

    @property
    def observations(self) -> int:
        """Observations currently in the window."""
        return len(self._outcomes)

    @property
    def success_rate(self) -> float:
        """Fraction of windowed observations that succeeded (1.0 empty)."""
        if not self._outcomes:
            return 1.0
        return self.successes / len(self._outcomes)

    @property
    def mean_latency(self) -> float:
        """Mean observed duration over the window (0.0 empty)."""
        if not self._outcomes:
            return 0.0
        return self._duration / len(self._outcomes)

    def __repr__(self) -> str:
        return (
            f"RollingStats({self.successes}+/{self.failures}- of "
            f"{self.observations}, ~{self.mean_latency:.2f})"
        )


class CircuitBreaker:
    """Deterministic three-state breaker over one resource.

    Args:
        failure_threshold: consecutive failures (while closed) that trip
            the breaker open.
        cooldown: logical-time units an open breaker waits before
            admitting a half-open probe.
        cooldown_factor: multiplier applied to the cooldown each time a
            half-open probe fails (flapping resources are probed ever
            more rarely).
        max_cooldown: cap on the escalated cooldown.
        half_open_probes: successful probes required to close again.
    """

    __slots__ = (
        "failure_threshold",
        "base_cooldown",
        "cooldown_factor",
        "max_cooldown",
        "half_open_probes",
        "_state",
        "_streak",
        "_opened_at",
        "_cooldown",
        "_probe_successes",
        "trips",
        "_on_transition",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 60.0,
        cooldown_factor: float = 2.0,
        max_cooldown: float = 960.0,
        half_open_probes: int = 1,
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceConfigError("failure_threshold must be at least 1")
        if cooldown <= 0 or max_cooldown <= 0:
            raise ResilienceConfigError(
                "cooldown and max_cooldown must be positive"
            )
        # The cap never undercuts the base: raising cooldown alone must
        # not require also raising max_cooldown.
        max_cooldown = max(max_cooldown, cooldown)
        if cooldown_factor < 1.0:
            raise ResilienceConfigError("cooldown_factor must be >= 1")
        if half_open_probes < 1:
            raise ResilienceConfigError("half_open_probes must be at least 1")
        self.failure_threshold = failure_threshold
        self.base_cooldown = cooldown
        self.cooldown_factor = cooldown_factor
        self.max_cooldown = max_cooldown
        self.half_open_probes = half_open_probes
        self._state = STATE_CLOSED
        self._streak = 0
        self._opened_at = 0.0
        self._cooldown = cooldown
        self._probe_successes = 0
        self.trips = 0
        self._on_transition = None

    def set_transition_observer(self, callback) -> None:
        """Install ``callback(old_state, new_state, now)``, invoked on
        every committed state change (the health tracker wires this to
        the trace context)."""
        self._on_transition = callback

    def state(self, now: float) -> str:
        """Effective state at ``now`` (pure: no transition committed)."""
        if self._state == STATE_OPEN and now >= self._opened_at + self._cooldown:
            return STATE_HALF_OPEN
        return self._state

    def allow(self, now: float) -> bool:
        """Whether a shipment may be attempted at ``now``.

        An open breaker whose cooldown has elapsed transitions to
        half-open here (the probe is this very shipment).
        """
        if self._state == STATE_OPEN:
            if now < self._opened_at + self._cooldown:
                return False
            self._state = STATE_HALF_OPEN
            self._probe_successes = 0
            if self._on_transition is not None:
                self._on_transition(STATE_OPEN, STATE_HALF_OPEN, now)
        return True

    def record_success(self, now: float) -> None:
        """Feed one successful attempt."""
        if self._state == STATE_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._state = STATE_CLOSED
                self._cooldown = self.base_cooldown
                self._streak = 0
                if self._on_transition is not None:
                    self._on_transition(STATE_HALF_OPEN, STATE_CLOSED, now)
        else:
            self._streak = 0

    def record_failure(self, now: float) -> None:
        """Feed one failed attempt; may trip or re-trip the breaker."""
        if self._state == STATE_HALF_OPEN:
            # Failed probe: re-open with an escalated cooldown.
            self._cooldown = min(
                self._cooldown * self.cooldown_factor, self.max_cooldown
            )
            self._open(now)
        elif self._state == STATE_CLOSED:
            self._streak += 1
            if self._streak >= self.failure_threshold:
                self._open(now)
        # While open nothing should be attempted; a stray failure
        # observation (e.g. fed externally) leaves the state unchanged.

    def _open(self, now: float) -> None:
        previous = self._state
        self._state = STATE_OPEN
        self._opened_at = now
        self._streak = 0
        self.trips += 1
        if self._on_transition is not None:
            self._on_transition(previous, STATE_OPEN, now)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self._state}, streak={self._streak}, "
            f"trips={self.trips}, cooldown={self._cooldown:.0f})"
        )


class _ResourceHealth:
    """One tracked resource: rolling stats plus its breaker."""

    __slots__ = ("stats", "breaker")

    def __init__(self, stats: RollingStats, breaker: CircuitBreaker) -> None:
        self.stats = stats
        self.breaker = breaker


class HealthTracker:
    """Rolling health scores and breakers for servers and directed links.

    Fed by shipment attempt outcomes (see
    :func:`~repro.engine.resilience.attempt_shipment`); consulted by the
    same function to refuse shipments over quarantined resources, by the
    failover layer to exclude quarantined servers from replans, and by
    the cost planner to penalize routes over unhealthy links.

    Attribution of one attempt outcome:

    * ``ok`` — success for the link and both endpoint servers;
    * ``receiver-down`` — failure for the receiver server and the link;
    * ``sender-down`` — failure for the sender server only (the link
      itself proved nothing);
    * anything else (drop, partition, timeout) — failure for the link.

    Args:
        failure_threshold / cooldown / cooldown_factor / max_cooldown /
            half_open_probes: breaker parameters (see
            :class:`CircuitBreaker`), shared by every resource.
        window: rolling-stats window per resource.
        quarantine_penalty: cost multiplier reported for resources whose
            breaker is not closed (see :meth:`penalty_factor`).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 60.0,
        cooldown_factor: float = 2.0,
        max_cooldown: float = 960.0,
        half_open_probes: int = 1,
        window: int = 32,
        quarantine_penalty: float = 8.0,
    ) -> None:
        if quarantine_penalty < 1.0:
            raise ResilienceConfigError("quarantine_penalty must be >= 1")
        self._breaker_args = dict(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            cooldown_factor=cooldown_factor,
            max_cooldown=max_cooldown,
            half_open_probes=half_open_probes,
        )
        # Validate eagerly: a misconfigured tracker should fail at
        # construction, not on the first observed failure.
        CircuitBreaker(**self._breaker_args)
        self._window = window
        self._penalty = quarantine_penalty
        self._links: Dict[Tuple[str, str], _ResourceHealth] = {}
        self._servers: Dict[str, _ResourceHealth] = {}
        self._now = 0.0
        self._trace = None

    def bind_trace(self, trace) -> None:
        """Attach a :class:`~repro.obs.trace.TraceContext`: every breaker
        (existing and future) then reports state transitions as
        ``breaker_transition`` events, and opens bump
        ``repro_breaker_opens_total`` labeled by resource."""
        self._trace = trace
        for name, record in self._servers.items():
            record.breaker.set_transition_observer(
                self._transition_observer(f"server:{name}")
            )
        for (sender, receiver), record in self._links.items():
            record.breaker.set_transition_observer(
                self._transition_observer(f"link:{sender}->{receiver}")
            )

    def _transition_observer(self, resource: str):
        trace = self._trace

        def observer(old: str, new: str, at: float) -> None:
            trace.event(
                "breaker_transition", "health", resource=resource,
                old=old, new=new, at=at,
            )
            if new == STATE_OPEN:
                trace.count("repro_breaker_opens_total", resource=resource)

        return observer

    # ------------------------------------------------------------------
    # Resource registry
    # ------------------------------------------------------------------

    def _resource(
        self, table: Dict, key
    ) -> _ResourceHealth:
        if key not in table:
            record = table[key] = _ResourceHealth(
                RollingStats(self._window), CircuitBreaker(**self._breaker_args)
            )
            if self._trace is not None:
                label = (
                    f"link:{key[0]}->{key[1]}"
                    if isinstance(key, tuple)
                    else f"server:{key}"
                )
                record.breaker.set_transition_observer(
                    self._transition_observer(label)
                )
        return table[key]

    def link(self, sender: str, receiver: str) -> _ResourceHealth:
        """Health record of one directed link (created on first access)."""
        return self._resource(self._links, (sender, receiver))

    def server(self, name: str) -> _ResourceHealth:
        """Health record of one server (created on first access)."""
        return self._resource(self._servers, name)

    @property
    def now(self) -> float:
        """Latest logical time observed."""
        return self._now

    # ------------------------------------------------------------------
    # The feeding and gating surface
    # ------------------------------------------------------------------

    def allow(self, sender: str, receiver: str, now: float) -> bool:
        """Whether a shipment ``sender -> receiver`` may be attempted.

        Consults the link breaker and both endpoint server breakers; an
        open breaker whose cooldown elapsed transitions to half-open and
        admits this shipment as its probe.
        """
        self._now = max(self._now, now)
        return (
            self.link(sender, receiver).breaker.allow(now)
            and self.server(sender).breaker.allow(now)
            and self.server(receiver).breaker.allow(now)
        )

    def observe_attempt(
        self, sender: str, receiver: str, status: str, duration: float, now: float
    ) -> None:
        """Feed one shipment attempt's outcome at logical time ``now``."""
        self._now = max(self._now, now)
        link = self.link(sender, receiver)
        ok = status == STATUS_OK
        link.stats.record(ok, duration)
        if ok:
            link.breaker.record_success(now)
            self.server(sender).breaker.record_success(now)
            self.server(sender).stats.record(True, duration)
            self.server(receiver).breaker.record_success(now)
            self.server(receiver).stats.record(True, duration)
        elif status == STATUS_RECEIVER_DOWN:
            link.breaker.record_failure(now)
            self.server(receiver).breaker.record_failure(now)
            self.server(receiver).stats.record(False, duration)
        elif status == STATUS_SENDER_DOWN:
            self.server(sender).breaker.record_failure(now)
            self.server(sender).stats.record(False, duration)
        else:
            link.breaker.record_failure(now)

    def observe_report(
        self, sender: str, receiver: str, report, now: Optional[float] = None
    ) -> None:
        """Feed a whole :class:`~repro.engine.resilience.ShipmentReport`.

        Convenience for callers holding finished reports rather than a
        live attempt stream; every attempt is attributed at ``now``
        (default: the latest time already observed).
        """
        at = self._now if now is None else now
        for record in report.attempts:
            self.observe_attempt(sender, receiver, record.status, record.duration, at)

    # ------------------------------------------------------------------
    # Planner-facing queries
    # ------------------------------------------------------------------

    def quarantined_servers(self) -> Tuple[str, ...]:
        """Servers whose breaker is open right now, sorted.

        Half-open servers are *not* listed: they are due a probe, and
        excluding them from planning would starve the probe forever.
        """
        now = self._now
        return tuple(
            sorted(
                name
                for name, record in self._servers.items()
                if record.breaker.state(now) == STATE_OPEN
            )
        )

    def quarantined_links(self) -> Tuple[Tuple[str, str], ...]:
        """Directed links whose breaker is open right now, sorted."""
        now = self._now
        return tuple(
            sorted(
                key
                for key, record in self._links.items()
                if record.breaker.state(now) == STATE_OPEN
            )
        )

    def penalty_factor(self, sender: str, receiver: str) -> float:
        """Cost multiplier for routing over ``sender -> receiver``.

        1.0 for healthy routes; ``quarantine_penalty`` when the link or
        either endpoint breaker is open; the halfway point when merely
        half-open (probing is allowed but known-good routes should win
        ties).  Local hand-offs are never penalized.
        """
        if sender == receiver:
            return 1.0
        now = self._now
        states = (
            self.link(sender, receiver).breaker.state(now),
            self.server(sender).breaker.state(now),
            self.server(receiver).breaker.state(now),
        )
        if STATE_OPEN in states:
            return self._penalty
        if STATE_HALF_OPEN in states:
            return (1.0 + self._penalty) / 2.0
        return 1.0

    def breaker_trips(self) -> int:
        """Total times any breaker tripped open."""
        return sum(r.breaker.trips for r in self._servers.values()) + sum(
            r.breaker.trips for r in self._links.values()
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Per-resource state lines, servers first, then links."""
        now = self._now
        lines = []
        for name in sorted(self._servers):
            record = self._servers[name]
            lines.append(
                f"server {name}: {record.breaker.state(now)} "
                f"({record.stats.successes}+/{record.stats.failures}-, "
                f"trips {record.breaker.trips})"
            )
        for sender, receiver in sorted(self._links):
            record = self._links[(sender, receiver)]
            lines.append(
                f"link {sender}->{receiver}: {record.breaker.state(now)} "
                f"({record.stats.successes}+/{record.stats.failures}-, "
                f"trips {record.breaker.trips})"
            )
        return "\n".join(lines) if lines else "(no observations)"

    def __repr__(self) -> str:
        return (
            f"HealthTracker({len(self._servers)} servers, "
            f"{len(self._links)} links, trips={self.breaker_trips()}, "
            f"now={self._now:.1f})"
        )


class ObserveOnlyHealth:
    """A tracker view that keeps learning but never refuses a shipment.

    The failover layer swaps this in for rounds whose plan was *forced*
    through quarantined resources (no safe assignment avoids them): the
    breakers would otherwise fail-fast the only viable route and turn an
    advisory quarantine into lost availability.  Observations still flow
    to the wrapped tracker, so the breakers keep an accurate history —
    they just don't gate this round.  Note a success recorded while a
    breaker is open does *not* close it (only a half-open probe admitted
    by ``allow`` can); the forced route staying up is evidence for the
    next scheduled probe, not a probe itself.
    """

    __slots__ = ("_tracker",)

    def __init__(self, tracker: HealthTracker) -> None:
        self._tracker = tracker

    def allow(self, sender: str, receiver: str, now: float) -> bool:
        return True

    def observe_attempt(
        self, sender: str, receiver: str, status: str, duration: float, now: float
    ) -> None:
        self._tracker.observe_attempt(sender, receiver, status, duration, now)

    def breaker_trips(self) -> int:
        return self._tracker.breaker_trips()

    def bind_trace(self, trace) -> None:
        self._tracker.bind_trace(trace)
