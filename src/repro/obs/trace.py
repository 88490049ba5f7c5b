"""Nested spans and instant events on the simulation's logical clock.

A :class:`TraceContext` is the single observability handle threaded
through the stack: planning opens spans around candidate enumeration,
the chase opens spans per round, the executor opens one ``transfer``
span per shipment, and the resilience/health/deadline/checkpoint layers
emit instant events inside whichever span is open.  The spine —
planner, executor, pipeline, sharding coordinator — never sees the
context: it reports to one :class:`~repro.obs.hooks.Hooks` object whose
tracer implementation opens the spans here and whose null object is what
a run without a context gets (the ABL12 overhead bench prices it); only
the leaf emitters take the context itself, ``None`` when nobody traces.

Time comes from a pluggable zero-argument ``clock``.  Executions under a
:class:`~repro.distributed.faults.FaultInjector` bind the injector's
*logical* clock (see :meth:`TraceContext.maybe_use_clock`), making every
timestamp deterministic and golden-file-stable; outside simulation the
context falls back to the wall clock (``time.perf_counter``).

The span tree is intentionally simple: integer ids assigned in opening
order, parent = the innermost open span, strictly LIFO closing.  Because
``parent_id < span_id`` always holds, the parent relation is acyclic by
construction — the exporter tests assert both invariants.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class Span:
    """One timed, attributed region of work.

    Attributes:
        span_id: 1-based id in opening order.
        parent_id: enclosing span's id (``None`` at the roots).
        seq: global emission sequence number (spans and events share it).
        name: what ran (see the taxonomy in ``docs/observability.md``).
        category: coarse grouping (``planner``, ``engine``, ...).
        track: display lane for the Chrome exporter (e.g. a server name).
        start: opening timestamp (context clock units).
        end: closing timestamp, or ``None`` while still open.
        attrs: key -> JSON-safe value annotations.
    """

    __slots__ = (
        "span_id", "parent_id", "seq", "name", "category", "track",
        "start", "end", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        seq: int,
        name: str,
        category: str,
        track: Optional[str],
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        """``end - start`` (0.0 while open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.3f}"
        return f"Span(#{self.span_id} {self.category}/{self.name}, {state})"


class TraceEvent:
    """One instant (zero-duration) occurrence inside the span tree."""

    __slots__ = ("seq", "parent_id", "name", "category", "track", "ts", "attrs")

    def __init__(
        self,
        seq: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        track: Optional[str],
        ts: float,
        attrs: Dict[str, object],
    ) -> None:
        self.seq = seq
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.ts = ts
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"TraceEvent({self.category}/{self.name} @ {self.ts:.3f})"


class _SpanHandle:
    """Context-manager wrapper returned by :meth:`TraceContext.span`."""

    __slots__ = ("_trace", "span")

    def __init__(self, trace: "TraceContext", span: Span) -> None:
        self._trace = trace
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._trace.end(self.span)


class TraceContext:
    """The tracing + metrics handle one run threads end-to-end.

    Args:
        clock: zero-argument callable yielding the current time.  When
            omitted, the wall clock is used until an execution binds a
            simulation's logical clock via :meth:`maybe_use_clock`.
        metrics: the registry instrumented counters feed; a fresh
            :class:`~repro.obs.metrics.MetricsRegistry` by default.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock = clock
        self._clock_pinned = clock is not None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._next_seq = 1

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def now(self) -> float:
        """The current timestamp under the bound clock."""
        clock = self._clock
        return clock() if clock is not None else time.perf_counter()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Bind ``clock`` unconditionally (subsequent stamps use it)."""
        self._clock = clock
        self._clock_pinned = True

    def maybe_use_clock(self, clock: Callable[[], float]) -> None:
        """Bind ``clock`` unless one was explicitly chosen already.

        Executions call this with the fault injector's logical clock, so
        a context constructed without a clock automatically goes logical
        the moment it meets a simulation — while a test that pinned its
        own deterministic clock keeps it.
        """
        if not self._clock_pinned:
            self._clock = clock
            self._clock_pinned = True

    # ------------------------------------------------------------------
    # Spans and events
    # ------------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str = "",
        track: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Open a span as a child of the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self._next_id, parent, self._next_seq, name, category, track, self.now()
        )
        self._next_id += 1
        self._next_seq += 1
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs: object) -> None:
        """Close ``span`` (must be the innermost open one)."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is not None:
            return
        # Strictly LIFO in correct code; tolerate (and close) abandoned
        # children so one buggy call site cannot leave the tree open.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = self.now()
            top.attrs.setdefault("abandoned", True)
        span.end = self.now()

    def span(
        self,
        name: str,
        category: str = "",
        track: Optional[str] = None,
        **attrs: object,
    ) -> _SpanHandle:
        """``with trace.span(...):`` convenience around begin/end."""
        return _SpanHandle(self, self.begin(name, category, track, **attrs))

    def event(
        self,
        name: str,
        category: str = "",
        track: Optional[str] = None,
        **attrs: object,
    ) -> TraceEvent:
        """Record an instant event inside the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        record = TraceEvent(
            self._next_seq, parent, name, category, track, self.now(), dict(attrs)
        )
        self._next_seq += 1
        self.events.append(record)
        return record

    def annotate(self, **attrs: object) -> None:
        """Stamp attributes on the innermost open span (none: no-op)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Shorthand for ``metrics.inc`` — the common call-site verb."""
        self.metrics.inc(name, amount, **labels)

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Record an already-finished span retroactively.

        The discrete-event simulator computes task intervals after the
        fact (its event loop processes completions out of wall order),
        so it cannot bracket them with :meth:`begin`/:meth:`end`.  A
        retroactive span is a root (no parent) — it never joins the
        live stack and cannot orphan open spans.
        """
        span = Span(self._next_id, None, self._next_seq, name, category, track, start)
        self._next_id += 1
        self._next_seq += 1
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (innermost last)."""
        return list(self._stack)

    def spans_named(self, name: str) -> List[Span]:
        """All spans with ``name``, in opening order."""
        return [span for span in self.spans if span.name == name]

    def close_all(self) -> None:
        """Close any spans still open (crash-path hygiene)."""
        while self._stack:
            self.end(self._stack[-1])

    def __repr__(self) -> str:
        return (
            f"TraceContext({len(self.spans)} spans, {len(self.events)} events, "
            f"{len(self._stack)} open)"
        )
