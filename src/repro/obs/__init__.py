"""Dependency-free tracing and metrics for the query stack.

Construct a :class:`TraceContext`, pass it to
:meth:`DistributedSystem.execute(trace=...)
<repro.distributed.system.DistributedSystem.execute>` (or ``plan``),
and every layer — chase closure, planner candidate enumeration, CanView
checks, shipments, retries, breakers, deadlines, checkpoints — records
spans, instant events, and labeled metrics into it.  Export with
:func:`trace_jsonl`, :func:`chrome_trace_json` (Perfetto-loadable), or
:meth:`MetricsRegistry.prometheus_text`.

The spine (planner, executor, pipeline, sharding coordinator) reports
to one listener, :mod:`repro.obs.hooks`; with no context installed that
listener is a null object of no-op methods, and the ABL12 / ABL17
benches hold its overhead under 5%.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import MISSING, Span, TraceContext, TraceEvent
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    jsonl_lines,
    parse_prometheus_text,
    trace_jsonl,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MISSING",
    "Span",
    "TraceContext",
    "TraceEvent",
    "chrome_trace",
    "chrome_trace_json",
    "jsonl_lines",
    "parse_prometheus_text",
    "trace_jsonl",
    "validate_chrome_trace",
    "write_metrics",
    "write_trace",
]
