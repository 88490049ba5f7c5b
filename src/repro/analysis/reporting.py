"""Rendering helpers: Figure 7 style traces, Figure 3 style policies,
and the plain ASCII tables used by the benchmark harness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.algebra.attributes import format_attribute_set
from repro.core.authorization import Policy
from repro.core.plancache import PLAN_CACHE_KEYS
from repro.core.planner import PlannerTrace


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A minimal fixed-width table with a header separator.

    >>> print(ascii_table(["a", "b"], [[1, "x"]]))
    a | b
    --+--
    1 | x
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    header = " | ".join(h.ljust(w) for h, w in zip(cells[0], widths)).rstrip()
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_trace_table(trace: PlannerTrace, labels: Optional[dict] = None) -> str:
    """Render a planning trace in the layout of the paper's Figure 7.

    Left block: ``Find_candidates`` visit order with the candidate list
    and the recorded slave (as in the paper, only a slave actually
    recorded for a semi-join admission is shown).  Right block:
    ``Assign_ex`` order with the committed executor.

    Args:
        trace: a trace from :meth:`repro.core.planner.SafePlanner.plan`.
        labels: optional mapping ``node_id -> display name`` (e.g. to
            match the paper's ``n_0..n_6`` numbering).
    """
    labels = labels or {}

    def name(node_id: int) -> str:
        return labels.get(node_id, f"n{node_id}")

    find_rows: List[List[str]] = []
    for node_id in trace.find_order:
        decision = trace.decision(node_id)
        candidates = ", ".join(repr(c) for c in decision.candidates)
        slaves = []
        if decision.left_slave is not None:
            slaves.append(decision.left_slave.server)
        if decision.right_slave is not None:
            slaves.append(decision.right_slave.server)
        find_rows.append([name(node_id), candidates, "/".join(slaves)])
    assign_rows: List[List[str]] = []
    for node_id, pushed in trace.assign_order:
        decision = trace.decision(node_id)
        executor = str(decision.executor) if decision.executor else "?"
        assign_rows.append([name(node_id), executor, pushed or "NULL"])
    return (
        "Find_candidates\n"
        + ascii_table(["Node", "Candidates", "Slave"], find_rows)
        + "\n\nAssign_ex\n"
        + ascii_table(["Node", "Executor", "Pushed"], assign_rows)
    )


def render_policy_table(policy: Policy) -> str:
    """Render a policy in the layout of the paper's Figure 3."""
    rows = []
    for index, rule in enumerate(policy, start=1):
        rows.append(
            [
                index,
                format_attribute_set(rule.attributes),
                str(rule.join_path),
                rule.server,
            ]
        )
    return ascii_table(["#", "Attributes", "Join Path", "Server"], rows)


def render_profile_report(profile) -> str:
    """EXPLAIN ANALYZE rendering of one
    :class:`~repro.profiling.QueryProfile`: estimated vs actual side by
    side, with misestimation flags.

    Two tables — the operator tree (estimated vs observed cardinality,
    observed join selectivity, per-operator time on the run's clock) and
    the transfers (estimated vs shipped bytes with the actual/estimate
    ratio) — followed by a summary footer line.
    Transfers whose actual bytes overshot the estimate by the profile's
    misestimate factor are flagged ``!!``; operators whose cardinality
    did the same are flagged ``!``.  Deterministic under a pinned clock
    (the CLI's ``analyze`` output is golden-file tested).
    """
    operator_rows = []
    for op in profile.sorted_operators():
        kind = f"{op.kind} {op.relation}" if op.relation else op.kind
        est = "" if op.est_rows is None else f"{op.est_rows:.1f}"
        sel = "" if op.selectivity is None else f"{op.selectivity:.4f}"
        flag = ""
        if op.est_rows is not None and op.rows > profile.misestimate_factor * max(
            op.est_rows, 1.0
        ):
            flag = "!"
        operator_rows.append(
            [
                f"n{op.node_id}",
                kind,
                op.server,
                est,
                op.rows,
                sel,
                f"{op.elapsed:.3f}",
                flag,
            ]
        )
    flagged = {
        (f["node_id"], f["sender"], f["receiver"], f["actual_bytes"])
        for f in profile.misestimates
    }
    transfer_rows = []
    for t in profile.transfers:
        est = "" if t.est_bytes is None else f"{t.est_bytes:.1f}"
        ratio = (
            "" if t.est_bytes is None else f"{t.bytes / max(t.est_bytes, 1.0):.2f}x"
        )
        flag = "!!" if (t.node_id, t.sender, t.receiver, t.bytes) in flagged else ""
        transfer_rows.append(
            [
                f"n{t.node_id}",
                f"{t.sender}->{t.receiver}",
                t.kind,
                est,
                f"{t.bytes:.1f}",
                t.rows,
                ratio,
                flag,
            ]
        )
    lines = [
        "operators",
        ascii_table(
            ["Node", "Op", "Server", "Est rows", "Rows", "Selectivity", "Time", ""],
            operator_rows,
        ),
        "",
        "transfers",
    ]
    if transfer_rows:
        lines.append(
            ascii_table(
                ["Node", "Link", "Kind", "Est B", "Actual B", "Rows", "Ratio", ""],
                transfer_rows,
            )
        )
    else:
        lines.append("(all flows local — nothing shipped)")
    lines.append(
        f"summary: estimated {profile.estimated_bytes:.1f} B, "
        f"actual {profile.actual_bytes:.1f} B (plan flows) | "
        f"{profile.canview_probes} canview probes | "
        f"{len(profile.misestimates)} misestimates | "
        f"elapsed {profile.elapsed:.3f}"
    )
    return "\n".join(lines)


#: Version of the ``BENCH_*.json`` layout; bump when sections change
#: shape incompatibly.  Consumers select on it instead of sniffing keys.
BENCH_SCHEMA_VERSION = 1

#: Producer stamp written into every bench file.
BENCH_GENERATED_BY = "repro-benchmarks"


#: The always-present keys of a bench file's ``"latency"`` section.
#: Serving benches (ABL14 onward) report tail latency through one
#: shared shape so dashboards can diff files without sniffing keys.
_LATENCY_KEYS = ("p50", "p95", "p99")

#: The always-present keys of a bench file's ``"profile"`` section
#: (mirrors :meth:`repro.profiling.QueryProfile.summary_dict`).  Count
#: keys are integers, byte/elapsed keys floats; ABL17 and future
#: profiled benches share this one shape.
_PROFILE_INT_KEYS = ("operators", "transfers", "canview_probes", "misestimates")
_PROFILE_FLOAT_KEYS = ("estimated_bytes", "actual_bytes", "elapsed")


def latency_percentiles(samples):
    """``{p50, p95, p99}`` of a latency sample list, zero-filled when
    empty — the exact shape ``write_bench_json(latency=...)`` accepts.

    Percentiles use the true nearest-rank method on the sorted samples
    (rank ``⌈q·N⌉``, 1-based), so tiny sample sets stay deterministic —
    no interpolation, a single sample reports itself at every
    percentile, and the p50 of an odd-length series is its median.  The
    earlier ``round()``-based rank suffered banker's rounding: p50 of
    five samples picked the *second* element instead of the third.
    """
    import math

    ordered = sorted(samples)
    if not ordered:
        return {key: 0.0 for key in _LATENCY_KEYS}

    def rank(q):
        index = min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1
        return float(ordered[index])

    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99)}


def write_bench_json(
    name,
    payload,
    directory=None,
    metrics=None,
    plan_cache=None,
    latency=None,
    profile=None,
):
    """Merge one benchmark's results into ``BENCH_<NAME>.json``.

    Each bench test contributes a section keyed by its own name, so a
    module whose tests run in any order (or one at a time under ``-k``)
    still produces a complete, stable file.  The output is deterministic:
    keys sorted, no timestamps, floats as produced by the seeded runs.
    Every file carries a ``"schema"`` version and a ``"generated_by"``
    stamp; older files are upgraded in place on the next merge.

    Args:
        name: bench identifier, e.g. ``"ABL11"`` — the file becomes
            ``BENCH_ABL11.json``.
        payload: dict of sections to merge in (section name -> results).
        directory: where to write; defaults to the current working
            directory (the repo root under the pytest harness).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            whose snapshot is merged in as a ``"metrics"`` section.
        plan_cache: optional plan-cache counters — a
            :class:`~repro.core.plancache.PlanCache`, a snapshot dict,
            or ``None`` — merged in as a ``"plan_cache"`` section whose
            keys (:data:`~repro.core.plancache.PLAN_CACHE_KEYS`) are
            always all present, zero-filled when absent from the input.
        latency: optional latency percentiles — a dict with any of
            ``p50``/``p95``/``p99`` (e.g. from
            :func:`latency_percentiles`) — merged in as a ``"latency"``
            section whose three keys are always all present, zero-filled
            when absent from the input.  ABL14 and future serving
            benches share this one shape.
        profile: optional query-profile summary — a
            :class:`~repro.profiling.QueryProfile`, its
            ``summary_dict()``, or ``None`` — merged in as a
            ``"profile"`` section whose keys (operators/transfers/
            canview_probes/misestimates as ints, estimated_bytes/
            actual_bytes/elapsed as floats) are always all present,
            zero-filled when absent from the input.  ABL17 and future
            profiled benches share this one shape.

    Returns:
        The path written.
    """
    import json
    import os

    path = os.path.join(directory or os.getcwd(), f"BENCH_{name}.json")
    data = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
        if not isinstance(data, dict):
            data = {}
    data.update(payload)
    if metrics is not None:
        data["metrics"] = metrics.snapshot()
    if plan_cache is not None:
        snapshot = (
            plan_cache.snapshot() if hasattr(plan_cache, "snapshot") else dict(plan_cache)
        )
        data["plan_cache"] = {
            key: int(snapshot.get(key, 0)) for key in PLAN_CACHE_KEYS
        }
    if latency is not None:
        data["latency"] = {
            key: float(latency.get(key, 0.0)) for key in _LATENCY_KEYS
        }
    if profile is not None:
        summary = (
            profile.summary_dict()
            if hasattr(profile, "summary_dict")
            else dict(profile)
        )
        section = {key: int(summary.get(key, 0)) for key in _PROFILE_INT_KEYS}
        section.update(
            {key: float(summary.get(key, 0.0)) for key in _PROFILE_FLOAT_KEYS}
        )
        data["profile"] = section
    data["schema"] = BENCH_SCHEMA_VERSION
    data["generated_by"] = BENCH_GENERATED_BY
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
