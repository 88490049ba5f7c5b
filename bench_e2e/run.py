"""Run one workload of the ledger.

    python3 bench_e2e/run.py --workload serve_hot --seed 11 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
with no tracing anywhere; ``--trace 1`` runs the traced pass and reports
the per-layer metrics.  Every metric is printed by name with its unit,
every outcome is checked against the oracle, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``bench_e2e/ledger.py`` runs all five
workloads and writes the machine-stamped ledger file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    sys.exit("bench_e2e: src/repro not found next to bench_e2e/ — nothing to measure")
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_e2e.layers import traced_pass  # noqa: E402
from repro.analysis.reporting import latency_percentiles  # noqa: E402

from bench_e2e.loadgen import Churn, LoadResult, deploy, run_closed_loop  # noqa: E402
from bench_e2e.workloads import WORKLOADS, Oracle, Workload  # noqa: E402

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The measured phase is cut into rounds of at least this many requests
#: each, and into at most ``MAX_ROUNDS``.
ROUND_REQUESTS = 30
MIN_ROUNDS = 3
MAX_ROUNDS = 20
#: Which round of a run speaks for each time-based metric: the one the
#: machine disturbed least.  Noise on a shared host only ever slows a
#: round down, and it comes in bursts of seconds, so the best round
#: repeats from run to run about twice as well as the median round.
BEST_ROUND = {
    "throughput_qps": max,
    "latency_p50_ms": min,
    "latency_p95_ms": min,
    "cpu_ms_per_query": min,
}
OUT_DIR = os.path.join(_ROOT, "bench_e2e", "out")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def _counts(*runs: LoadResult) -> dict:
    """Request counts of one or more closed loops, for the result line."""
    return {
        "attempted": sum(run.attempted for run in runs),
        "ok": sum(run.ok for run in runs),
        "infeasible_as_expected": sum(run.infeasible for run in runs),
        "failed": sum(run.failed for run in runs),
        "first_failure": next((run.first_failure for run in runs if run.failed), None),
    }


def _rounds(run: LoadResult) -> list:
    """Cut the measured phase into rounds of equally many consecutive
    completions and measure each (equal counts, not equal times, so a
    slow workload's rate is not quantized by its few requests)."""
    count = max(MIN_ROUNDS, min(MAX_ROUNDS, run.attempted // ROUND_REQUESTS))
    size = run.attempted // count
    if size < 2:
        raise AssertionError(f"only {run.attempted} requests completed; raise --seconds")
    rounds = []
    began, cpu_mark = run.started, run.cpu_started
    for first in range(0, count * size, size):
        last = first + size - 1
        latency = latency_percentiles(run.latencies[first : last + 1])
        rounds.append(
            {
                "requests": size,
                "throughput_qps": size / (run.done_at[last] - began),
                "latency_p50_ms": latency["p50"] * 1e3,
                "latency_p95_ms": latency["p95"] * 1e3,
                "cpu_ms_per_query": (run.cpu_at[last] - cpu_mark) * 1e3 / size,
            }
        )
        began, cpu_mark = run.done_at[last], run.cpu_at[last]
    return rounds


async def _end_to_end(workload: Workload, seed: int, seconds: float, oracle: Oracle):
    setups = []
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            await deployment.service.stop()
            deployment = None
        deployment, took = await deploy(workload, seed, oracle)
        setups.append(took)
    gc.freeze()
    churn = Churn(workload, deployment.service, oracle) if workload.churn_every else None
    run = await run_closed_loop(workload, deployment, oracle, seconds=seconds, churn=churn)
    await deployment.service.stop()

    rounds = _rounds(run)
    pooled = latency_percentiles(run.latencies)
    best = {name: pick(r[name] for r in rounds) for name, pick in BEST_ROUND.items()}
    metrics = {
        "throughput_qps": (best["throughput_qps"], "1/s"),
        "latency_p50_ms": (best["latency_p50_ms"], "ms"),
        "latency_p95_ms": (best["latency_p95_ms"], "ms"),
        "shipped_bytes_per_query": (run.shipped_bytes / max(1, run.ok), "B"),
        "cpu_ms_per_query": (best["cpu_ms_per_query"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "rounds": rounds,
        "setup_s_samples": setups,
        # Quartiles of the run's own repeats, next to every reported value.
        "repeat_quartiles": {
            "setup_s": _quartiles(setups),
            **{name: _quartiles([r[name] for r in rounds]) for name in BEST_ROUND},
        },
        "pooled": {
            "latency_p50_ms": pooled["p50"] * 1e3,
            "latency_p95_ms": pooled["p95"] * 1e3,
            "throughput_qps": run.attempted / (run.ended - run.started),
            "cpu_ms_per_query": run.cpu * 1e3 / run.attempted,
        },
        "policy_updates": len(churn.state_log) - 1 if churn is not None else 0,
    }
    return metrics, _counts(run), detail


async def _per_layer(workload: Workload, seed: int, seconds: float, oracle: Oracle):
    metrics, loops, tracer = await traced_pass(workload, seed, seconds, oracle)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl")
    tracer.write(trace_path)
    detail = {
        "loop_requests": {name: loop.attempted for name, loop in loops.items()},
        # Fixed request count, so unlike the timed pass's value this one
        # repeats exactly for a seed.
        "loop_shipped_bytes_per_query": loops["untraced"].shipped_bytes / loops["untraced"].ok,
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_path, _ROOT),
    }
    return metrics, _counts(*loops.values()), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the run's full detail as JSON here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    load_before = os.getloadavg()[0]
    wall = time.perf_counter()
    oracle = Oracle(workload, args.seed)
    measure = _per_layer if args.trace else _end_to_end
    metrics, counts, detail = asyncio.run(measure(workload, args.seed, args.seconds, oracle))

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<13} {name:<36} {value:>16.4f} {unit}")
    print(
        f"{workload.name:<13} requests: {counts['attempted']} attempted / {counts['ok']} ok / "
        f"{counts['infeasible_as_expected']} infeasible as expected / {counts['failed']} failed"
    )
    if counts["failed"]:
        print(f"first mismatching request: {counts['first_failure']}", file=sys.stderr)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        detail.update(
            result,
            workload=workload.name,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            clients=workload.clients,
            ok=counts["ok"],
            infeasible_as_expected=counts["infeasible_as_expected"],
            load_1min_before=load_before,
            noisy=load_before > (os.cpu_count() or 1),
            wall_s=time.perf_counter() - wall,
        )
        with open(args.out, "w") as out:
            json.dump(detail, out, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
