"""Self-test of the benchmark, at a tenth of its normal run length.

Not part of the tier-1 ``testpaths``; run it explicitly:

    python -m pytest bench_e2e -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_e2e.workloads import WORKLOADS, Oracle, sample_requests  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SCAN_WORKLOADS = ("exec_scan", "shard_scan")

#: Counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "service.executions",
    "plancache.hit_ratio",
    "plancache.evictions",
    "plancache.revalidations",
    "plancache.revalidation_failures",
    "singleflight.plan_coalesced_ratio",
    "singleflight.result_coalesced_ratio",
    "planner.canview_calls_per_plan",
    "executor.transfers_per_query",
    "audit.transfers_checked",
    "serialize.wire_bytes",
)


def _run(workload, trace, tmp_path, seed=11, cwd=ROOT):
    out = tmp_path / f"{workload}-{trace}-{seed}.json"
    done = subprocess.run(
        [
            sys.executable, "bench_e2e/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1.5", "--trace", str(trace), "--out", str(out),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload on one seed."""
    tmp = tmp_path_factory.mktemp("traced")
    runs = {}
    for name in WORKLOAD_NAMES:
        runs[name] = []
        for repeat in (0, 1):
            directory = tmp / f"{name}-{repeat}"
            directory.mkdir()
            runs[name].append(_run(name, 1, directory))
    return runs


def _check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


def test_benchmark_json_names_the_workloads_the_code_runs():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    for declared in BENCHMARK["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_pass_reports_every_metric(workload, tmp_path):
    result, detail = _run(workload, 0, tmp_path)
    _check_metrics(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert len(detail["rounds"]) >= 3
    assert detail["ok"] + detail["infeasible_as_expected"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_pass_reports_every_metric_and_repeats_its_counts(workload, traced):
    (first, detail), (second, second_detail) = traced[workload]
    _check_metrics(first, BENCHMARK["per_layer"])
    assert detail["loop_shipped_bytes_per_query"] == second_detail["loop_shipped_bytes_per_query"] > 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["attempted"] == second["attempted"]
    assert first["metrics"]["audit.violations"]["value"] == 0
    assert first["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    trace_file = ROOT / detail["trace_file"]
    span = json.loads(trace_file.read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "request_id", "self_s"} <= set(span)


def test_predictions_that_hold_by_construction(traced):
    value = lambda workload, name: traced[workload][0][0]["metrics"][name]["value"]  # noqa: E731
    assert value("plan_cold", "plancache.hit_ratio") == 0
    assert value("serve_hot", "plancache.hit_ratio") > 0.7
    for workload in WORKLOAD_NAMES:
        failures = value(workload, "plancache.revalidation_failures")
        assert (failures > 0) == (workload == "policy_churn"), workload
    for workload in SCAN_WORKLOADS:
        assert value(workload, "singleflight.plan_coalesced_ratio") == 0
        assert value(workload, "singleflight.result_coalesced_ratio") == 0
    assert value("shard_scan", "shard.partitioned_ratio") == 1
    assert value("exec_scan", "shard.wall_ms") == 0
    parts = sum(value("shard_scan", f"shard.{part}_ms") for part in ("split", "execute", "merge"))
    assert abs(parts - value("shard_scan", "shard.wall_ms")) <= 0.15 * value("shard_scan", "shard.wall_ms")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_changes_request_order_but_not_the_shape_set(workload):
    spec = WORKLOADS[workload]
    # Whole decks for every client, so the mix is exactly balanced.
    count = 2 * len(spec.shapes) * len(spec.tenants) * spec.clients
    samples = []
    for seed in (11, 12):
        attrs = Oracle(spec, seed).literal_attrs
        samples.append([r.shape for r in sample_requests(spec, seed, count, attrs)])
    assert samples[0] != samples[1]
    assert sorted(samples[0]) == sorted(samples[1])
    assert set(samples[0]) == set(spec.shapes)


def test_scan_workloads_deliver_identical_rows_per_variant():
    exec_rows = Oracle(WORKLOADS["exec_scan"], 11).rows
    shard_rows = Oracle(WORKLOADS["shard_scan"], 11).rows
    assert exec_rows == shard_rows and all(len(rows) for rows in exec_rows.values())


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench_e2e", tmp_path / "bench_e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "serve_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
