"""bench_e2e's by-construction predictions, restated for resident shards.

``bench_e2e/`` is frozen for a change that claims a gain on it, and its
``test_predictions_that_hold_by_construction`` ends with ``shard.split_ms
+ execute_ms + merge_ms ~= shard.wall_ms`` -- true only while every
``execute_sharded`` call re-split its relations.  ``make bench-e2e-smoke``
deselects that one test and runs this module beside the rest of the
self-test: the same predictions on the same traced runs, with the last
one stated as it holds now (a request's wall is execute + merge; the
benchmark's direct ``scheme.split`` call is outside it).
"""

from __future__ import annotations

import pytest

from bench_e2e.test_bench_e2e import SCAN_WORKLOADS, WORKLOAD_NAMES, _run


@pytest.fixture(scope="module")
def value(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    metrics = {}
    for name in WORKLOAD_NAMES:
        directory = tmp / name
        directory.mkdir()
        metrics[name] = _run(name, 1, directory)[0]["metrics"]
    return lambda workload, name: metrics[workload][name]["value"]


def test_predictions_that_hold_by_construction(value):
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


def test_a_sharded_request_pays_execute_and_merge_but_no_split(value):
    wall = value("shard_scan", "shard.wall_ms")
    per_request = value("shard_scan", "shard.execute_ms") + value("shard_scan", "shard.merge_ms")
    assert abs(per_request - wall) <= 0.15 * wall
