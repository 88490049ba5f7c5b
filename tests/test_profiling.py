"""The query profiler, the statistics store, and the feedback loop.

Covers the PR's acceptance criteria directly:

* estimated vs actual byte agreement on deterministic inputs (the
  coster's ``TableStats`` estimate and the executor's shipped bytes
  agree *exactly* for full-operand flows priced from exact stats);
* profile JSON artifacts round-trip byte-stable through
  :mod:`repro.io.serialize`;
* the :class:`~repro.profiling.StatsStore` decay/harvest semantics and
  the stats-fed :func:`~repro.baselines.exhaustive.cheapest_safe_plan` replan;
* misestimate detection and its trace/metrics surfacing;
* the satellite fixes (percentile edge cases, ``write_bench_json``
  profile section, Prometheus histogram validation and quantile).
"""

import os

import pytest

from repro.analysis.reporting import (
    latency_percentiles,
    render_profile_report,
    write_bench_json,
)
from repro.distributed.faults import FaultInjector
from repro.distributed.system import DistributedSystem
from repro.engine.coster import TableStats, estimate_assignment_detail, join_path_key
from repro.exceptions import ReproError
from repro.io.serialize import (
    load_json,
    query_profile_from_dict,
    query_profile_to_dict,
    save_json,
    stats_store_from_dict,
    stats_store_to_dict,
)
from repro.profiling import QueryProfile, QueryProfiler, StatsStore
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid FROM Insurance "
    "JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def _medical_system() -> DistributedSystem:
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7))
    return system


def _profiled_run(profiler=None, system=None):
    system = system or _medical_system()
    profiler = profiler or QueryProfiler()
    result = system.execute(
        MEDICAL_QUERY, faults=FaultInjector(seed=0), profiler=profiler
    )
    return result, result.profile


# ----------------------------------------------------------------------
# Profiler core
# ----------------------------------------------------------------------

def test_profile_attached_to_result():
    result, profile = _profiled_run()
    assert isinstance(profile, QueryProfile)
    assert profile.operators, "operator tree recorded"
    assert profile.transfers, "transfers recorded"
    assert profile.canview_probes > 0
    assert profile.actual_bytes == float(result.transfers.total_bytes())


def test_profile_absent_without_profiler():
    system = _medical_system()
    result = system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0))
    assert result.profile is None


def test_operator_kinds_and_selectivity():
    _, profile = _profiled_run()
    kinds = {op.kind for op in profile.operators.values()}
    assert any(kind.startswith("scan ") or kind == "scan" for kind in kinds) or any(
        op.relation for op in profile.operators.values()
    )
    joins = [op for op in profile.operators.values() if op.path_key]
    assert joins, "join operators carry a path key"
    for op in joins:
        assert op.selectivity is not None
        assert 0.0 <= op.selectivity <= 1.0


def test_rows_match_result():
    result, profile = _profiled_run()
    root = max(profile.operators)
    assert profile.operators[root].rows == len(result.table)


# ----------------------------------------------------------------------
# Estimate vs actual agreement (satellite 3: the regression lock)
# ----------------------------------------------------------------------

def test_full_operand_flows_agree_exactly():
    """With exact base stats, the coster's estimate for full-operand
    shipments (regular operand flows and semi-join probes) equals the
    executor's shipped bytes to the byte.  This is the canonical
    ``cell_width`` accounting contract; the profiler locks it in."""
    _, profile = _profiled_run()
    checked = 0
    for transfer in profile.transfers:
        if transfer.kind in ("regular", "probe", "coordinator"):
            assert transfer.est_bytes == pytest.approx(transfer.bytes), (
                transfer.kind,
                transfer.node_id,
            )
            checked += 1
    assert checked >= 2, "medical plan ships at least a regular and a probe flow"


def test_profiled_requests_scan_each_base_column_once(monkeypatch):
    """``TableStats.of_table`` reads the table's memoized column stats
    (``ProfilerHooks.unit_begin`` and the leaf branch of its
    ``node_end`` both call it, every request): profiled requests scan each resident relation once — once
    more if a projection's alias corner sorted it in between, which
    happens at most once per loaded table — not twice per request; and
    every call still hands out its own mutable ``TableStats``."""
    from repro.engine.data import Table

    system = _medical_system()
    scans = {"_column_bytes": [], "_distinct_counts": []}
    for name, scanned in scans.items():
        def counting(table, derive=getattr(Table, name), scanned=scanned):
            scanned.append(table)
            return derive(table)

        monkeypatch.setattr(Table, name, counting)

    def scans_per_table():
        return {
            (kind, name): sum(t is table for t in scanned)
            for kind, scanned in scans.items()
            for name, table in system.tables().items()
        }

    for _ in range(2):
        _profiled_run(system=system)
    settled = scans_per_table()
    assert all(1 <= count <= 2 for count in settled.values()), settled
    if not system.tables()["Hospital"].pool.has_aliases:
        assert set(settled.values()) == {1}
    for _ in range(2):
        _profiled_run(system=system)
    assert scans_per_table() == settled
    hospital = system.tables()["Hospital"]
    first, second = TableStats.of_table(hospital), TableStats.of_table(hospital)
    assert first.distinct is not second.distinct and first.widths is not second.widths
    assert (first.rows, first.distinct, first.widths) == (
        second.rows, second.distinct, second.widths
    )


def test_estimate_totals_match_detail():
    system = _medical_system()
    tree, assignment, _ = system.plan(MEDICAL_QUERY)
    base = {
        name: TableStats.of_table(table)
        for name, table in system.tables().items()
    }
    detail = estimate_assignment_detail(assignment, base)
    from repro.engine.coster import estimate_assignment_cost

    assert detail.total_cost == pytest.approx(
        estimate_assignment_cost(assignment, base)
    )
    assert detail.total_bytes == pytest.approx(
        sum(b for flows in detail.flows.values() for b, _ in flows)
    )


# ----------------------------------------------------------------------
# Misestimate detection
# ----------------------------------------------------------------------

def test_misestimate_flagged_on_underestimate():
    profiler = QueryProfiler(misestimate_factor=2.0)
    profile = profiler.start("q")
    profiler._flows = {(1, "A", "B"): [(10.0, "regular")]}
    profiler.record_transfer(1, "A", "B", rows=5, nbytes=50.0)
    done = profiler.finish()
    assert done is profile
    assert len(done.misestimates) == 1
    flag = done.misestimates[0]
    assert flag["estimated_bytes"] == 10.0
    assert flag["actual_bytes"] == 50.0
    assert flag["ratio"] == pytest.approx(5.0)


def test_overestimate_not_flagged():
    profiler = QueryProfiler(misestimate_factor=2.0)
    profiler.start("q")
    profiler._flows = {(1, "A", "B"): [(100.0, "regular")]}
    profiler.record_transfer(1, "A", "B", rows=5, nbytes=50.0)
    assert profiler.finish().misestimates == []


def test_result_and_unplanned_flows_excluded():
    profiler = QueryProfiler(misestimate_factor=1.0)
    profiler.start("q")
    profiler.record_transfer(
        9, "S_H", "alice", rows=5, nbytes=999.0,
        description="result -> recipient",
    )
    profiler.record_transfer(8, "A", "B", rows=5, nbytes=999.0)
    done = profiler.finish()
    assert done.misestimates == []
    assert done.actual_bytes == 999.0  # result flow excluded, unplanned kept
    assert done.total_bytes == 1998.0


def test_bad_misestimate_factor_rejected():
    with pytest.raises(ReproError):
        QueryProfiler(misestimate_factor=0.5)


def test_misestimate_emits_trace_counter_and_event():
    from repro.obs import TraceContext

    system = _medical_system()
    trace = TraceContext()
    # Factor 1.0 flags any flow whose actual exceeds its estimate at
    # all; the medical run's back flow is overestimated, so force a
    # flag by shrinking the estimates with a fake stats overlay.
    store = StatsStore()
    for name, table in system.tables().items():
        store.observe_relation(name, rows=1.0)
    profiler = QueryProfiler(
        base_stats=store.table_stats(
            {
                name: TableStats.of_table(table)
                for name, table in system.tables().items()
            }
        ),
        misestimate_factor=1.0,
    )
    result = system.execute(
        MEDICAL_QUERY,
        faults=FaultInjector(seed=0),
        profiler=profiler,
        trace=trace,
    )
    assert result.profile.misestimates
    counter = trace.metrics.counter("repro_plan_misestimate_total")
    assert counter.value() == len(result.profile.misestimates)
    events = [e for e in trace.events if e.name == "plan_misestimate"]
    assert len(events) == len(result.profile.misestimates)
    spans = [s for s in trace.spans if s.name == "profile"]
    assert spans and spans[0].attrs["actual_bytes"] == result.profile.actual_bytes


def test_profiler_off_leaves_trace_quiet():
    from repro.obs import TraceContext

    system = _medical_system()
    trace = TraceContext()
    system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace)
    assert not [s for s in trace.spans if s.name == "profile"]
    assert trace.metrics.counter("repro_profile_runs_total").value() == 0.0


# ----------------------------------------------------------------------
# StatsStore
# ----------------------------------------------------------------------

def test_store_first_observation_taken_directly():
    store = StatsStore(decay=0.5)
    store.observe_relation("R", rows=100.0)
    assert store.relation_rows("R") == 100.0


def test_store_exponential_decay():
    store = StatsStore(decay=0.5)
    store.observe_relation("R", rows=100.0)
    store.observe_relation("R", rows=200.0)
    assert store.relation_rows("R") == pytest.approx(150.0)
    store.observe_selectivity("a=b", 0.2)
    store.observe_selectivity("a=b", 0.4)
    assert store.selectivity("a=b") == pytest.approx(0.3)


def test_store_selectivity_clamped():
    store = StatsStore()
    store.observe_selectivity("k", 7.0)
    assert store.selectivity("k") == 1.0


def test_bad_decay_rejected():
    with pytest.raises(ReproError):
        StatsStore(decay=0.0)
    with pytest.raises(ReproError):
        StatsStore(decay=1.5)


def test_harvest_applies_relations_and_joins():
    _, profile = _profiled_run()
    store = StatsStore()
    applied = store.harvest(profile)
    assert applied >= 4  # 3 relations + at least one join path
    assert store.harvests == 1
    assert len(store) > 0
    for name in ("Insurance", "Nat_registry", "Hospital"):
        assert store.relation_rows(name) is not None


def test_table_stats_overlay():
    store = StatsStore()
    store.observe_relation("R", rows=10.0, distinct=(("a", 5.0),), widths=(("a", 4.0),))
    static = {"R": TableStats(999.0, {}), "S": TableStats(7.0, {})}
    overlaid = store.table_stats(static)
    assert overlaid["R"].rows == 10.0
    assert overlaid["S"].rows == 7.0  # unobserved passes through


def test_warm_store_tightens_estimate():
    system = _medical_system()
    store = StatsStore()
    _, cold = _profiled_run(QueryProfiler(selectivities=store), system)
    store.harvest(cold)
    _, warm = _profiled_run(QueryProfiler(selectivities=store), system)
    assert warm.estimated_bytes < cold.estimated_bytes
    assert warm.actual_bytes == cold.actual_bytes  # execution unchanged


def test_stats_aware_cost_model_replans():
    """A warm store re-ranks candidate strategies: observed join
    selectivities feed :func:`estimate_assignment_cost` through the
    plan search's ``selectivities``, changing the estimated cost even
    when the winning strategy happens to stay the same."""
    from repro.algebra.builder import build_plan
    from repro.algebra.optimizer import enumerate_join_orders
    from repro.baselines.exhaustive import cheapest_safe_plan, optimal_safe_assignment
    from repro.sql import parse_query

    system = _medical_system()
    base = {
        name: TableStats.of_table(table)
        for name, table in system.tables().items()
    }
    store = StatsStore()
    _, profile = _profiled_run(QueryProfiler(selectivities=store), system)
    store.harvest(profile)
    spec = parse_query(MEDICAL_QUERY, system.catalog)
    fed = store.table_stats(base)
    _, _, static_cost = cheapest_safe_plan(system.policy, system.catalog, spec, base)
    _, _, fed_cost = cheapest_safe_plan(
        system.policy, system.catalog, spec, fed, selectivities=store
    )

    def orders_feasible(stats, selectivities=None):
        return sum(
            optimal_safe_assignment(
                system.policy, build_plan(system.catalog, order), stats,
                selectivities=selectivities,
            )
            is not None
            for order in enumerate_join_orders(system.catalog, spec)
        )

    assert fed_cost != static_cost
    assert orders_feasible(fed, store) == orders_feasible(base)


def test_join_path_key_deterministic():
    from repro.algebra.joins import JoinPath

    a = JoinPath.of(("Holder", "Citizen"))
    b = JoinPath.of(("Holder", "Citizen"))
    assert join_path_key(a) == join_path_key(b)
    assert "=" in join_path_key(a)


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------

def test_profile_roundtrip_byte_stable(tmp_path):
    _, profile = _profiled_run()
    data = query_profile_to_dict(profile)
    first = tmp_path / "profile.json"
    second = tmp_path / "profile2.json"
    save_json(data, str(first))
    restored = query_profile_from_dict(load_json(str(first)))
    save_json(query_profile_to_dict(restored), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert restored.actual_bytes == profile.actual_bytes
    assert restored.canview_probes == profile.canview_probes
    assert len(restored.operators) == len(profile.operators)


def test_profile_from_dict_loads_artifact_with_block_counts():
    # Artifacts written before the block-streaming layer was removed
    # carry a ``block_counts`` object; it is ignored, not an error.
    _, profile = _profiled_run()
    data = query_profile_to_dict(profile)
    old = dict(data, block_counts={"hash_join": [2, 99], "project": [3, 150]})
    assert query_profile_to_dict(query_profile_from_dict(old)) == data


def test_profile_from_dict_rejects_garbage():
    with pytest.raises(ReproError):
        query_profile_from_dict({"transfers": []})
    with pytest.raises(ReproError):
        query_profile_from_dict({"operators": {}})


def test_stats_store_roundtrip(tmp_path):
    store = StatsStore(decay=0.25)
    store.observe_relation("R", rows=10.0, distinct=(("a", 5.0),))
    store.observe_selectivity("a=b", 0.125)
    path = tmp_path / "stats.json"
    save_json(stats_store_to_dict(store), str(path))
    restored = stats_store_from_dict(load_json(str(path)))
    assert restored.relation_rows("R") == 10.0
    assert restored.selectivity("a=b") == 0.125
    assert stats_store_to_dict(restored) == stats_store_to_dict(store)
    with pytest.raises(ReproError):
        stats_store_from_dict({"relations": {}})


# ----------------------------------------------------------------------
# Satellite 2: percentile edge cases + bench profile section
# ----------------------------------------------------------------------

def test_percentiles_empty():
    assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_percentiles_single_sample():
    pct = latency_percentiles([3.0])
    assert pct["p50"] == pct["p95"] == pct["p99"] == 3.0


def test_percentiles_true_nearest_rank():
    # p50 of five samples is the 3rd order statistic (ceil(0.5*5)=3),
    # not the 2nd that banker's rounding used to pick.
    pct = latency_percentiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert pct["p50"] == 3.0
    assert pct["p95"] == 5.0


def test_write_bench_json_profile_section(tmp_path):
    _, profile = _profiled_run()
    write_bench_json(
        "X", {"metric": 1.0}, directory=str(tmp_path), profile=profile
    )
    path = tmp_path / "BENCH_X.json"
    data = load_json(str(path))
    section = data["profile"]
    assert section["operators"] == len(profile.operators)
    assert section["actual_bytes"] == profile.actual_bytes
    assert section["misestimates"] == len(profile.misestimates)
    # A plain dict (e.g. an aggregated summary) is accepted too.
    write_bench_json(
        "X", {"metric": 1.0}, directory=str(tmp_path), profile={"operators": 3}
    )
    assert load_json(str(path))["profile"]["operators"] == 3


def test_render_profile_report_shape():
    _, profile = _profiled_run()
    report = render_profile_report(profile)
    assert "operators" in report and "transfers" in report
    assert "summary: estimated" in report
    assert "Est B" in report and "Actual B" in report


# ----------------------------------------------------------------------
# Satellite 1: Prometheus histogram exposition + quantile
# ----------------------------------------------------------------------

def test_histogram_exposition_validates():
    from repro.obs.export import parse_prometheus_text
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for value in (0.5, 3.0, 100.0, 1e9):
        registry.observe("repro_test_seconds", value, tenant="a")
    registry.observe("repro_test_seconds", 2.0, tenant="b")
    samples = parse_prometheus_text(registry.prometheus_text())
    assert "repro_test_seconds_bucket" in samples
    assert "repro_test_seconds_count" in samples


def test_histogram_validation_catches_violations():
    from repro.obs.export import parse_prometheus_text

    header = "# TYPE h histogram\n"
    ok = header + (
        'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 3\nh_count 2\n'
    )
    parse_prometheus_text(ok)
    with pytest.raises(ValueError, match="missing \\+Inf"):
        parse_prometheus_text(header + 'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
    with pytest.raises(ValueError, match="decrease"):
        parse_prometheus_text(
            header
            + 'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 2\nh_sum 3\nh_count 2\n'
        )
    with pytest.raises(ValueError, match="!= _count"):
        parse_prometheus_text(
            header
            + 'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 3\nh_count 9\n'
        )
    with pytest.raises(ValueError, match="no le label"):
        parse_prometheus_text(
            header + 'h_bucket{x="1"} 1\nh_sum 1\nh_count 1\n'
        )
    with pytest.raises(ValueError, match="non-numeric le"):
        parse_prometheus_text(
            header + 'h_bucket{le="abc"} 1\nh_sum 1\nh_count 1\n'
        )


def test_histogram_quantile():
    from repro.obs.metrics import Histogram

    histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
    assert histogram.quantile(0.5) is None
    for value in (0.5, 0.7, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 1.0
    assert histogram.quantile(0.75) == 10.0
    assert histogram.quantile(1.0) == 100.0
    histogram.observe(1e6)
    assert histogram.quantile(1.0) == 100.0  # +Inf rank reports last bound
    with pytest.raises(ValueError):
        histogram.quantile(0.0)


# ----------------------------------------------------------------------
# Service integration: per-tenant opt-in profiling
# ----------------------------------------------------------------------

def test_service_profiles_opted_in_tenant():
    import asyncio

    from repro.service import QueryService, TenantConfig

    system = _medical_system()
    store = StatsStore()

    async def run():
        service = QueryService(
            system,
            tenants=[
                TenantConfig("profiled", profile=True),
                TenantConfig("plain"),
            ],
            workers=2,
            stats_store=store,
        )
        await service.start()
        outcomes = [
            await service.submit(MEDICAL_QUERY, tenant="profiled"),
            await service.submit(MEDICAL_QUERY, tenant="plain"),
        ]
        await service.stop()
        return service, outcomes

    service, outcomes = asyncio.run(run())
    assert all(outcome.ok for outcome in outcomes)
    assert store.harvests == 1  # only the profiled tenant harvests
    snapshot = service.snapshot()
    assert snapshot["stats_store"] == {
        "observations": len(store),
        "harvests": 1,
    }
    runs = service.metrics.counter("repro_service_profile_runs_total")
    assert runs.value(tenant="profiled") == 1.0
    assert runs.value(tenant="plain") == 0.0


def test_tenant_config_profile_flag_roundtrip():
    from repro.service import TenantConfig

    config = TenantConfig.from_dict({"name": "t", "profile": True})
    assert config.profile is True
    assert "profile=True" in repr(config)
    assert TenantConfig("u").profile is False


def test_analyze_cli_bad_stats_file_exits_2(tmp_path):
    import io

    from repro.cli import main

    bad = tmp_path / "stats.json"
    bad.write_text("not json{", encoding="utf-8")
    out = io.StringIO()
    code = main(
        ["analyze", "--sql", "SELECT Patient FROM Hospital",
         "--stats", str(bad)],
        out=out,
    )
    assert code == 2
    assert "bad stats file" in out.getvalue()
