"""The unified tracing + metrics layer (spans, counters, exporters).

Covers the :mod:`repro.obs` primitives themselves (span stack
discipline, metric families, both text exporters and their validators)
and the end-to-end contracts the instrumentation promises:

* tracing is opt-in and inert — a run with ``trace=None`` returns
  results identical to an untraced run;
* every opened span is closed and the parent relation is acyclic, on
  happy paths and on deadline/degraded crash paths alike;
* every shipment of an audited run appears as exactly one ``transfer``
  span stamped with the covering-authorization id, and the span count
  equals the audit-log entry count;
* the covering authorization is computed once: the audit stamps it into
  the trace and the explain path reuses it, so the two always agree;
* :meth:`ExecutionResult.summary_dict` has a stable schema — keys are
  present (null/zero) even when the feature that fills them is off;
* ``BENCH_*.json`` files carry the schema version and producer stamp.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explain import explain_planning
from repro.analysis.reporting import (
    BENCH_GENERATED_BY,
    BENCH_SCHEMA_VERSION,
    write_bench_json,
)
from repro.core.authorization import Policy
from repro.core import planner as planner_module
from repro.core.profile import RelationProfile, observed_compositions
from repro.distributed import pipeline as pipeline_module
from repro.distributed.faults import FaultInjector
from repro.distributed.health import STATE_OPEN, HealthTracker
from repro.distributed.system import DistributedSystem
from repro.engine.audit import AuditLog
from repro.engine.deadline import DeadlineBudget
from repro.engine.resilience import RetryPolicy
from repro.exceptions import (
    AuditViolationError,
    ChaosInterrupt,
    DeadlineExceededError,
    DegradedExecutionError,
    InfeasiblePlanError,
    ReproError,
)
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    chrome_trace,
    jsonl_lines,
    parse_prometheus_text,
    validate_chrome_trace,
)
from repro.obs.hooks import (
    Hooks,
    ProfilerHooks,
    ServiceHooks,
    TracerHooks,
    hooks_for,
    service_hooks_for,
)
from repro.profiling import QueryProfiler
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

from tests.test_composition import chain_world

MEDICAL_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def _medical_system(trace=None):
    system = DistributedSystem(medical_catalog(), medical_policy(), trace=trace)
    system.load_instances(generate_instances(seed=7))
    return system


def _assert_well_formed(trace):
    """The two structural invariants every trace must satisfy."""
    assert trace.open_spans() == []
    for span in trace.spans:
        assert span.end is not None, f"{span!r} left open"
        if span.parent_id is not None:
            assert span.parent_id < span.span_id, "parent ids must be acyclic"


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_per_labelset(self):
        registry = MetricsRegistry()
        registry.inc("repro_x_total", 1, link="A->B")
        registry.inc("repro_x_total", 2, link="A->B")
        registry.inc("repro_x_total", 5, link="B->C")
        snapshot = registry.snapshot()["repro_x_total"]["series"]
        assert snapshot['{link="A->B"}'] == 3
        assert snapshot['{link="B->C"}'] == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("repro_x_total", -1)

    def test_gauge_sets_and_moves(self):
        registry = MetricsRegistry()
        registry.set_gauge("repro_g", 7.5)
        registry.set_gauge("repro_g", 2.5)
        assert registry.snapshot()["repro_g"]["series"][""] == 2.5

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.5, 3.0, 100.0, 1e9):
            registry.observe("repro_h", value)
        series = registry.snapshot()["repro_h"]["series"][""]
        assert series["count"] == 4
        assert series["le=1"] == 1
        assert series["le=4"] == 2
        assert series["le=256"] == 3
        assert series["le=+Inf"] == 4
        assert series["sum"] == pytest.approx(0.5 + 3.0 + 100.0 + 1e9)

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.inc("repro_x")
        with pytest.raises(ValueError):
            registry.set_gauge("repro_x", 1.0)

    def test_prometheus_text_round_trips_through_parser(self):
        registry = MetricsRegistry()
        registry.inc("repro_x_total", 3, server='S"1\\', mode="semi")
        registry.set_gauge("repro_g", 1.25)
        registry.observe("repro_h", 5.0)
        parsed = parse_prometheus_text(registry.prometheus_text())
        assert sum(parsed["repro_x_total"].values()) == 3
        assert list(parsed["repro_g"].values()) == [1.25]
        assert parsed["repro_h_count"][""] == 1
        assert parsed["repro_h_sum"][""] == 5.0

    def test_non_finite_samples_render_as_the_exposition_format_spells_them(self):
        registry = MetricsRegistry()
        registry.inc("repro_c_total", math.inf, kind="up")
        registry.set_gauge("repro_g", -math.inf, kind="down")
        registry.set_gauge("repro_g", math.nan, kind="lost")
        registry.observe("repro_h", math.nan)
        registry.observe("repro_h", math.inf)
        text = registry.prometheus_text()
        assert 'repro_c_total{kind="up"} +Inf\n' in text
        assert 'repro_g{kind="down"} -Inf\n' in text
        assert 'repro_g{kind="lost"} NaN\n' in text
        assert "repro_h_sum NaN\n" in text
        # Neither observation is <= a finite bound.
        assert 'repro_h_bucket{le="65536"} 0\n' in text
        assert 'repro_h_bucket{le="+Inf"} 2\n' in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_c_total"]['{kind="up"}'] == math.inf
        assert parsed["repro_g"]['{kind="down"}'] == -math.inf
        assert math.isnan(parsed["repro_g"]['{kind="lost"}'])
        assert math.isnan(parsed["repro_h_sum"][""])
        assert parsed["repro_h_count"][""] == 2

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not a metric line\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x{unclosed=1\n")

    def test_parser_rejects_incomplete_histogram(self):
        # A declared histogram missing _count/_sum is malformed.
        text = "# TYPE repro_h histogram\n" 'repro_h_bucket{le="+Inf"} 1\n'
        with pytest.raises(ValueError):
            parse_prometheus_text(text)


# ----------------------------------------------------------------------
# The registry's series index against the families' own label handling
# ----------------------------------------------------------------------

#: Label values that are ``==`` (and hash alike) but render differently,
#: values the index must refuse (floats, unhashable) and plain strings.
_LABEL_VALUES = st.sampled_from(
    [1, True, 1.0, "1", 0, False, 0.0, -0.0, None, "None", "a", "", math.nan, (1,), [1]]
)
_LABELS = st.dictionaries(st.sampled_from(["k", "j", "le"]), _LABEL_VALUES, max_size=2)
_AMOUNTS = st.sampled_from([1, 2.5, 0, -1, 1e9, math.inf])
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "set_gauge", "observe"]),
        st.sampled_from(["repro_a", "repro_b", "repro_c"]),
        _LABELS,
        _AMOUNTS,
        st.booleans(),  # keyword order reversed
    ),
    max_size=40,
)


def _apply(registry, direct, verb, name, labels, amount):
    """One operation through the registry's verb, or on the family."""
    try:
        if not direct:
            getattr(registry, verb)(name, amount, **labels)
        elif verb == "inc":
            registry.counter(name).inc(amount, **labels)
        elif verb == "set_gauge":
            registry.gauge(name).set(amount, **labels)
        else:
            registry.histogram(name).observe(amount, **labels)
    except ValueError as error:  # another kind's name, a negative amount
        return str(error)
    return None


class TestSeriesIndex:
    def test_equal_values_that_render_differently_stay_apart(self):
        registry = MetricsRegistry()
        for value in (1, True, 1.0, "1"):
            for _ in range(2):
                registry.inc("repro_x_total", k=value)
        series = registry.snapshot()["repro_x_total"]["series"]
        # `1` and `"1"` are one series to `_labelset` (both render "1").
        assert series == {'{k="1"}': 4, '{k="True"}': 2, '{k="1.0"}': 2}

    def test_labelset_runs_on_the_first_touch_of_a_series_only(self, monkeypatch):
        import repro.obs.metrics as metrics

        calls = []
        real = metrics._labelset
        monkeypatch.setattr(
            metrics, "_labelset", lambda labels: calls.append(labels) or real(labels)
        )
        registry = MetricsRegistry()
        for _ in range(5):
            registry.inc("repro_x_total", tenant="t", status="ok")
            registry.inc("repro_x_total", status="ok", tenant="t")  # one more index entry
            registry.set_gauge("repro_g", 3)
            registry.observe("repro_h", 0.5, tenant="t")
        assert len(calls) == 4
        assert registry.counter("repro_x_total").value(tenant="t", status="ok") == 10
        # What the index will not vouch for resolves on every call.
        for _ in range(3):
            registry.inc("repro_x_total", tenant=0.0)
            registry.inc("repro_x_total", tenant=["t"])
        assert len(calls) == 4 + 1 + 6

    def test_a_refused_operation_is_refused_the_same_through_the_index(self):
        registry = MetricsRegistry()
        registry.inc("repro_x", k="v")
        for _ in range(2):  # second round: the counter's series is indexed
            with pytest.raises(ValueError, match="already registered as counter"):
                registry.set_gauge("repro_x", 1.0, k="v")
            with pytest.raises(ValueError, match="already registered as counter"):
                registry.observe("repro_x", 1.0, k="v")
            with pytest.raises(ValueError, match="counters only go up"):
                registry.inc("repro_x", -1, k="v")
        assert registry.snapshot()["repro_x"]["series"] == {'{k="v"}': 1}

    @settings(max_examples=150, deadline=None)
    @given(_OPERATIONS)
    def test_indexed_and_direct_paths_export_the_same_bytes(self, operations):
        indexed, direct = MetricsRegistry(), MetricsRegistry()
        for verb, name, labels, amount, reverse in operations:
            if reverse:
                labels = dict(reversed(labels.items()))
            assert _apply(indexed, False, verb, name, labels, amount) == _apply(
                direct, True, verb, name, labels, amount
            )
        assert indexed.prometheus_text() == direct.prometheus_text()
        assert json.dumps(indexed.snapshot(), sort_keys=True) == json.dumps(
            direct.snapshot(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_nesting_assigns_parents_in_order(self):
        trace = TraceContext(clock=lambda: 0.0)
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        _assert_well_formed(trace)

    def test_span_handle_stamps_error_on_exception(self):
        trace = TraceContext(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with trace.span("work"):
                raise RuntimeError("boom")
        span = trace.spans_named("work")[0]
        assert span.attrs["error"] == "RuntimeError"
        _assert_well_formed(trace)

    def test_end_closes_abandoned_children(self):
        trace = TraceContext(clock=lambda: 0.0)
        outer = trace.begin("outer")
        trace.begin("leaked")
        trace.end(outer)
        leaked = trace.spans_named("leaked")[0]
        assert leaked.end is not None
        assert leaked.attrs["abandoned"] is True
        _assert_well_formed(trace)

    def test_events_attach_to_innermost_span(self):
        trace = TraceContext(clock=lambda: 0.0)
        with trace.span("outer") as outer:
            event = trace.event("tick", "test", value=1)
        assert event.parent_id == outer.span_id
        assert trace.event("orphan").parent_id is None

    def test_explicit_clock_is_not_overridden(self):
        trace = TraceContext(clock=lambda: 42.0)
        trace.maybe_use_clock(lambda: 7.0)
        assert trace.now() == 42.0
        trace.use_clock(lambda: 7.0)
        assert trace.now() == 7.0

    def test_unpinned_clock_adopts_the_simulation(self):
        trace = TraceContext()
        trace.maybe_use_clock(lambda: 13.0)
        assert trace.now() == 13.0

    def test_record_span_is_retroactive_and_rootless(self):
        trace = TraceContext(clock=lambda: 0.0)
        with trace.span("live"):
            span = trace.record_span("past", "simulation", 1.0, 3.0, track="S1")
        assert span.parent_id is None
        assert span.duration == 2.0
        _assert_well_formed(trace)

    def test_count_feeds_the_registry(self):
        trace = TraceContext()
        trace.count("repro_x_total", 2, server="S1")
        series = trace.metrics.snapshot()["repro_x_total"]["series"]
        assert series['{server="S1"}'] == 2


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _sample_trace(self):
        clock = iter(range(100))
        trace = TraceContext(clock=lambda: float(next(clock)))
        with trace.span("plan", "planner"):
            with trace.span("transfer", "engine", track="S_I", link="S_I->S_N"):
                trace.event("retry", "resilience", attempt=2)
        return trace

    def test_jsonl_lines_are_valid_and_seq_ordered(self):
        trace = self._sample_trace()
        records = [json.loads(line) for line in jsonl_lines(trace)]
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        kinds = [r["type"] for r in records]
        assert kinds.count("span") == 2 and kinds.count("event") == 1

    def test_chrome_trace_validates(self):
        document = chrome_trace(self._sample_trace())
        assert validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert names == {"plan", "transfer"}

    def test_chrome_tracks_become_named_threads(self):
        document = chrome_trace(self._sample_trace())
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        named = {e["args"]["name"] for e in metadata}
        assert "S_I" in named and "main" in named

    def test_validator_flags_broken_documents(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        bad_event = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(bad_event))


# ----------------------------------------------------------------------
# End-to-end: traced executions
# ----------------------------------------------------------------------


class TestTracedExecution:
    def test_trace_off_results_match_traced_results(self):
        plain = _medical_system().execute(MEDICAL_QUERY)
        trace = TraceContext()
        traced = _medical_system(trace=trace).execute(MEDICAL_QUERY, trace=trace)
        assert traced.table.rows == plain.table.rows
        assert traced.transfers.total_bytes() == plain.transfers.total_bytes()
        _assert_well_formed(trace)

    def test_transfer_spans_match_audit_entries_exactly(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        result = system.execute(
            MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace
        )
        transfers = trace.spans_named("transfer")
        assert len(transfers) == len(result.audit.checked)
        for span in transfers:
            assert span.attrs["delivered"] is True
            assert span.attrs.get("violation") is not True
            assert isinstance(span.attrs["auth_id"], int)

    def test_auth_ids_name_real_covering_rules(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace)
        valid_ids = {system.policy.rule_id(rule) for rule in system.policy}
        for span in trace.spans_named("transfer"):
            assert span.attrs["auth_id"] in valid_ids

    def test_planner_spans_cover_the_figure6_phases(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.plan(MEDICAL_QUERY, trace=trace)
        names = {span.name for span in trace.spans}
        assert {"plan", "find_candidates", "assign_ex", "enumerate_candidates"} <= names
        plan_span = trace.spans_named("plan")[0]
        assert plan_span.attrs["root_master"] in {s.name for s in system.servers()}

    def test_canview_metrics_split_hits_and_misses(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.plan(MEDICAL_QUERY, trace=trace)
        snapshot = trace.metrics.snapshot()
        calls = sum(snapshot["repro_canview_calls_total"]["series"].values())
        misses = sum(snapshot["repro_canview_cache_misses_total"]["series"].values())
        hits = sum(
            snapshot.get("repro_canview_cache_hits_total", {"series": {}})[
                "series"
            ].values()
        )
        assert calls == hits + misses
        assert misses > 0

    def test_closure_spans_count_the_chase(self):
        trace = TraceContext()
        DistributedSystem(medical_catalog(), medical_policy(), trace=trace)
        close = trace.spans_named("close_policy")
        assert len(close) == 1
        rounds = trace.spans_named("chase_round")
        assert rounds and all(s.parent_id == close[0].span_id for s in rounds)
        snapshot = trace.metrics.snapshot()
        assert sum(snapshot["repro_chase_rounds_total"]["series"].values()) == len(
            rounds
        )

    def test_composition_observer_sees_figure4_operators(self):
        seen = []
        with observed_compositions(seen.append):
            _medical_system().plan(MEDICAL_QUERY)
        assert "join" in seen and "project" in seen
        seen.clear()
        _medical_system().plan(MEDICAL_QUERY)
        assert seen == []  # observer restored on exit

    def test_retry_and_failover_emit_events(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        faults = FaultInjector(seed=3, drop_probability=0.3)
        system.execute(
            MEDICAL_QUERY,
            faults=faults,
            retry=RetryPolicy(max_attempts=4, base_delay=0.5),
            trace=trace,
        )
        assert any(e.name == "attempt_failed" for e in trace.events)
        snapshot = trace.metrics.snapshot()
        assert sum(snapshot["repro_retries_total"]["series"].values()) > 0
        _assert_well_formed(trace)

    def test_crash_paths_leave_no_open_spans(self):
        # Deadline death mid-run: the trace must still be structurally
        # sound after close_all (the CLI's crash-path hygiene).
        trace = TraceContext()
        system = _medical_system(trace=trace)
        faults = FaultInjector(seed=1, drop_probability=0.9)
        with pytest.raises((DeadlineExceededError, DegradedExecutionError)):
            system.execute(
                MEDICAL_QUERY,
                faults=faults,
                retry=RetryPolicy(max_attempts=3, base_delay=1.0),
                deadline=DeadlineBudget(40.0),
                trace=trace,
            )
        trace.close_all()
        _assert_well_formed(trace)
        assert any(e.name == "deadline_charge" for e in trace.events)

    def test_execute_attempt_spans_track_failover_rounds(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        faults = FaultInjector(seed=0)
        faults.crash("S_N", start=1.0, end=1e9)
        try:
            system.execute(
                MEDICAL_QUERY,
                faults=faults,
                retry=RetryPolicy(max_attempts=2, base_delay=0.5),
                trace=trace,
            )
        except DegradedExecutionError:
            pass
        trace.close_all()
        rounds = trace.spans_named("execute_attempt")
        assert rounds
        assert [span.attrs["round"] for span in rounds] == list(range(len(rounds)))
        assert any(e.name == "failover" for e in trace.events) or len(rounds) == 1

    def test_deadline_events_and_gauge(self):
        trace = TraceContext(clock=lambda: 0.0)
        budget = DeadlineBudget(10.0)
        budget.bind_trace(trace)
        budget.charge(4.0, "shipment A->B")
        snapshot = trace.metrics.snapshot()
        assert snapshot["repro_deadline_remaining"]["series"][""] == 6.0
        assert sum(snapshot["repro_deadline_spend_total"]["series"].values()) == 4.0
        with pytest.raises(DeadlineExceededError):
            budget.charge(7.0, "shipment B->C")
        events = [e for e in trace.events if e.name == "deadline_charge"]
        assert len(events) == 2  # the killing charge is still recorded

    def test_checkpoint_events_on_record_and_verify(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        faults = FaultInjector(seed=0)
        result = system.execute(
            MEDICAL_QUERY, faults=faults, checkpoint=True, trace=trace
        )
        journal = result.checkpoint
        assert journal is not None and len(journal) > 0
        recorded = [e for e in trace.events if e.name == "checkpoint_record"]
        assert len(recorded) == len(journal)
        tree, _, _ = system.plan(MEDICAL_QUERY)
        journal.verify(system.policy, tree)
        assert any(e.name == "checkpoint_verify" for e in trace.events)
        snapshot = trace.metrics.snapshot()
        verified = snapshot["repro_checkpoints_verified_total"]["series"]
        assert sum(verified.values()) == len(journal)

    def test_breaker_transitions_are_traced(self):
        catalog = quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])
        rules = []
        for party in ("TP1", "TP2"):
            rules += [
                grant(party, "a b"),
                grant(party, "c d"),
                grant(party, "a b c d", "a = c"),
            ]
        trace = TraceContext()
        system = DistributedSystem(
            catalog, Policy(rules), third_parties=["TP1", "TP2"], trace=trace
        )
        system.load_instances(
            {
                "R": [{"a": i % 7, "b": i} for i in range(60)],
                "T": [{"c": i % 7, "d": i * 3} for i in range(60)],
            }
        )
        health = HealthTracker()
        query = "SELECT a, b, c, d FROM R JOIN T ON a = c"
        for trial in range(4):
            faults = FaultInjector(seed=trial)
            faults.crash("TP1", start=1.0, end=1e9)
            try:
                system.execute(
                    query,
                    faults=faults,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.5),
                    health=health,
                    trace=trace,
                )
            except (DegradedExecutionError, ReproError):
                pass
        trace.close_all()
        transitions = [e for e in trace.events if e.name == "breaker_transition"]
        opens = [e for e in transitions if e.attrs["new"] == STATE_OPEN]
        assert opens, "the flapping coordinator must trip a breaker"
        snapshot = trace.metrics.snapshot()
        counted = sum(snapshot["repro_breaker_opens_total"]["series"].values())
        assert counted == len(opens)
        _assert_well_formed(trace)

    def test_simulation_records_retroactive_task_spans(self):
        trace = TraceContext(clock=lambda: 0.0)
        system = _medical_system()
        sim = system.simulate_concurrent([MEDICAL_QUERY] * 2, trace=trace)
        task_spans = [s for s in trace.spans if s.category == "simulation"]
        assert task_spans
        assert all(s.parent_id is None and s.end is not None for s in task_spans)
        snapshot = trace.metrics.snapshot()
        assert snapshot["repro_sim_makespan"]["series"][""] == sim.makespan


# ----------------------------------------------------------------------
# Satellite 1: audit and explain share one covering computation
# ----------------------------------------------------------------------


class TestCoveringAuthorizationReuse:
    """The audit stamp, explain's rule and ``Policy.covering_rule`` are
    one memoized answer, traced or not."""

    def test_cached_rule_is_reused_not_recomputed(self, policy):
        profile = RelationProfile(["Holder", "Plan"])
        found = policy.covering_rule(profile, "S_I")
        assert found is not None
        misses = policy.uncached_can_view_calls
        assert AuditLog(policy).authorize("S_N", "S_I", profile) == (True, found)
        assert policy.can_view(profile, "S_I")
        assert policy.covering_rule(profile, "S_I") is found
        assert policy.uncached_can_view_calls == misses

    def test_computation_populates_the_cache(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        result = system.execute(MEDICAL_QUERY, trace=trace)
        policy = system.policy
        misses = policy.uncached_can_view_calls
        stamped = [t for t in result.audit.checked if t.authorized_by is not None]
        assert stamped
        for transfer in stamped:
            rule = policy.covering_rule(transfer.profile, transfer.receiver)
            assert rule is transfer.authorized_by
        tree, _, _ = system.plan(MEDICAL_QUERY)
        explanations, _ = explain_planning(policy, tree)
        for explanation in explanations.values():
            for check in explanation.checks:
                rule = policy.covering_rule(check.profile, check.server)
                assert check.covering_rule is rule
        # The audit and the explanation asked nothing the run had not
        # already computed.
        assert policy.uncached_can_view_calls == misses

    def test_audit_stamps_and_explain_verdicts_agree(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace)
        tree, _, _ = system.plan(MEDICAL_QUERY)
        # The warm memo against a copy of the policy that memoized nothing.
        warm, feasible_warm = explain_planning(system.policy, tree)
        fresh, feasible_fresh = explain_planning(system.policy.copy(), tree)
        assert feasible_warm == feasible_fresh
        for node_id, explanation in fresh.items():
            warm_checks = warm[node_id].checks
            assert len(warm_checks) == len(explanation.checks)
            for cached, recomputed in zip(warm_checks, explanation.checks):
                assert cached.allowed == recomputed.allowed
                assert cached.covering_rule is recomputed.covering_rule

    def test_transfer_stamps_appear_among_explain_rules(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace)
        tree, _, _ = system.plan(MEDICAL_QUERY)
        explanations, _ = explain_planning(system.policy, tree)
        explain_ids = {
            system.policy.rule_id(check.covering_rule)
            for explanation in explanations.values()
            for check in explanation.checks
            if check.covering_rule is not None
        }
        for span in trace.spans_named("transfer"):
            assert span.attrs["auth_id"] in explain_ids


# ----------------------------------------------------------------------
# Satellite 2: stable summary schema
# ----------------------------------------------------------------------

SUMMARY_KEYS = {
    "rows",
    "result_server",
    "transfers",
    "bytes",
    "retries",
    "failovers",
    "audited",
    "violations",
    "breaker_trips",
    "deadline_budget",
    "deadline_spent",
    "deadline_remaining",
    "checkpointed",
    "resumed",
    "plan_cache_enabled",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_shape_hits",
    "plan_cache_negative_hits",
    "plan_cache_revalidations",
    "plan_cache_revalidation_failures",
}


class TestSummarySchema:
    def test_all_keys_present_with_features_off(self):
        summary = _medical_system().execute(MEDICAL_QUERY).summary_dict()
        assert set(summary) == SUMMARY_KEYS
        assert summary["deadline_budget"] is None
        assert summary["deadline_spent"] == 0.0
        assert summary["deadline_remaining"] is None
        assert summary["breaker_trips"] == 0
        assert summary["checkpointed"] == 0
        assert json.dumps(summary)  # JSON-safe by construction

    def test_plan_cache_keys_present_with_cache_off(self):
        system = DistributedSystem(
            medical_catalog(), medical_policy(), plan_cache=False
        )
        system.load_instances(generate_instances(seed=7))
        summary = system.execute(MEDICAL_QUERY).summary_dict()
        assert set(summary) == SUMMARY_KEYS
        assert summary["plan_cache_enabled"] is False
        assert summary["plan_cache_hits"] == 0
        assert summary["plan_cache_misses"] == 0

    def test_plan_cache_counters_surface_in_summary(self):
        system = _medical_system()
        system.execute(MEDICAL_QUERY)
        summary = system.execute(MEDICAL_QUERY).summary_dict()
        assert summary["plan_cache_enabled"] is True
        assert summary["plan_cache_misses"] == 1
        assert summary["plan_cache_hits"] == 1
        assert summary["plan_cache_revalidation_failures"] == 0

    def test_same_keys_with_features_on(self):
        system = _medical_system()
        result = system.execute(
            MEDICAL_QUERY,
            faults=FaultInjector(seed=0),
            deadline=DeadlineBudget(5000.0),
            health=HealthTracker(),
            checkpoint=True,
        )
        summary = result.summary_dict()
        assert set(summary) == SUMMARY_KEYS
        assert summary["deadline_budget"] == 5000.0
        assert summary["deadline_remaining"] is not None
        assert summary["checkpointed"] == len(result.checkpoint)


# ----------------------------------------------------------------------
# Satellite 6: bench-file stamps
# ----------------------------------------------------------------------


class TestBenchJsonStamp:
    def test_stamp_and_schema_written(self, tmp_path):
        path = write_bench_json("STAMP", {"section": {"x": 1}}, directory=tmp_path)
        data = json.loads(open(path).read())
        assert data["schema"] == BENCH_SCHEMA_VERSION
        assert data["generated_by"] == BENCH_GENERATED_BY
        assert data["section"] == {"x": 1}

    def test_merge_preserves_sections_and_upgrades_stamp(self, tmp_path):
        write_bench_json("STAMP", {"a": 1}, directory=tmp_path)
        path = write_bench_json("STAMP", {"b": 2}, directory=tmp_path)
        data = json.loads(open(path).read())
        assert data["a"] == 1 and data["b"] == 2
        assert data["schema"] == BENCH_SCHEMA_VERSION

    def test_metrics_snapshot_section(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("repro_x_total", 4, link="A->B")
        path = write_bench_json("STAMP", {}, directory=tmp_path, metrics=registry)
        data = json.loads(open(path).read())
        assert data["metrics"]["repro_x_total"]["series"]['{link="A->B"}'] == 4


class TestLatencySection:
    def test_percentiles_nearest_rank(self):
        from repro.analysis.reporting import latency_percentiles

        samples = [float(i) for i in range(1, 101)]  # 1.0 .. 100.0
        pct = latency_percentiles(samples)
        assert pct == {"p50": 50.0, "p95": 95.0, "p99": 99.0}

    def test_percentiles_tiny_sample_is_deterministic(self):
        from repro.analysis.reporting import latency_percentiles

        pct = latency_percentiles([3.0, 1.0])
        # nearest-rank on 2 samples: p50 -> first, p95/p99 -> second
        assert pct == {"p50": 1.0, "p95": 3.0, "p99": 3.0}
        assert latency_percentiles([7.5]) == {
            "p50": 7.5, "p95": 7.5, "p99": 7.5,
        }

    def test_percentiles_empty_is_zero_filled(self):
        from repro.analysis.reporting import latency_percentiles

        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_latency_section_always_has_all_keys(self, tmp_path):
        path = write_bench_json(
            "STAMP", {}, directory=tmp_path, latency={"p50": 0.125}
        )
        data = json.loads(open(path).read())
        assert data["latency"] == {"p50": 0.125, "p95": 0.0, "p99": 0.0}

    def test_latency_section_absent_when_not_passed(self, tmp_path):
        path = write_bench_json("STAMP", {"a": 1}, directory=tmp_path)
        data = json.loads(open(path).read())
        assert "latency" not in data


# ----------------------------------------------------------------------
# CLI export flags
# ----------------------------------------------------------------------


class TestCliObservability:
    def test_execute_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.prom"
        code = main(
            [
                "execute",
                "--sql",
                MEDICAL_QUERY,
                "--drop-rate",
                "0.2",
                "--trace-out",
                str(trace_path),
                "--trace-format",
                "chrome",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        assert parse_prometheus_text(metrics_path.read_text())

    def test_failed_run_still_exports_the_trace(self, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "failed.jsonl"
        code = main(
            [
                "execute",
                "--sql",
                MEDICAL_QUERY,
                "--drop-rate",
                "0.95",
                "--deadline",
                "30",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code in (3, 4)
        lines = trace_path.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)


# ----------------------------------------------------------------------
# The instrumentation seam (repro.obs.hooks)
# ----------------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent
SPINE = (
    "engine/executor.py",
    "distributed/pipeline.py",
    "core/planner.py",
    "sharding/executor.py",
)
#: ``(trace|profiler|obs|span) is (not )?None`` tests the four spine
#: files may hold together: constructor adaptation of the public
#: ``trace=`` / ``obs=`` / ``profiler=`` keywords, nothing per site.
GUARD_CEILING = 5
#: The service shell: the files that call its listener.
SERVICE = (
    "service/service.py",
    "service/admission.py",
    "service/flights.py",
    "service/runner.py",
)
#: Guard lines in the service shell and in the function assembling its
#: listener (``make census`` prints the counts): constructor adaptation,
#: kill / recover and ``snapshot()`` only; it may only go down.
SERVICE_GUARD = re.compile(
    r"(monitor|journal|chaos|health|faults|trace|profiler|observer|listener)"
    r" is (not )?None"
)
SERVICE_GUARD_CEILING = 11
SERVICE_EVENTS = sorted(
    name for name, member in vars(ServiceHooks).items()
    if callable(member) and not name.startswith("_")
)

EVENTS = sorted(
    name for name, member in vars(Hooks).items()
    if callable(member) and not name.startswith("_") and name != "counting_can_view"
)
#: What may be open directly around each kind of region.  A plan sits
#: under a shard (health/checkpoint refinement), under a unit (the
#: replan after a failed attempt) or at the root; the closing delivery
#: to the recipient ships outside every node.
PARENTS = {
    "shards": {None},
    "shard": {None, "shards"},
    "unit": {"shard"},
    "attempt": {"unit"},
    "node": {"unit", "attempt", "node"},
    "ship": {"unit", "attempt", "node"},
    "plan": {None, "shard", "unit"},
    "enumerate": {"plan"},
}


class Recorder(Hooks):
    """Forwards every event to the run's real listener and records it,
    checking begin/end pairing and nesting on the way."""

    def __init__(self, inner, log):
        self.inner, self.log, self.stack = inner, log, []

    @property
    def trace(self):
        return self.inner.trace

    def counting_can_view(self, inner, policy):
        return self.inner.counting_can_view(inner, policy)

    def _record(self, name, args):
        self.log.append(name)
        kind, _, edge = name.rpartition("_")
        if edge == "begin":
            parent = self.stack[-1] if self.stack else None
            assert parent in PARENTS[kind], f"{kind} opened under {parent}"
            self.stack.append(kind)
        elif edge == "end":
            assert self.stack and self.stack.pop() == kind, f"{name} is not LIFO"
        return getattr(self.inner, name)(*args)


for _event in EVENTS:
    setattr(
        Recorder, _event,
        lambda self, *args, _name=_event: self._record(_name, args),
    )


@pytest.fixture
def recorded(monkeypatch):
    """Every listener the planner and the pipeline ask for is wrapped in
    a :class:`Recorder`; yields the recorders made so far."""
    recorders = []

    def recording_hooks_for(trace=None, profiler=None):
        recorders.append(Recorder(hooks_for(trace, profiler), []))
        return recorders[-1]

    monkeypatch.setattr(planner_module, "hooks_for", recording_hooks_for)
    monkeypatch.setattr(pipeline_module, "hooks_for", recording_hooks_for)
    return recorders


class _RevokingFaults(FaultInjector):
    """Revokes ``rules`` right after the run's first delivered shipment:
    the plan in flight is stale from then on, and only the audit before
    each later shipment can know."""

    def __init__(self, system, rules):
        super().__init__(seed=0)
        self._system, self._rules = system, list(rules)

    def attempt(self, sender, receiver, byte_size):
        outcome = super().attempt(sender, receiver, byte_size)
        while self._rules:
            self._system.revoke_authorization(self._rules.pop())
        return outcome


class _InterruptAt:
    """A chaos schedule that kills the unit at one stage."""

    def __init__(self, stage):
        self._stage = stage

    def fire(self, point, stage=None):
        if stage == self._stage:
            raise ChaosInterrupt(f"killed at {stage}", point=point, stage=stage)


def _medical_world():
    return _medical_system(), MEDICAL_QUERY, "S_H", {
        "infeasible": "SELECT Patient, Plan FROM Hospital JOIN Insurance ON Patient = Holder",
    }


def _chain_world():
    system, _, query, recipient = chain_world()
    # The closing delivery to S1 loses its rule and what re-derives it.
    stale = [grant("S1", "a b c d", "a = c"), grant("S1", "c d")]
    return system, query, recipient, {"stale": stale}


def _exit_options(exit, system, query, recipient, extra):
    """``(query, options, expected error)`` of one way a run can end."""
    if exit == "ok":
        return query, {}, None
    if exit == "infeasible":
        if "infeasible" not in extra:
            system.revoke_authorization(grant("S1", "c d"))
            system.revoke_authorization(grant("S2", "a b"))
        return extra.get("infeasible", query), {}, InfeasiblePlanError
    if exit == "degraded":
        options = {
            "faults": FaultInjector(seed=1, drop_probability=1.0),
            "retry": RetryPolicy(max_attempts=2, base_delay=0.5),
            "max_failovers": 1,
        }
        return query, options, DegradedExecutionError
    if exit == "audit":
        stale = extra.get("stale")
        if stale is None:
            # The plan's last shipment is covered by an explicit rule
            # nothing re-derives: gone once the first one delivered.
            done = system.execute(query, recipient=recipient)
            stale = [done.transfers.transfers[-1].authorized_by]
        options = {"faults": _RevokingFaults(system, stale), "verify": False}
        return query, options, AuditViolationError
    assert exit in ("chaos-pre", "chaos-post")
    return query, {"chaos": _InterruptAt(exit[6:])}, ChaosInterrupt


EXITS = ("ok", "infeasible", "degraded", "audit", "chaos-pre", "chaos-post")
WORLDS = {"medical": _medical_world, "chain": _chain_world}


def _run_to_exit(world, exit, trace=None, profiler=None):
    system, query, recipient, extra = WORLDS[world]()
    query, options, expected = _exit_options(exit, system, query, recipient, extra)
    run = lambda: system.execute(  # noqa: E731
        query, recipient=recipient, trace=trace, profiler=profiler, **options
    )
    if expected is None:
        return system, run()
    with pytest.raises(expected):
        run()
    return system, None


class TestSeamContract:
    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("exit", EXITS)
    def test_every_begin_has_its_end_whoever_listens(self, recorded, world, exit):
        sequences = []
        for traced, profiled in itertools.product((False, True), repeat=2):
            del recorded[:]
            trace = TraceContext() if traced else None
            profiler = QueryProfiler() if profiled else None
            _run_to_exit(world, exit, trace, profiler)
            # Pairing and nesting were checked event by event; nothing
            # is left open, in the recorders or in what they wrap.
            assert all(recorder.stack == [] for recorder in recorded)
            if traced:
                assert trace.open_spans() == []
            if profiled:
                assert profiler.active is None
            # (A per-call trace gets a planner of its own, so which
            # recorder heard the planning differs; what was heard must not.)
            sequences.append(sorted(recorder.log for recorder in recorded if recorder.log))
        assert sequences[0] and all(seq == sequences[0] for seq in sequences[1:])

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_the_null_listener_hears_a_bounded_number_of_calls(self, recorded, world):
        system, query, recipient, _ = WORLDS[world]()
        system.execute(query, recipient=recipient)  # plans; warm from here
        del recorded[:]
        result = system.execute(query, recipient=recipient)
        nodes = len(list(system.plan(query)[0]))
        (request,) = [recorder.log for recorder in recorded if recorder.log]
        # node begin/end, ship begin/end, unit and shard begin/end: one
        # no-op bound call each, nothing else on a healthy request.
        assert len(request) == 2 * nodes + 2 * len(result.transfers) + 4
        del recorded[:]
        with pytest.raises(DegradedExecutionError):
            system.execute(
                query, recipient=recipient, max_failovers=1,
                faults=FaultInjector(seed=1, drop_probability=1.0),
                retry=RetryPolicy(max_attempts=2, base_delay=0.5),
            )
        pipeline = max((recorder.log for recorder in recorded), key=len)
        attempts = pipeline.count("attempt_begin")
        executed = pipeline.count("node_begin") + pipeline.count("ship_begin")
        # Under faults: the clock binding, and per attempt its
        # begin/end and the failover that follows it.
        assert attempts == 2
        assert len(pipeline) == 2 * executed + 4 + 1 + 3 * attempts

    def test_a_sharded_request_reports_each_shard_inside_one_execute(self, recorded):
        system, schemes, query, recipient = chain_world()
        system.execute_sharded(query, schemes, recipient=recipient)
        del recorded[:]
        trace = TraceContext()
        result = system.execute_sharded(query, schemes, recipient=recipient, trace=trace)
        (request,) = [recorder.log for recorder in recorded if recorder.log]
        assert (request[0], request[-2:]) == ("shards_begin", ["shard_commit", "shards_end"])
        assert request.count("shard_begin") == request.count("unit_begin") == result.shards
        assert len(trace.spans_named("shard")) == result.shards

    def test_hooks_module_has_no_event_without_a_listener_and_a_call_site(self):
        spine = "".join(
            (REPO / "src/repro" / name).read_text() for name in SPINE
        )
        rendered = set(vars(TracerHooks)) | set(vars(ProfilerHooks))
        for event in EVENTS + ["counting_can_view"]:
            assert event in rendered, f"{event} has no non-null implementation"
            assert f".{event}(" in spine, f"{event} has no call site"

    def test_service_hooks_have_no_event_without_a_listener_and_a_call_site(self):
        from repro.chaos import ChaosSchedule, InvariantMonitor, ServiceJournal

        shell = "".join((REPO / "src/repro" / name).read_text() for name in SERVICE)
        rendered = set(vars(InvariantMonitor)) | set(vars(ServiceJournal)) | set(
            vars(ChaosSchedule)
        )
        assert SERVICE_EVENTS
        for event in SERVICE_EVENTS:
            assert event in rendered, f"{event} has no non-null implementation"
            assert f"hooks.{event}(" in shell, f"{event} has no call site"

    def test_census_no_variants_no_rebinding_no_guard_clusters(self):
        sources = sorted((REPO / "src").rglob("*.py"))
        assert sources
        assert not (REPO / "src/repro/algebra/expression.py").exists(), "a second algebra"
        assert not (REPO / "src/repro/core/costplanner.py").exists(), "a second plan search"
        assert not (REPO / "src/repro/sharding/shuffle.py").exists(), "a second sharded path"
        policy = REPO / "src/repro/core/authorization.py"
        open_policy = REPO / "src/repro/core/openpolicy.py"
        for path in sources:
            text = path.read_text()
            assert not re.search(r"_traced|_profiled", text), path
            if path != REPO / "src/repro/distributed/pipeline.py":
                assert "DistributedExecutor(" not in text, f"{path}: a second execution site"
            # One CanView: the method on the two policy classes, nothing else.
            if path not in (policy, open_policy):
                assert not re.search(r"def can_view\(", text), f"{path}: a second CanView"
            # One CanView kernel and one covering-rule memo (the Policy's).
            assert not re.search(
                r"can_view_batch|batch_canview|covering_for|record_covering"
                r"|pin_covering_epoch|\bMISSING\b",
                text,
            ), f"{path}: a second CanView kernel or covering memo"
            assert not re.search(r"\bpermits\b", text), f"{path}: the permits duck-type"
            # One exact safe-assignment search: no health pricing, no
            # second join-order search, no enumerate-and-price.
            assert not re.search(r"penalty_factor|quarantine_penalty", text), path
            assert not re.search(r"def (greedy_join_order|optimize_join_order)\(", text), path
            assert not re.search(
                r"^(?!\s*def ).*enumerate_(safe|structural)_assignments\(", text, re.M
            ), f"{path}: enumerate-and-price"
            # One sharded ladder: hypercube or single-copy, no multi-round rung.
            assert not re.search(r"multi-?round", text, re.I), f"{path}: the multi-round rung"
            methods = set(re.findall(r"^\s*def (\w+)\(", text, re.M))
            for target, source in re.findall(
                r"^\s*self\.(\w+) = self\.(\w+)\s*(?:#.*)?$", text, re.M
            ):
                assert source not in methods, f"{path}: self.{target} = self.{source}"
        guards = {
            name: len(re.findall(
                r"(trace|profiler|obs|span) is (not )?None",
                (REPO / "src/repro" / name).read_text(),
            ))
            for name in SPINE
        }
        assert sum(guards.values()) <= GUARD_CEILING, guards
        shell = [(REPO / "src/repro" / name).read_text() for name in SERVICE]
        shell.append(inspect.getsource(service_hooks_for))
        service_guards = [
            line
            for text in shell
            for line in text.splitlines()
            if SERVICE_GUARD.search(line)
        ]
        assert len(service_guards) <= SERVICE_GUARD_CEILING, service_guards
        # One pipeline-building site and one flight-opening site in the
        # service package, and one owner of every refusal.
        package = {
            path.name: path.read_text()
            for path in (REPO / "src/repro/service").glob("*.py")
        }

        def sites(pattern):
            return [name for name, text in package.items() for _ in re.findall(pattern, text)]

        assert sites(r"\.pipeline\(") == ["runner.py"]
        assert sites(r"self\._flights\[[^]]*\] = ") == ["flights.py"]
        assert sites(r"request_id is not None") == []
        admission = REPO / "src/repro/service/admission.py"
        refusals = [
            path for path in sources
            if path != admission and "Rejection(" in path.read_text()
        ]
        assert not refusals, f"a Rejection built outside service/admission.py: {refusals}"
        for name, bodies in {
            "core/planner.py": ("plan", "_find_candidates", "_admit_master"),
            "engine/executor.py": ("_execute_node", "_execute_join", "_ship", "_ship_once"),
        }.items():
            text = (REPO / "src/repro" / name).read_text()
            for body in bodies:
                assert len(re.findall(rf"^\s*def {body}\(", text, re.M)) == 1, body


class TestFailedRunsCloseWhatTheyOpened:
    """On one shared context, a run that dies must leave nothing open —
    or every later request is filed under the dead run's spans."""

    def _assert_closed_then_unrelated(self, system, trace, failed_name, error):
        assert trace.open_spans() == []
        (failed,) = [
            span for span in trace.spans_named(failed_name) if "error" in span.attrs
        ]
        assert failed.attrs["error"] == error
        dead = {span.span_id for span in trace.spans}
        system.execute(MEDICAL_QUERY, trace=trace)
        _assert_well_formed(trace)
        by_id = {span.span_id: span for span in trace.spans}
        for span in trace.spans:
            if span.span_id in dead:
                continue
            parent = span.parent_id
            while parent is not None:
                assert parent not in dead, f"{span!r} is filed under a failed run"
                parent = by_id[parent].parent_id

    def test_degraded_profiled_run(self):
        trace, profiler = TraceContext(), QueryProfiler()
        system = _medical_system(trace=trace)
        with pytest.raises(DegradedExecutionError):
            system.execute(
                MEDICAL_QUERY, trace=trace, profiler=profiler, max_failovers=1,
                faults=FaultInjector(seed=1, drop_probability=1.0),
                retry=RetryPolicy(max_attempts=2, base_delay=0.5),
            )
        assert profiler.active is None and profiler.profiles == []
        self._assert_closed_then_unrelated(
            system, trace, "profile", "DegradedExecutionError"
        )

    def test_audit_violation_inside_an_attempt(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        stale = system.execute(MEDICAL_QUERY).transfers.transfers[-1].authorized_by
        with pytest.raises(AuditViolationError):
            system.execute(
                MEDICAL_QUERY, trace=trace, verify=False,
                faults=_RevokingFaults(system, [stale]),
            )
        system.add_authorization(stale)  # the healthy run needs it back
        self._assert_closed_then_unrelated(
            system, trace, "execute_attempt", "AuditViolationError"
        )

    @pytest.mark.parametrize("stage", ["pre", "post"])
    def test_chaos_interrupt_at_the_unit_points(self, stage):
        trace, profiler = TraceContext(), QueryProfiler()
        system = _medical_system(trace=trace)
        with pytest.raises(ChaosInterrupt):
            system.execute(
                MEDICAL_QUERY, trace=trace, profiler=profiler,
                chaos=_InterruptAt(stage),
            )
        assert trace.open_spans() == [] and profiler.active is None
        # Killed before the unit began, it opened nothing; killed after
        # it ran, its profile is dropped and its span says why.
        assert [s.attrs.get("error") for s in trace.spans_named("profile")] == (
            [] if stage == "pre" else ["ChaosInterrupt"]
        )
