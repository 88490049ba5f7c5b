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

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explain import explain_planning
from repro.analysis.reporting import (
    BENCH_GENERATED_BY,
    BENCH_SCHEMA_VERSION,
    write_bench_json,
)
from repro.core.access import first_covering_authorization
from repro.core.authorization import Policy
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile, observed_compositions
from repro.distributed.faults import FaultInjector
from repro.distributed.health import STATE_OPEN, HealthTracker
from repro.distributed.system import DistributedSystem
from repro.engine.deadline import DeadlineBudget
from repro.engine.resilience import RetryPolicy
from repro.exceptions import (
    DeadlineExceededError,
    DegradedExecutionError,
    ReproError,
)
from repro.obs import (
    MISSING,
    MetricsRegistry,
    TraceContext,
    chrome_trace,
    jsonl_lines,
    parse_prometheus_text,
    validate_chrome_trace,
)
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)

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

    def test_covering_cache_distinguishes_none_from_missing(self):
        trace = TraceContext()
        profile = RelationProfile(["a"])
        assert trace.covering_for("S1", profile) is MISSING
        trace.record_covering("S1", profile, None)
        assert trace.covering_for("S1", profile) is None

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
    def test_cached_rule_is_reused_not_recomputed(self, policy):
        trace = TraceContext()
        profile = RelationProfile(["Holder", "Plan"])
        sentinel = object()
        trace.pin_covering_epoch(policy.epoch)
        trace.record_covering("S_I", profile, sentinel)
        found = first_covering_authorization(policy, profile, "S_I", trace=trace)
        assert found is sentinel

    def test_computation_populates_the_cache(self, policy):
        trace = TraceContext()
        profile = RelationProfile(["Holder", "Plan"])
        found = first_covering_authorization(policy, profile, "S_I", trace=trace)
        assert trace.covering_for("S_I", profile) is found

    def test_audit_stamps_and_explain_verdicts_agree(self):
        trace = TraceContext()
        system = _medical_system(trace=trace)
        system.execute(MEDICAL_QUERY, faults=FaultInjector(seed=0), trace=trace)
        tree, _, _ = system.plan(MEDICAL_QUERY)
        from_cache, feasible_cached = explain_planning(
            system.policy, tree, trace=trace
        )
        fresh, feasible_fresh = explain_planning(system.policy, tree)
        assert feasible_cached == feasible_fresh
        for node_id, explanation in fresh.items():
            cached_checks = from_cache[node_id].checks
            assert len(cached_checks) == len(explanation.checks)
            for cached, recomputed in zip(cached_checks, explanation.checks):
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
    "plan_cache_coalesced",
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
