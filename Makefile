# Development targets for the ICDCS 2008 reproduction.

PYTHON ?= python

.PHONY: install test loc census test-faults test-health test-obs test-cache test-service test-vector test-chaos test-profiling test-sharding bench bench-kernel bench-health bench-obs bench-cache bench-service bench-vector bench-chaos bench-profiling bench-sharding bench-e2e-smoke bench-e2e-pairs trace-demo examples verify clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Physical line count of src/ per package and in total — the ROADMAP's
# tracked size metric (it should go down).
loc:
	@for d in src/repro/*/; do \
		printf '%7d  %s\n' "$$(find $$d -name '*.py' | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%7d  %s\n' "$$(cat src/repro/*.py | wc -l)" "src/repro/*.py"
	@printf '%7d  %s\n' "$$(find src -name '*.py' | xargs cat | wc -l)" "src/ total"

# The instrumentation-seam census (tests/test_obs.py pins it): guard
# tests on the four spine files — the ceiling is 5, constructor
# adaptation of the public trace= / obs= / profiler= keywords only —
# then the service shell's guard lines (service.py, admission.py,
# flights.py and runner.py: the files that call its listener) and the
# function assembling its listener (ceiling 11: constructor adaptation,
# kill / recover and snapshot() only), then the greps that must print
# nothing: per-feature method variants, methods assigned onto an
# instance, a pipeline built anywhere in src/repro/service/ but
# runner.py (one site), a flight opened anywhere there but flights.py
# (one site), a `request_id is not None` test there, a Rejection built
# outside service/admission.py (one refusal ladder), a DistributedExecutor
# built anywhere in src/ but distributed/pipeline.py (one execution site),
# a second CanView: `can_view` defined outside Policy / OpenPolicy, a
# second kernel or covering memo (`can_view_batch`, `batch_canview`,
# `covering_for`, `record_covering`, `pin_covering_epoch`, the trace
# cache's `MISSING` sentinel), the
# `permits` duck-type, or the deleted second algebra
# (algebra/expression.py), and a second
# safe-assignment search: core/costplanner.py, health pricing
# (`penalty_factor` / `quarantine_penalty`), a greedy or scored
# join-order search, or an enumerate-and-price call in src/, and a
# second sharded execution path: sharding/shuffle.py or the multi-round
# rung (`multiround` / `multi-round` / `allow_multiround`, any case)
# in src/.
SPINE = src/repro/engine/executor.py src/repro/distributed/pipeline.py src/repro/core/planner.py src/repro/sharding/executor.py
SERVICE = src/repro/service/service.py src/repro/service/admission.py src/repro/service/flights.py src/repro/service/runner.py
SERVICE_GUARD = (monitor|journal|chaos|health|faults|trace|profiler|observer|listener) is (not )?None

census:
	@grep -cE "(trace|profiler|obs|span) is (not )?None" $(SPINE)
	@printf 'service shell:'; cat $(SERVICE) | grep -cE "$(SERVICE_GUARD)"
	@printf 'service_hooks_for:'; awk '/^def service_hooks_for/{on=1; print; next} on && /^[^ \t]/{on=0} on' src/repro/obs/hooks.py | grep -cE "$(SERVICE_GUARD)"
	@echo "-- _traced / _profiled in src/ (none expected):"
	@! grep -rnE "_traced|_profiled" src/
	@echo "-- a spine method assigned onto an instance in src/ (none expected):"
	@! grep -rnE "self\.(plan|_find_candidates|_admit_master|_execute_node|_execute_join|_ship|_ship_once) = self\." src/
	@echo "-- a second pipeline built, a second flight opened, or a request_id is not None test, in src/repro/service/, or a Rejection built outside service/admission.py (none expected):"
	@! grep -rn --include='*.py' "request_id is not None" src/repro/service/
	@test "$$(grep -rc --include='*.py' '\.pipeline(' src/repro/service/ | grep -v ':0$$')" = src/repro/service/runner.py:1 || (grep -rn --include='*.py' '\.pipeline(' src/repro/service/; false)
	@test "$$(grep -rcE --include='*.py' '_flights\[[^]]*\] = ' src/repro/service/ | grep -v ':0$$')" = src/repro/service/flights.py:1 || (grep -rnE --include='*.py' '_flights\[[^]]*\] = ' src/repro/service/; false)
	@! grep -rn --include='*.py' "Rejection(" src/ | grep -v "^src/repro/service/admission.py:"
	@echo "-- a DistributedExecutor built outside distributed/pipeline.py in src/ (none expected):"
	@! grep -rn "DistributedExecutor(" src/ | grep -v "^src/repro/distributed/pipeline.py:"
	@echo "-- a CanView outside Policy / OpenPolicy, a second CanView kernel or covering memo, the permits duck-type, or algebra/expression.py in src/ (none expected):"
	@! grep -rn --include='*.py' "def can_view(" src/ | grep -vE "^src/repro/core/(authorization|openpolicy)\.py:"
	@! grep -rnE --include='*.py' "can_view_batch|batch_canview|covering_for|record_covering|pin_covering_epoch|\bMISSING\b" src/
	@! grep -rnw --include='*.py' "permits" src/
	@test ! -e src/repro/algebra/expression.py || (echo src/repro/algebra/expression.py; false)
	@echo "-- core/costplanner.py, health pricing, greedy_join_order / optimize_join_order, or an enumerate_*_assignments call in src/ (none expected):"
	@test ! -e src/repro/core/costplanner.py || (echo src/repro/core/costplanner.py; false)
	@! grep -rnE --include='*.py' "penalty_factor|quarantine_penalty" src/
	@! grep -rnE --include='*.py' "def (greedy_join_order|optimize_join_order)\(" src/
	@! grep -rnE --include='*.py' "enumerate_(safe|structural)_assignments\(" src/ | grep -vE "^[^:]+:[0-9]+:[[:space:]]*def "
	@echo "-- sharding/shuffle.py or the multi-round rung in src/ (none expected):"
	@test ! -e src/repro/sharding/shuffle.py || (echo src/repro/sharding/shuffle.py; false)
	@! grep -rniE --include='*.py' "multi-?round" src/

# Robustness suite: unit + property fault tests, then a seeded
# fault-matrix smoke run (3 seeds x 2 planning strategies).
test-faults:
	$(PYTHON) -m pytest tests/test_faults.py "tests/test_properties.py::TestFaultToleranceProperties"
	$(PYTHON) examples/fault_tolerance.py

# Health-aware execution suite: circuit breakers and health tracking,
# deadline budgets, and checkpoint/resume (with the revocation and
# crash-recovery edge cases).
test-health:
	$(PYTHON) -m pytest tests/test_health.py tests/test_deadline.py tests/test_checkpoint.py

# Observability suite: tracer/metrics unit tests, the instrumentation
# seam's contract (every begin has its end whoever listens, the null
# listener's call count, failed runs leave nothing open, the census)
# plus the golden-file exporter tests (byte-stable JSONL + Chrome trace
# on the medical run).
test-obs:
	$(PYTHON) -m pytest tests/test_obs.py tests/test_obs_golden.py

# Plan-cache suite: epoch/LRU/fingerprint unit tests, the
# revocation-between-executions security regression, the shape tier's
# counting guards (one plan, one parse and one build_plan per shape, one
# verdict per epoch, every check per request), and the Hypothesis
# differential harness (cached-vs-fresh, shape-bound-vs-fresh and
# prepared-vs-parsed plans, in-place-vs-full closure under random
# grant/revoke interleavings, integer-vs-reference chase).
test-cache:
	$(PYTHON) -m pytest tests/test_plancache.py tests/test_plancache_diff.py

# Serving suite: admission/tenants unit tests, the flights (identical
# requests attach at admission and share the leader's ok / infeasible /
# failed outcome; the hot closed loop's counting guard; the Flights
# bookkeeping driven against a model), the
# churn-races-admission regression tests, the scrape endpoint, and the
# CLI serve smoke tests (including the SIGINT drain subprocess test).
test-service:
	$(PYTHON) -m pytest tests/test_service.py "tests/test_cli.py::TestServe" "tests/test_cli.py::TestServeSignals"

# Columnar core suite: table-kernel unit tests (incl. the identity guard
# against per-request key-index rebuilds) and the Hypothesis
# differential harness (table kernels, their storage order and key-index
# reuse, evaluate_plan and the executor vs the frozen row-at-a-time
# oracle; batched vs scalar CanView).
test-vector:
	$(PYTHON) -m pytest tests/test_vector.py tests/test_vector_diff.py

# Chaos suite: the seeded schedule, the write-ahead service journal,
# kill/restart recovery (in-process and across a process boundary;
# killed flights' followers recover from their own entries), the
# online invariant monitor, flight promotion on a leader's own fate
# (deadline shed, chaos give-up) and the chaos requeue that keeps a
# flight open, the chaos CLI (run + --replay), and the composition
# matrix (sharding x chaos x journal x monitor x profiling; CHAOS_SEED
# picks its seed).
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_composition.py

# Profiling suite: profiler/StatsStore unit tests, the exact
# estimate-vs-actual regression lock, serialization round-trips, the
# stats-fed replan, and the byte-stable EXPLAIN ANALYZE goldens.
test-profiling:
	$(PYTHON) -m pytest tests/test_profiling.py tests/test_profiling_golden.py

# Sharding suite: the Hypothesis differential harness (shard-parallel
# vs single-copy byte identity, rejected schemes never partition), the
# parallel-correctness checker's property tests, constructor-validation
# negative paths, the system/planner/service/CLI seams, and the
# composition matrix (sharding x chaos x journal x monitor x profiling).
test-sharding:
	$(PYTHON) -m pytest tests/test_sharding_diff.py tests/test_sharding_checker.py tests/test_sharding_validation.py tests/test_sharding_integration.py tests/test_composition.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Representation-kernel benchmarks: CanView micro-throughput vs the
# seed implementation (asserts the >=3x floor), closure fixpoint and
# end-to-end planner runs.  Included in `make bench`; this target runs
# them alone.
bench-kernel:
	$(PYTHON) -m pytest benchmarks/bench_abl10_kernel.py --benchmark-only -s

# Health ablation: breakers + checkpoint/resume vs the retry-only
# baseline under a flapping coordinator (asserts the >=1.5x floor);
# writes BENCH_ABL11.json.
bench-health:
	$(PYTHON) -m pytest benchmarks/bench_abl11_health.py --benchmark-only -s

# Observability ablation: gates tracer-off planning at <5% overhead
# over the uninstrumented hot path, and validates the exports of a
# traced flapping-coordinator run; writes BENCH_ABL12.json.
bench-obs:
	$(PYTHON) -m pytest benchmarks/bench_abl12_obs.py --benchmark-only -s

# Plan-cache ablation: gates warm-repeat planning at >=5x over the
# cache-off lane with byte-identical assignments, and exercises the
# revalidation machinery under policy churn; writes BENCH_ABL13.json.
bench-cache:
	$(PYTHON) -m pytest benchmarks/bench_abl13_plancache.py --benchmark-only -s

# Serving ablation: 10k mixed workload with mid-stream policy churn —
# gates the service at >=2x sequential-loop throughput with zero audit
# violations, asserts deterministic capacity-zero shedding and one plan
# per cold stampede, byte-identical to cache-off planning; writes
# BENCH_ABL14.json.
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_abl14_service.py --benchmark-only -s

# Columnar-kernel ablation: gates the 3-join Table.equi_join chain at
# >=3x rows/sec over the row-at-a-time seed evaluator on its cold lane
# (key indexes rebuilt every repeat; the resident lane is reported);
# writes BENCH_ABL15.json.
bench-vector:
	$(PYTHON) -m pytest benchmarks/bench_abl15_vector.py --benchmark-only -s

# Chaos ablation: seeded 10k-request chaos run — gates recovery-on at
# >=2x recovery-off completions with zero invariant/audit violations,
# the invariant monitor at <5% overhead, and bit-exact seed replay;
# writes BENCH_ABL16.json (CHAOS_SEED overrides the seed).
bench-chaos:
	$(PYTHON) -m pytest benchmarks/bench_abl16_chaos.py --benchmark-only -s

# Profiling ablation: skewed workload where harvested runtime stats
# replan to >=1.3x fewer shipped bytes (byte-identical results, zero
# violations) and the profiler-off path stays within 5% of a
# hook-free transcription of the unit loop; writes BENCH_ABL17.json.
bench-profiling:
	$(PYTHON) -m pytest benchmarks/bench_abl17_profiling.py --benchmark-only -s

# Sharding ablation: large 3-join chain co-partitioned at 4 shards —
# gates the *modelled* makespan (slowest shard, shards run serially) at
# >=2x single-copy wall time with byte-identical results and zero
# violations, reports the measured wall-clock of execute_sharded (cold
# first call and resident) beside it, and measures the rejection gate's
# overhead; writes BENCH_ABL18.json.
bench-sharding:
	$(PYTHON) -m pytest benchmarks/bench_abl18_sharding.py --benchmark-only -s

# Quick check of the repo's end-to-end benchmark (BENCHMARK.json): its
# self-test, then 3-second runs of the two scan workloads and of
# plan_cold (literal traffic: every request a new text of a prepared
# shape), each failing unless the result line says "correct": true and
# "failed": 0.  One
# self-test asserts shard.split_ms + execute + merge == shard.wall_ms,
# which held only while every execute_sharded call re-split its
# relations; bench_e2e/ is frozen for a PR that claims a gain on it, so
# that test is swapped for benchmarks/bench_e2e_predictions.py, which
# keeps its other assertions and states the last one for resident shards.
E2E_SMOKE_CHECK = import json, sys; r = json.loads(sys.stdin.readlines()[-1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "bench-e2e-smoke: bad result line")

bench-e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest bench_e2e benchmarks/bench_e2e_predictions.py -q \
		--deselect bench_e2e/test_bench_e2e.py::test_predictions_that_hold_by_construction
	set -e; for workload in shard_scan exec_scan plan_cold; do \
		$(PYTHON) bench_e2e/run.py --workload $$workload --seconds 3 \
			| tee /dev/stderr | $(PYTHON) -c '$(E2E_SMOKE_CHECK)'; \
	done

# Judge this checkout against a parent revision on one ledger workload:
# PAIRS alternating parent/change runs of bench_e2e/run.py --trace 0
# (the parent's committed files, extracted with git archive), then each
# side's median and quartiles, pair wins and the choosing-metrics §8
# verdict per end-to-end metric.  Ten 15 s pairs take ~6 min.
#   make bench-e2e-pairs WORKLOAD=exec_scan PARENT=HEAD~1 PAIRS=10
WORKLOAD ?= exec_scan
PARENT ?= HEAD~1
PAIRS ?= 10
RUN_SECONDS ?= 15

bench-e2e-pairs:
	$(PYTHON) benchmarks/e2e_pairs.py --workload $(WORKLOAD) --parent $(PARENT) \
		--pairs $(PAIRS) --seconds $(RUN_SECONDS)

# Trace the Figure 1-5 medical query end-to-end and export every
# format: Chrome trace (load trace_demo.json in Perfetto /
# about:tracing), JSONL spans, and a Prometheus metrics page.
TRACE_DEMO_SQL = SELECT Patient, Physician, Plan, HealthAid FROM Insurance JOIN Nat_registry ON Holder = Citizen JOIN Hospital ON Citizen = Patient

trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli execute \
		--sql "$(TRACE_DEMO_SQL)" \
		--trace-out trace_demo.json --trace-format chrome \
		--metrics-out trace_demo_metrics.prom
	PYTHONPATH=src $(PYTHON) -m repro.cli execute \
		--sql "$(TRACE_DEMO_SQL)" --trace-out trace_demo.jsonl
	@echo "wrote trace_demo.json (Chrome/Perfetto), trace_demo.jsonl, trace_demo_metrics.prom"

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null && echo OK; done

verify: test bench examples

# The final artifacts the task brief asks for.
report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks build *.egg-info
