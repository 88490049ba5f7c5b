"""Property-based tests (hypothesis) for the model's core invariants.

The big ones:

* whatever the planner emits is safe under the independent verifier;
* distributed execution always returns exactly the centralized result;
* every runtime transfer of an audited run is covered by a rule;
* profile composition obeys its algebraic laws;
* the chase closure is sound (derived views are locally computable) and
  monotone;
* join-path normalization is a congruence for Definition 3.3.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinCondition, JoinPath
from repro.core.access import authorization_covers
from repro.core.authorization import Authorization, Policy
from repro.core.closure import close_policy
from repro.core.planner import SafePlanner
from repro.core.profile import RelationProfile
from repro.core.safety import is_safe, verify_assignment
from repro.engine.data import Table
from repro.engine.executor import DistributedExecutor
from repro.engine.operators import evaluate_plan
from repro.exceptions import InfeasiblePlanError
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ATTRS = [f"A{i}" for i in range(8)]

attribute_sets = st.sets(st.sampled_from(ATTRS), min_size=1, max_size=5).map(frozenset)

join_conditions = st.tuples(
    st.sampled_from(ATTRS), st.sampled_from(ATTRS)
).filter(lambda pair: pair[0] != pair[1]).map(lambda pair: JoinCondition(*pair))

join_paths = st.sets(join_conditions, max_size=3).map(JoinPath)

profiles = st.builds(
    lambda attrs, path, sigma: RelationProfile(attrs, path, sigma & attrs),
    attribute_sets,
    join_paths,
    st.sets(st.sampled_from(ATTRS), max_size=3).map(frozenset),
)


class TestJoinPathProperties:
    @given(join_paths, join_paths)
    def test_union_commutative(self, first, second):
        assert first.union(second) == second.union(first)

    @given(join_paths, join_paths, join_paths)
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(join_paths)
    def test_union_idempotent(self, path):
        assert path.union(path) == path

    @given(join_paths)
    def test_empty_is_identity(self, path):
        assert path.union(JoinPath.empty()) == path

    @given(st.sampled_from(ATTRS), st.sampled_from(ATTRS))
    def test_condition_symmetry(self, a, b):
        if a == b:
            return
        assert JoinCondition(a, b) == JoinCondition(b, a)


class TestProfileProperties:
    @given(profiles, st.sets(st.sampled_from(ATTRS), min_size=1).map(frozenset))
    def test_projection_shrinks_attributes(self, profile, attrs):
        keep = attrs & profile.attributes
        if not keep:
            return
        projected = profile.project(keep)
        assert projected.attributes == keep
        assert projected.join_path == profile.join_path
        assert projected.selection_attributes == profile.selection_attributes

    @given(profiles)
    def test_selection_preserves_attributes(self, profile):
        selected = profile.select(profile.attributes)
        assert selected.attributes == profile.attributes
        assert selected.join_path == profile.join_path
        assert selected.selection_attributes >= profile.selection_attributes

    @given(profiles, profiles, join_conditions)
    def test_join_profile_symmetric(self, left, right, condition):
        overlap = left.attributes & right.attributes
        if overlap:
            return
        path = JoinPath((condition,))
        assert left.join(right, path) == right.join(left, path)

    @given(profiles, profiles, join_conditions)
    def test_join_accumulates_information(self, left, right, condition):
        if left.attributes & right.attributes:
            return
        joined = left.join(right, JoinPath((condition,)))
        assert joined.attributes >= left.attributes | right.attributes
        assert left.join_path.issubset(joined.join_path)
        assert condition in joined.join_path


class TestDefinition33Properties:
    @given(profiles, attribute_sets, join_paths)
    def test_superset_grant_covers_subset_profile(self, profile, extra, path):
        rule = Authorization(
            profile.exposed_attributes | extra, profile.join_path, "S"
        )
        assert authorization_covers(rule, profile)

    @given(profiles, join_conditions)
    def test_longer_path_never_covered(self, profile, condition):
        if condition in profile.join_path:
            return
        rule = Authorization(profile.exposed_attributes, profile.join_path, "S")
        refined = RelationProfile(
            profile.attributes,
            profile.join_path.with_condition(condition),
            profile.selection_attributes,
        )
        assert not authorization_covers(rule, refined)

    @given(profiles)
    def test_coverage_is_reflexive(self, profile):
        rule = Authorization(profile.exposed_attributes, profile.join_path, "S")
        assert authorization_covers(rule, profile)


def _workload(seed: int, dense: bool) -> SyntheticWorkload:
    config = WorkloadConfig(
        servers=3,
        relations=4,
        extra_join_edges=1,
        grant_probability=0.8 if dense else 0.25,
        join_grant_probability=0.7 if dense else 0.2,
        path_grant_probability=0.5 if dense else 0.1,
        rows_per_relation=15,
        join_domain_size=6,
    )
    return SyntheticWorkload(seed=seed, config=config)


class TestPlannerSoundness:
    """THE invariant: everything the planner emits is verifier-safe."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), dense=st.booleans(), size=st.integers(2, 4))
    def test_planner_output_always_safe(self, seed, dense, size):
        workload = _workload(seed, dense)
        spec = workload.random_query(relations=size)
        plan = build_plan(workload.catalog, spec)
        planner = SafePlanner(workload.policy)
        try:
            assignment, _ = planner.plan(plan)
        except InfeasiblePlanError:
            return
        verify_assignment(workload.policy, assignment)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_planner_subset_of_exhaustive_safe_set(self, seed):
        from repro.baselines.exhaustive import enumerate_safe_assignments

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        try:
            assignment, _ = SafePlanner(workload.policy).plan(plan)
        except InfeasiblePlanError:
            return
        keys = {
            tuple(str(a.executor(n.node_id)) for n in plan)
            for a in enumerate_safe_assignments(workload.policy, plan)
        }
        assert tuple(str(assignment.executor(n.node_id)) for n in plan) in keys


class TestExecutionCorrectness:
    """Distributed execution == centralized oracle, transfers audited."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), size=st.integers(2, 4))
    def test_distributed_equals_centralized(self, seed, size):
        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=size)
        plan = build_plan(workload.catalog, spec)
        try:
            assignment, _ = SafePlanner(workload.policy).plan(plan)
        except InfeasiblePlanError:
            return
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        result = DistributedExecutor(
            assignment, tables, policy=workload.policy
        ).run()
        assert result.table == evaluate_plan(plan, tables)
        assert result.audit is not None and result.audit.all_authorized()
        for transfer in result.transfers:
            assert transfer.authorized_by is not None

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_every_structural_assignment_same_result(self, seed):
        """Any Definition 4.1 assignment computes the same table —
        placement never changes semantics, only exposure and cost."""
        from repro.baselines.exhaustive import enumerate_structural_assignments

        workload = _workload(seed, dense=False)
        spec = workload.random_query(relations=2)
        plan = build_plan(workload.catalog, spec)
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        oracle = evaluate_plan(plan, tables)
        for assignment in enumerate_structural_assignments(plan):
            outcome = DistributedExecutor(assignment, tables).run()
            assert outcome.table == oracle


class TestClosureProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_closure_monotone_and_idempotent(self, seed):
        workload = _workload(seed, dense=False)
        closed = close_policy(workload.policy, workload.catalog)
        for rule in workload.policy:
            assert rule in closed
        assert len(close_policy(closed, workload.catalog)) == len(closed)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_closure_never_grants_to_ruleless_server(self, seed):
        workload = _workload(seed, dense=True)
        closed = close_policy(workload.policy, workload.catalog)
        assert closed.rules_for("S_stranger") == ()

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_closure_expands_feasibility_monotonically(self, seed):
        """Anything feasible explicitly stays feasible after closure."""
        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        explicit = SafePlanner(workload.policy)
        closed = SafePlanner(close_policy(workload.policy, workload.catalog))
        if explicit.is_feasible(plan):
            assert closed.is_feasible(plan)


class TestAnalysisProperties:
    """Invariants of the what-if, exposure and timeline layers."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), size=st.integers(2, 4))
    def test_repair_always_yields_feasible_plan(self, seed, size):
        from repro.analysis.whatif import suggest_repair

        workload = _workload(seed, dense=False)
        spec = workload.random_query(relations=size)
        plan = build_plan(workload.catalog, spec)
        repair = suggest_repair(workload.policy, plan)
        augmented = repair.augmented_policy(workload.policy)
        assignment, _ = SafePlanner(augmented).plan(plan)
        verify_assignment(augmented, assignment)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_repair_empty_iff_feasible(self, seed):
        from repro.analysis.whatif import suggest_repair

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        repair = suggest_repair(workload.policy, plan)
        planner = SafePlanner(workload.policy)
        if repair.is_already_feasible:
            # The greedy path found only safe modes; the real planner
            # must agree the plan is feasible.
            assert planner.is_feasible(plan)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_symbolic_exposure_matches_runtime_transfers(self, seed):
        """The verifier's flows and the engine's transfers describe the
        same releases (same receivers, same profiles)."""
        from repro.analysis.exposure import exposure_of_assignment

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        try:
            assignment, _ = SafePlanner(workload.policy).plan(plan)
        except InfeasiblePlanError:
            return
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        result = DistributedExecutor(assignment, tables).run()
        symbolic = exposure_of_assignment(assignment, workload.catalog)
        runtime_views = {}
        for transfer in result.transfers:
            runtime_views.setdefault(transfer.receiver, set()).add(
                (transfer.sender, transfer.profile)
            )
        for server in symbolic.servers():
            expected = {
                (sender, profile)
                for sender, profile in symbolic.exposure_of(server).received
            }
            assert runtime_views.get(server, set()) == expected

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_timeline_bounds(self, seed):
        """Makespan lies between the largest single transfer and the
        total bytes (unit-bandwidth, zero-latency network)."""
        from repro.distributed.simulation import simulate_timeline

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        try:
            assignment, _ = SafePlanner(workload.policy).plan(plan)
        except InfeasiblePlanError:
            return
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        result = DistributedExecutor(assignment, tables).run()
        timeline = simulate_timeline(assignment, result.transfers)
        assert len(timeline.events) == len(result.transfers)
        if len(result.transfers):
            largest = max(t.byte_size for t in result.transfers)
            assert largest <= timeline.makespan <= result.transfers.total_bytes()
        else:
            assert timeline.makespan == 0.0


class TestSimulationProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), copies=st.integers(1, 4))
    def test_busy_time_conservation_and_monotonicity(self, seed, copies):
        """Total server busy time equals the sum of compute durations
        (work is conserved), and makespan never decreases with load."""
        from repro.distributed.simulation import (
            MultiQuerySimulator,
            build_query_tasks,
        )
        from repro.distributed.network import NetworkModel

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=3)
        plan = build_plan(workload.catalog, spec)
        try:
            assignment, _ = SafePlanner(workload.policy).plan(plan)
        except InfeasiblePlanError:
            return
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        run = (assignment, DistributedExecutor(assignment, tables).run().transfers)
        simulator = MultiQuerySimulator(compute_rate=25.0)
        result = simulator.run([run] * copies)
        tasks, _ = build_query_tasks(
            0, run[0], run[1], 25.0, NetworkModel()
        )
        compute_per_copy = sum(t.duration for t in tasks if t.kind == "compute")
        assert sum(result.busy_time.values()) == pytest.approx(
            compute_per_copy * copies
        )
        single = simulator.run([run])
        assert result.makespan >= single.makespan - 1e-9


class TestSerializationProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_catalog_and_policy_round_trip(self, seed):
        from repro.io import (
            catalog_from_dict,
            catalog_to_dict,
            policy_from_dict,
            policy_to_dict,
        )

        workload = _workload(seed, dense=True)
        catalog = catalog_from_dict(catalog_to_dict(workload.catalog))
        assert catalog.describe() == workload.catalog.describe()
        policy = policy_from_dict(policy_to_dict(workload.policy))
        assert len(policy) == len(workload.policy)
        for rule in workload.policy:
            assert rule in policy

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), size=st.integers(2, 4))
    def test_spec_round_trip(self, seed, size):
        from repro.io import spec_from_dict, spec_to_dict

        workload = _workload(seed, dense=False)
        spec = workload.random_query(relations=size)
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.relations == spec.relations
        assert restored.join_paths == spec.join_paths
        assert restored.select == spec.select


class TestBushyProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), size=st.integers(2, 4))
    def test_bushy_equals_left_deep_semantics(self, seed, size):
        from repro.algebra.builder import build_bushy_plan
        from repro.engine.operators import evaluate_plan
        from repro.exceptions import PlanError

        workload = _workload(seed, dense=False)
        spec = workload.random_query(relations=size)
        left_deep = build_plan(workload.catalog, spec)
        try:
            bushy = build_bushy_plan(workload.catalog, spec)
        except PlanError:
            return  # split needed a cartesian product; left-deep only
        instances = workload.generate_instances()
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        assert evaluate_plan(bushy, tables) == evaluate_plan(left_deep, tables)


class TestTableProperties:
    rows = st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20
    )

    @given(rows, rows)
    def test_semi_join_identity(self, left_rows, right_rows):
        """pi-probe semi-join recombination equals the direct join —
        the Figure 5 five-step sequence is lossless."""
        left = Table(["a", "b"], left_rows)
        right = Table(["c", "d"], right_rows)
        path = JoinPath.of(("a", "c"))
        direct = left.equi_join(right, path)
        probe = left.project(["a"])
        slave_side = probe.equi_join(right, path)
        recombined = left.natural_join(slave_side)
        assert recombined == direct

    @given(rows)
    def test_projection_idempotent(self, rows_):
        table = Table(["a", "b"], rows_)
        assert table.project(["a"]).project(["a"]) == table.project(["a"])

    @given(rows, rows)
    def test_join_commutative_in_content(self, left_rows, right_rows):
        left = Table(["a", "b"], left_rows)
        right = Table(["c", "d"], right_rows)
        path = JoinPath.of(("a", "c"))
        assert left.equi_join(right, path) == right.equi_join(left, path)


class TestFaultToleranceProperties:
    """No fault schedule may ever yield an unauthorized transfer.

    Executions run with ``verify=True``, so every re-planned assignment
    passes through :func:`verify_assignment` — an unsafe failover plan
    would raise ``UnsafeAssignmentError`` and fail the property.  A run
    either completes with the exact centralized result and a clean
    audit, or degrades loudly.
    """

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        fault_seed=st.integers(0, 1_000),
        drop=st.floats(0.0, 0.6),
        crash_victim=st.integers(0, 2),
        size=st.integers(2, 4),
    )
    def test_execution_under_faults_is_safe_or_degrades(
        self, seed, fault_seed, drop, crash_victim, size
    ):
        from repro.distributed.faults import FaultInjector
        from repro.distributed.system import DistributedSystem
        from repro.engine.resilience import RetryPolicy
        from repro.exceptions import DegradedExecutionError

        workload = _workload(seed, dense=True)
        spec = workload.random_query(relations=size)
        plan = build_plan(workload.catalog, spec)
        system = DistributedSystem(
            workload.catalog, workload.policy, apply_closure=False
        )
        instances = workload.generate_instances()
        system.load_instances(instances)
        faults = FaultInjector(seed=fault_seed, drop_probability=drop)
        faults.crash(f"S{crash_victim}", start=50.0, end=200.0)
        try:
            result = system.execute(
                spec,
                faults=faults,
                retry=RetryPolicy(max_attempts=3, base_delay=1.0),
                max_failovers=2,
            )
        except (InfeasiblePlanError, DegradedExecutionError):
            return  # degrading loudly is always acceptable
        tables = {
            r.name: Table.from_rows(r.attributes, instances[r.name])
            for r in workload.catalog.relations()
        }
        assert result.table == evaluate_plan(plan, tables)
        assert result.audit is not None and result.audit.all_authorized()
        for transfer in result.transfers:
            assert transfer.authorized_by is not None

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        dense=st.booleans(),
        excluded=st.integers(0, 2),
        size=st.integers(2, 4),
    )
    def test_restricted_planner_avoids_excluded_and_stays_safe(
        self, seed, dense, excluded, size
    ):
        workload = _workload(seed, dense=dense)
        spec = workload.random_query(relations=size)
        plan = build_plan(workload.catalog, spec)
        server = f"S{excluded}"
        try:
            assignment, _ = SafePlanner(
                workload.policy, excluded_servers=(server,)
            ).plan(plan)
        except InfeasiblePlanError:
            return
        for _, executor in assignment.items():
            assert executor.master != server
            assert executor.slave != server
        verify_assignment(workload.policy, assignment)
