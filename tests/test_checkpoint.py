"""Checkpoint journals and authorization-audited resume.

Covers the journal mechanics (signatures, recording, pinning), the JSON
round-trip, and the resume protocol end to end: a deadline-killed run
hands back its journal, a later run pins the checkpointed subtrees and
re-executes only what is missing.  The load-bearing invariants:

* resume is re-audited, never trusted — a plan-shape mismatch or a
  revoked authorization makes resume *refuse* (CheckpointError), and
  the resumed assignment passes the same verifier and runtime audit as
  any other;
* journals only ever hold views their holders were authorized for at
  record time;
* resuming changes cost, never results — the resumed output equals the
  fault-free one.
"""

from __future__ import annotations

import pytest

from repro.core.authorization import Policy
from repro.distributed.faults import FaultInjector
from repro.distributed.system import DistributedSystem
from repro.engine.checkpoint import CheckpointJournal, plan_signature
from repro.engine.data import Table
from repro.engine.resilience import RetryPolicy
from repro.exceptions import (
    CheckpointError,
    DeadlineExceededError,
    ResilienceConfigError,
)
from repro.io.serialize import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    profile_from_dict,
    profile_to_dict,
    table_from_dict,
    table_to_dict,
)
from repro.testing import grant, quick_catalog
from repro.workloads import generate_instances, medical_catalog, medical_policy

QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)

COALITION_QUERY = "SELECT a, b, c, d FROM R JOIN T ON a = c"

RETRY = RetryPolicy(jitter=0.0)


def medical_system() -> DistributedSystem:
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7, citizens=60))
    return system


def coalition_catalog():
    return quick_catalog("R(a, b) @ S1", "T(c, d) @ S2", edges=["a = c"])


def coalition_rules(parties):
    rules = []
    for party in parties:
        rules += [
            grant(party, "a b"),
            grant(party, "c d"),
            grant(party, "a b c d", "a = c"),
        ]
    return rules


def coalition_system(parties=("TP1", "TP2")) -> DistributedSystem:
    system = DistributedSystem(
        coalition_catalog(),
        Policy(coalition_rules(parties)),
        apply_closure=True,
        third_parties=["TP1", "TP2"],
    )
    system.load_instances(
        {
            "R": [{"a": i % 5, "b": i} for i in range(30)],
            "T": [{"c": i % 5, "d": i * 3} for i in range(30)],
        }
    )
    return system


def _kill_and_journal(system, fraction):
    """Run QUERY into a deadline death; return (journal, full clock)."""
    total = FaultInjector(seed=1)
    system.execute(QUERY, faults=total, retry=RETRY)
    faults = FaultInjector(seed=1)
    with pytest.raises(DeadlineExceededError) as info:
        system.execute(
            QUERY, faults=faults, retry=RETRY, deadline=total.clock * fraction
        )
    return info.value.checkpoint, total.clock


class TestJournalMechanics:
    def test_signature_binds_to_plan_shape(self):
        system = medical_system()
        tree, assignment, _ = system.plan(QUERY)
        journal = CheckpointJournal.for_plan(tree)
        assert journal.signature == plan_signature(tree)
        journal.verify(system.policy, tree)  # empty journal: fine
        other_tree, _, _ = system.plan(
            "SELECT Plan, HealthAid FROM Insurance "
            "JOIN Nat_registry ON Holder = Citizen"
        )
        with pytest.raises(CheckpointError):
            journal.verify(system.policy, other_tree)

    def test_record_overwrites_and_iterates_sorted(self):
        system = medical_system()
        tree, assignment, _ = system.plan(QUERY)
        journal = CheckpointJournal.for_plan(tree)
        node_ids = [n.node_id for n in tree][:2]
        profile = assignment.profile(tree.root.node_id)
        table = Table(["x"], [(1,)])
        journal.record(node_ids[1], "S_H", profile, table)
        journal.record(node_ids[0], "S_H", profile, table)
        journal.record(node_ids[1], "S_I", profile, table)  # overwrite
        assert [e.node_id for e in journal] == sorted(node_ids)
        assert len(journal) == 2
        by_id = {e.node_id: e for e in journal}
        assert by_id[node_ids[1]].server == "S_I"

    def test_pinned_skips_excluded_holders(self):
        journal = CheckpointJournal("sig")
        profile = medical_system().plan(QUERY)[1].profile(0)
        table = Table(["x"], [(1,)])
        journal.record(3, "S_A", profile, table)
        journal.record(5, "S_B", profile, table)
        assert journal.pinned() == {3: "S_A", 5: "S_B"}
        assert journal.pinned(excluded=("S_A",)) == {5: "S_B"}
        assert journal.reuse_tables()[3] == table

    def test_describe(self):
        journal = CheckpointJournal("sig")
        assert "empty" in journal.describe()


class TestSerialization:
    def test_table_round_trip(self):
        table = Table(["a", "b"], [(1, "x"), (2, "y")])
        again = table_from_dict(table_to_dict(table))
        assert again == table

    def test_profile_round_trip(self):
        system = medical_system()
        _, assignment, _ = system.plan(QUERY)
        for node in assignment.plan:
            profile = assignment.profile(node.node_id)
            again = profile_from_dict(profile_to_dict(profile))
            assert again == profile

    def test_checkpoint_round_trip(self):
        system = medical_system()
        journal, _ = _kill_and_journal(system, 0.6)
        assert len(journal) >= 1
        data = checkpoint_to_dict(journal)
        again = checkpoint_from_dict(data)
        assert again.signature == journal.signature
        assert len(again) == len(journal)
        for mine, theirs in zip(journal, again):
            assert mine.node_id == theirs.node_id
            assert mine.server == theirs.server
            assert mine.profile == theirs.profile
            assert mine.table == theirs.table
        # And the decoded journal is JSON-stable.
        assert checkpoint_to_dict(again) == data


class TestResume:
    def test_deadline_kill_then_resume_completes_exactly(self):
        system = medical_system()
        baseline = system.execute(QUERY)
        journal, total_clock = _kill_and_journal(system, 0.6)
        assert len(journal) >= 1
        faults = FaultInjector(seed=1)
        result = system.execute(
            QUERY, faults=faults, retry=RETRY,
            deadline=total_clock, resume_from=journal,
        )
        assert result.table == baseline.table
        assert result.resumed >= 1
        assert result.audit is not None and result.audit.all_authorized()
        # Resume re-shipped strictly less than the full run.
        assert faults.clock < total_clock
        assert "resumed" in result.summary()

    def test_resume_spends_less_budget_than_restart(self):
        system = medical_system()
        journal, total_clock = _kill_and_journal(system, 0.6)
        faults = FaultInjector(seed=1)
        result = system.execute(
            QUERY, faults=faults, retry=RETRY,
            deadline=total_clock, resume_from=journal,
        )
        assert result.deadline.spent < total_clock

    def test_resume_against_different_plan_refuses(self):
        system = medical_system()
        journal, _ = _kill_and_journal(system, 0.6)
        with pytest.raises(CheckpointError):
            system.execute(
                "SELECT Plan, HealthAid FROM Insurance "
                "JOIN Nat_registry ON Holder = Citizen",
                faults=FaultInjector(seed=1),
                resume_from=journal,
            )

    def test_resume_requires_fault_injector(self):
        system = medical_system()
        with pytest.raises(ResilienceConfigError):
            system.execute(QUERY, resume_from=CheckpointJournal("sig"))

    def test_checkpoint_flag_populates_result_journal(self):
        system = medical_system()
        faults = FaultInjector(seed=1)
        result = system.execute(
            QUERY, faults=faults, retry=RETRY, checkpoint=True
        )
        assert result.checkpoint is not None
        assert result.checkpointed == len(result.checkpoint) >= 1

    def test_journal_entries_are_individually_authorized(self):
        """Record-time gate: every journaled view is one its holder may
        see under the executing policy (Definition 3.3)."""

        system = medical_system()
        journal, _ = _kill_and_journal(system, 0.8)
        assert len(journal) >= 1
        for entry in journal:
            assert system.policy.can_view(entry.profile, entry.server)


class TestRevocation:
    def _journal_held_by(self, system, holder):
        """A journal for COALITION_QUERY whose join sits at ``holder``."""
        tree, assignment, _ = system.plan(COALITION_QUERY)
        journal = CheckpointJournal.for_plan(tree)
        join_id = tree.root.node_id
        result = system.execute(COALITION_QUERY)
        journal.record(
            join_id, holder, assignment.profile(join_id), result.table
        )
        return journal

    def test_verify_refuses_after_revocation(self):
        granting = coalition_system()
        journal = self._journal_held_by(granting, "TP1")
        # The same federation after TP1's authorizations were revoked.
        revoked = coalition_system(parties=("TP2",))
        tree, _, _ = revoked.plan(COALITION_QUERY)
        journal.verify(granting.policy, tree)  # still granted: fine
        with pytest.raises(CheckpointError) as info:
            journal.verify(revoked.policy, tree)
        assert "no longer granted" in str(info.value)

    def test_execute_refuses_resume_after_revocation(self):
        granting = coalition_system()
        journal = self._journal_held_by(granting, "TP1")
        revoked = coalition_system(parties=("TP2",))
        with pytest.raises(CheckpointError):
            revoked.execute(
                COALITION_QUERY,
                faults=FaultInjector(seed=0),
                retry=RETRY,
                resume_from=journal,
            )

    def test_unrevoked_journal_resumes_under_new_system(self):
        """The same journal is honored by a fresh system whose policy
        still grants every entry — refusal is about rights, not object
        identity."""
        granting = coalition_system()
        journal = self._journal_held_by(granting, "TP1")
        fresh = coalition_system()
        baseline = fresh.execute(COALITION_QUERY)
        result = fresh.execute(
            COALITION_QUERY,
            faults=FaultInjector(seed=0),
            retry=RETRY,
            resume_from=journal,
        )
        assert result.table == baseline.table
        assert result.audit is not None and result.audit.all_authorized()


class TestCrashRecovery:
    def test_master_crash_mid_run_fails_over_with_journal_intact(self):
        """A coordinator crash mid-query: failover replans onto the
        surviving coordinator, the journal stays active, and the result
        is exact and audit-clean."""
        system = coalition_system()
        baseline = system.execute(COALITION_QUERY)
        faults = FaultInjector(seed=0)
        # TP1 dies once the run has started shipping (clock advances
        # past 1.0 on the first shipment attempt).
        faults.crash("TP1", start=1.0, end=100_000.0)
        result = system.execute(
            COALITION_QUERY,
            faults=faults,
            retry=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            checkpoint=True,
        )
        assert result.failovers >= 1
        assert result.table == baseline.table
        assert result.audit is not None and result.audit.all_authorized()
        assert result.checkpoint is not None

    def test_degraded_run_still_hands_back_its_journal(self):
        """When every coordinator is gone the query degrades — but the
        journal of completed subtrees survives on the error."""
        system = coalition_system()
        faults = FaultInjector(seed=0)
        faults.crash("TP1", start=1.0, end=100_000.0)
        faults.crash("TP2", start=1.0, end=100_000.0)
        from repro.exceptions import DegradedExecutionError

        with pytest.raises(DegradedExecutionError) as info:
            system.execute(
                COALITION_QUERY,
                faults=faults,
                retry=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
                checkpoint=True,
            )
        assert info.value.checkpoint is not None
