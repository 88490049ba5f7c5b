"""Service-layer chaos: seeded fault schedules, crash-consistent
recovery, and an online invariant monitor.

The paper's guarantee — no server ever sees a relation its permissions
don't cover — must hold under arbitrary interleavings of faults, policy
churn and service restarts, not just on the happy path.  This package
turns that from a hope into a checkable condition:

* :class:`~repro.chaos.schedule.ChaosSchedule` — a deterministic,
  seed-driven extension of the PR 1
  :class:`~repro.distributed.faults.FaultInjector` that adds
  *service-level* events: worker-task cancellation mid-query,
  flight leader crashes, admission-queue stalls, policy
  grant/revoke storms, clock jumps and service kill/restart points.
  Same seed, same event log — every run replays.
* :class:`~repro.chaos.journal.ServiceJournal` — a write-ahead journal
  of admitted-request and completed-subtree state; a restarted
  :class:`~repro.service.service.QueryService` re-verifies every
  journaled plan against the *current* policy epoch and resumes or
  structurally rejects every in-flight request (no hangs, no unaudited
  replays).
* :class:`~repro.chaos.invariants.InvariantMonitor` — live assertions
  that every admitted request terminates, that no transfer ships
  without a covering authorization at the then-current epoch, that
  a flight key never runs two executions at once, and
  that breaker/degrade transitions are legal; violations carry the
  chaos seed for one-command replay.
* :mod:`~repro.chaos.replay` — the seeded chaos-run harness behind the
  ABL16 bench, ``make test-chaos`` and the ``repro.cli chaos``
  subcommand, including deterministic replay of violation artifacts.

See ``docs/chaos.md`` for the runbook.
"""

from repro.chaos.invariants import (
    INV_AUTHORIZED_TRANSFER,
    INV_BREAKER_TRANSITION,
    INV_DEGRADE_LEVEL,
    INV_EPOCH_MONOTONIC,
    INV_SINGLE_EXECUTION,
    INV_TERMINATION,
    InvariantMonitor,
    Violation,
)
from repro.chaos.journal import JournalEntry, ServiceJournal
from repro.chaos.replay import ChaosReport, ChaosRunConfig, replay_artifact, run_chaos
from repro.chaos.schedule import (
    POINT_EXECUTE,
    POINT_LEADER,
    POINT_SUBMIT,
    POINT_WORKER,
    ChaosSchedule,
)
from repro.exceptions import ChaosError, ChaosInterrupt

__all__ = [
    "INV_AUTHORIZED_TRANSFER",
    "INV_BREAKER_TRANSITION",
    "INV_DEGRADE_LEVEL",
    "INV_EPOCH_MONOTONIC",
    "INV_SINGLE_EXECUTION",
    "INV_TERMINATION",
    "POINT_EXECUTE",
    "POINT_LEADER",
    "POINT_SUBMIT",
    "POINT_WORKER",
    "ChaosError",
    "ChaosInterrupt",
    "ChaosReport",
    "ChaosRunConfig",
    "ChaosSchedule",
    "InvariantMonitor",
    "JournalEntry",
    "ServiceJournal",
    "Violation",
    "replay_artifact",
    "run_chaos",
]
