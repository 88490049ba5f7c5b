"""The seeded chaos-run harness: drive, kill, recover, report, replay.

:func:`run_chaos` is the engine behind ``make test-chaos``, the ABL16
bench and the ``repro.cli chaos`` subcommand: it drives a configured
request mix through a :class:`~repro.service.service.QueryService`
wired with a :class:`~repro.chaos.schedule.ChaosSchedule`, a
:class:`~repro.chaos.journal.ServiceJournal` (when recovery is on) and
an :class:`~repro.chaos.invariants.InvariantMonitor`; at every
kill point it crashes the service mid-flight and recovers a fresh
instance over the same journal.  The whole run lives in the schedule's
logical clock and seeded RNGs, so the same
:class:`ChaosRunConfig` produces the same :meth:`ChaosReport.digest` —
which is what makes :func:`replay_artifact` a one-command, bit-exact
reproduction of any recorded violation.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantMonitor
from repro.chaos.journal import ServiceJournal
from repro.chaos.schedule import ChaosSchedule
from repro.exceptions import ChaosError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.service.service import OK, QueryService, ServiceError
from repro.service.tenants import TenantConfig
from repro.testing import grant

#: The default request mix (the ABL14 serving mix: one heavy join, one
#: two-join prefix, two cheap probes) over the medical workload.
DEFAULT_QUERIES = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient",
    "SELECT Holder, Plan, Citizen "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen",
    "SELECT Patient, Physician FROM Hospital",
    "SELECT Citizen, HealthAid FROM Nat_registry",
)

DEFAULT_TENANTS = (
    TenantConfig("gold", priority=2, rate=1e6, burst=1_000_000),
    TenantConfig("silver", priority=1, rate=1e6, burst=1_000_000),
    TenantConfig("bronze", priority=0, rate=1e6, burst=1_000_000),
)

#: The default policy-storm rule: a widening grant *not* in the base
#: medical policy, toggled on/off by storm events.
DEFAULT_STORM_RULES = (grant("S_D", "Citizen HealthAid"),)


class ChaosRunConfig:
    """Everything a chaos run needs — and everything a replay needs.

    The config is JSON-round-trippable (:meth:`to_dict` /
    :meth:`from_dict`), which is what makes violation artifacts
    self-contained replay handles.

    Args:
        seed: the schedule seed (the replay handle).
        requests: total requests driven through the service.
        workers: service worker coroutines.
        recovery: thread a :class:`ServiceJournal` through kill/restart
            cycles (on), or let kills shed in-flight work (off — the
            ABL16 baseline).
        kill_every / max_kills: service kill/restart cadence (see
            :meth:`ChaosSchedule.kill_due`).
        cancel_probability / leader_crash_probability /
        stall_probability / storm_probability /
        clock_jump_probability / clock_jump / stall_ticks: forwarded to
            :class:`ChaosSchedule`.
        spins: event-loop turns yielded between submissions (gives
            workers deterministic room to interleave).
        max_queue: service queue bound.
        max_chaos_retries: per-request chaos-interrupt budget.
        queries: the request mix (cycled via the seeded workload RNG).
        storm_rules: rules the policy storm toggles (default: one
            widening medical grant).
    """

    __slots__ = (
        "seed", "requests", "workers", "recovery", "kill_every",
        "max_kills", "cancel_probability", "leader_crash_probability",
        "stall_probability", "stall_ticks", "storm_probability",
        "clock_jump_probability", "clock_jump", "spins", "max_queue",
        "max_chaos_retries", "queries", "storm_rules",
    )

    def __init__(
        self,
        seed: int = 0,
        requests: int = 200,
        workers: int = 8,
        recovery: bool = True,
        kill_every: Optional[int] = None,
        max_kills: Optional[int] = None,
        cancel_probability: float = 0.0,
        leader_crash_probability: float = 0.0,
        stall_probability: float = 0.0,
        stall_ticks: int = 3,
        storm_probability: float = 0.0,
        clock_jump_probability: float = 0.0,
        clock_jump: float = 0.0,
        spins: int = 3,
        max_queue: int = 512,
        max_chaos_retries: int = 3,
        queries: Sequence[str] = DEFAULT_QUERIES,
        storm_rules: Sequence[object] = DEFAULT_STORM_RULES,
    ) -> None:
        if requests < 1:
            raise ChaosError(f"requests must be >= 1, got {requests}")
        if spins < 0:
            raise ChaosError(f"spins cannot be negative, got {spins}")
        self.seed = int(seed)
        self.requests = int(requests)
        self.workers = int(workers)
        self.recovery = bool(recovery)
        self.kill_every = kill_every
        self.max_kills = max_kills
        self.cancel_probability = cancel_probability
        self.leader_crash_probability = leader_crash_probability
        self.stall_probability = stall_probability
        self.stall_ticks = stall_ticks
        self.storm_probability = storm_probability
        self.clock_jump_probability = clock_jump_probability
        self.clock_jump = clock_jump
        self.spins = int(spins)
        self.max_queue = int(max_queue)
        self.max_chaos_retries = int(max_chaos_retries)
        self.queries = tuple(queries)
        self.storm_rules = tuple(storm_rules)

    def schedule(self) -> ChaosSchedule:
        """A fresh :class:`ChaosSchedule` for one run of this config."""
        return ChaosSchedule(
            seed=self.seed,
            cancel_probability=self.cancel_probability,
            leader_crash_probability=self.leader_crash_probability,
            stall_probability=self.stall_probability,
            stall_ticks=self.stall_ticks,
            storm_probability=self.storm_probability,
            storm_rules=self.storm_rules,
            clock_jump_probability=self.clock_jump_probability,
            clock_jump=self.clock_jump,
            kill_every=self.kill_every,
            max_kills=self.max_kills,
        )

    def to_dict(self) -> dict:
        """JSON-safe encoding (rides in violation artifacts)."""
        from repro.io.serialize import _rule_to_dict

        data = {key: getattr(self, key) for key in self.__slots__}
        data["queries"] = list(self.queries)
        data["storm_rules"] = [_rule_to_dict(rule) for rule in self.storm_rules]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosRunConfig":
        """Decode a config previously encoded by :meth:`to_dict`."""
        from repro.core.authorization import Authorization
        from repro.io.serialize import _path_from_pairs

        rules = [
            Authorization(
                entry["attributes"],
                _path_from_pairs(entry.get("join_path", [])),
                entry["server"],
            )
            for entry in data.get("storm_rules", [])
        ]
        kwargs = {
            key: data[key]
            for key in cls.__slots__
            if key in data and key != "storm_rules"
        }
        if rules:
            kwargs["storm_rules"] = tuple(rules)
        return cls(**kwargs)


class ChaosReport:
    """One chaos run's full, digestible outcome.

    Attributes:
        config: the :class:`ChaosRunConfig` that produced the run.
        statuses: per-request terminal statuses, in submission order.
        snapshot: the final service's counter snapshot.
        monitor: the invariant monitor's :meth:`report` dict.
        events: the schedule's injected-event log.
        kills: service kill/restart cycles performed.
        recovered: requests resolved by :meth:`QueryService.recover`.
        audit_violations: flagged transfers across all delivered
            results (must be 0 — the audit backstop).
    """

    __slots__ = (
        "config", "statuses", "snapshot", "monitor", "events", "kills",
        "recovered", "audit_violations",
    )

    def __init__(
        self,
        config: ChaosRunConfig,
        statuses: Sequence[str],
        snapshot: dict,
        monitor: dict,
        events: List[dict],
        kills: int,
        recovered: int,
        audit_violations: int,
    ) -> None:
        self.config = config
        self.statuses = list(statuses)
        self.snapshot = snapshot
        self.monitor = monitor
        self.events = events
        self.kills = kills
        self.recovered = recovered
        self.audit_violations = audit_violations

    @property
    def ok_count(self) -> int:
        """Requests that completed with a delivered, audited result."""
        return sum(1 for status in self.statuses if status == OK)

    @property
    def invariant_violations(self) -> int:
        """Invariant violations the monitor observed."""
        return len(self.monitor.get("violations", ()))

    def status_counts(self) -> Dict[str, int]:
        """``status -> count`` over the request outcomes."""
        counts: Dict[str, int] = {}
        for status in self.statuses:
            counts[status] = counts.get(status, 0) + 1
        return counts

    def digest(self) -> str:
        """A deterministic fingerprint of the run.

        Covers the per-request outcome statuses and the full injected
        event log: two runs replay identically iff their digests match.
        """
        payload = json.dumps(
            {"statuses": self.statuses, "events": self.events},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """JSON-safe rendering (benches, artifacts)."""
        return {
            "config": self.config.to_dict(),
            "status_counts": self.status_counts(),
            "ok": self.ok_count,
            "kills": self.kills,
            "recovered": self.recovered,
            "invariant_violations": self.invariant_violations,
            "audit_violations": self.audit_violations,
            "digest": self.digest(),
            "snapshot": self.snapshot,
            "monitor": self.monitor,
            "events": len(self.events),
        }

    def __repr__(self) -> str:
        return (
            f"ChaosReport(seed={self.config.seed}, ok={self.ok_count}/"
            f"{len(self.statuses)}, kills={self.kills}, "
            f"violations={self.invariant_violations})"
        )


def default_system_factory():
    """A fresh medical-workload distributed system (plan cache on)."""
    from repro.distributed.system import DistributedSystem
    from repro.workloads.medical import (
        generate_instances,
        medical_catalog,
        medical_policy,
    )

    system = DistributedSystem(
        medical_catalog(), medical_policy(), plan_cache=True
    )
    system.load_instances(generate_instances(seed=7, citizens=4))
    return system


def _workload(config: ChaosRunConfig) -> List[Tuple[str, str]]:
    """The deterministic request mix: seeded query draw per request,
    tenants round-robin."""
    import random

    rng = random.Random(config.seed ^ 0x0AB0_16)
    names = [tenant.name for tenant in DEFAULT_TENANTS]
    return [
        (
            config.queries[rng.randrange(len(config.queries))],
            names[index % len(names)],
        )
        for index in range(config.requests)
    ]


def run_chaos(
    config: ChaosRunConfig,
    system_factory: Optional[Callable[[], object]] = None,
    monitor: Optional[InvariantMonitor] = None,
    journal: Optional[ServiceJournal] = None,
) -> ChaosReport:
    """Drive one seeded chaos run end-to-end and report.

    Builds the system (``system_factory`` or the default medical
    workload), wires schedule + journal (recovery on) + monitor into a
    :class:`QueryService`, submits the config's request mix with
    deterministic interleaving, crashes and recovers the service at
    every kill point, drains, and settles the termination invariant
    with :meth:`InvariantMonitor.assert_quiescent`.

    Args:
        config: the run configuration.
        system_factory: zero-argument system builder (the same factory
            must be used to replay a run).
        monitor / journal: inject pre-built instances (tests); by
            default the run builds its own.
    """
    factory = system_factory or default_system_factory
    system = factory()
    schedule = config.schedule()
    run_journal = journal if journal is not None else (
        ServiceJournal() if config.recovery else None
    )
    metrics = MetricsRegistry()
    run_monitor = monitor if monitor is not None else InvariantMonitor(
        metrics=metrics
    )
    requests = _workload(config)

    def make_service() -> QueryService:
        return QueryService(
            system,
            tenants=DEFAULT_TENANTS,
            workers=config.workers,
            max_queue=config.max_queue,
            metrics=metrics,
            chaos=schedule,
            journal=run_journal,
            monitor=run_monitor,
            max_chaos_retries=config.max_chaos_retries,
        )

    state = {"service": make_service(), "kills": 0, "recovered": 0}

    async def submit_one(query: str, tenant: str):
        while True:
            service = state["service"]
            try:
                return await service.submit(query, tenant=tenant)
            except ServiceError:
                # The service was killed between task creation and
                # submission; retry against the successor.
                await asyncio.sleep(0)

    async def drive():
        await state["service"].start()
        tasks = []
        for query, tenant in requests:
            tasks.append(asyncio.ensure_future(submit_one(query, tenant)))
            for _ in range(config.spins):
                await asyncio.sleep(0)
            if schedule.kill_due():
                await state["service"].kill()
                state["kills"] += 1
                successor = make_service()
                await successor.start()
                if run_journal is not None:
                    recovered = await successor.recover()
                    state["recovered"] += len(recovered)
                state["service"] = successor
        outcomes = await asyncio.gather(*tasks)
        await state["service"].stop()
        return outcomes

    outcomes = asyncio.run(drive())
    run_monitor.assert_quiescent()
    audit_violations = sum(
        len(outcome.result.audit.violations)
        for outcome in outcomes
        if outcome.result is not None and outcome.result.audit is not None
    )
    return ChaosReport(
        config,
        [outcome.status for outcome in outcomes],
        state["service"].snapshot(),
        run_monitor.report(),
        schedule.event_log(),
        kills=state["kills"],
        recovered=state["recovered"],
        audit_violations=audit_violations,
    )


def replay_artifact(
    path: str,
    system_factory: Optional[Callable[[], object]] = None,
) -> Tuple[ChaosReport, bool]:
    """Re-run the chaos run a violation artifact recorded.

    Returns ``(report, matched)`` where ``matched`` says whether the
    replayed run's digest equals the recorded one — ``True`` means the
    artifact reproduced bit-exactly.

    Raises:
        ReproError: when the artifact lacks a run config.
    """
    from repro.io.serialize import load_json

    payload = load_json(path)
    run = payload.get("run") or {}
    if "config" not in run:
        raise ReproError(
            f"artifact {path!r} carries no run config; cannot replay"
        )
    config = ChaosRunConfig.from_dict(run["config"])
    report = run_chaos(config, system_factory=system_factory)
    recorded = run.get("digest")
    return report, (recorded is None or report.digest() == recorded)


def write_run_artifact(
    report: ChaosReport, monitor_report_path: str, monitor: InvariantMonitor
) -> str:
    """Write a violation/replay artifact for a completed run (the
    monitor contributes violations + chaos config, the report its
    config and digest)."""
    return monitor.write_artifact(
        monitor_report_path,
        extra={"config": report.config.to_dict(), "digest": report.digest()},
    )
