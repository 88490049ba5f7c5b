"""The five workloads, their request streams and the oracle.

Each workload stresses different layers on purpose (``why`` below is
the text ``BENCHMARK.json`` records); ``README.md`` has the full
rationale and the table of which layer metric should move which
end-to-end metric on which workload.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.builder import build_plan
from repro.core.authorization import Policy
from repro.distributed.system import DistributedSystem
from repro.engine.operators import evaluate_plan
from repro.exceptions import InfeasiblePlanError
from repro.service import INFEASIBLE, OK

from bench_e2e import worlds

TENANTS = ("t0", "t1", "t2")

#: State key of the policy with every explicit rule granted.
BASE_STATE = "base"


class Request(NamedTuple):
    shape: str
    sql: str
    tenant: str


class Workload(NamedTuple):
    name: str
    why: str
    #: ``seed -> (catalog, explicit policy, instances, shard schemes)``.
    world: Callable[[int], tuple]
    shapes: Dict[str, str]
    tenants: Tuple[str, ...]
    clients: int
    #: Server every result is delivered to (``None``: it stays where the
    #: plan materializes it).  The chain workloads deliver to ``S1`` so
    #: that a sharded run, whose joins are co-located by construction,
    #: still ships its result and ``shipped_bytes_per_query`` is never 0.
    recipient: Optional[str]
    #: Requests served (and discarded) during set-up.
    warmup: int
    #: Every request carries a distinct literal, so the SQL parse memo
    #: and the 128-entry plan cache miss each time.
    literals: bool
    #: Completed requests between two policy updates (0 = no churn).
    churn_every: int
    churn_rules: Callable[[], list]
    #: Client ``k`` draws only from ``shapes[k::stride]``: with stride =
    #: clients, two in-flight requests are never identical.
    shape_stride: int
    #: Requests in each fixed-count loop of the traced pass, and in the
    #: stage-by-stage replay sample (both at ``--seconds 15``, the run
    #: length ``BENCHMARK.json`` fixes; they scale with ``--seconds``).
    trace_requests: int
    replay_sample: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_hot",
            why=(
                "six coalition shapes repeat over 3 tenants and 8 clients: plan "
                "cache and parse memo stay warm, data is tiny, so service "
                "admission/queue/single-flight and the cache hit path do the work"
            ),
            world=lambda seed: worlds.coalition_world(),
            shapes=worlds.COALITION_SHAPES,
            tenants=TENANTS,
            clients=8,
            recipient=None,
            warmup=300,
            literals=False,
            churn_every=0,
            churn_rules=worlds.coalition_churn_rules,
            shape_stride=1,
            trace_requests=4500,
            replay_sample=240,
        ),
        Workload(
            name="plan_cold",
            why=(
                "same federation and shapes but a distinct literal per request: "
                "parse memo and the 128-entry plan cache miss every time, so sql, "
                "builder, planner/CanView and safety do the work"
            ),
            world=lambda seed: worlds.coalition_world(),
            shapes=worlds.COALITION_SHAPES,
            tenants=TENANTS,
            clients=8,
            recipient=None,
            warmup=300,
            literals=True,
            churn_every=0,
            churn_rules=worlds.coalition_churn_rules,
            shape_stride=1,
            trace_requests=2400,
            replay_sample=240,
        ),
        Workload(
            name="policy_churn",
            why=(
                "serve_hot's mix with a revoke or grant after every 50 requests: "
                "full closure recompute, planner rebuild and plan-cache "
                "revalidation run beside reads, the opposite use of the caches"
            ),
            world=lambda seed: worlds.coalition_world(),
            shapes=worlds.COALITION_SHAPES,
            tenants=TENANTS,
            clients=8,
            recipient=None,
            warmup=300,
            literals=False,
            churn_every=50,
            churn_rules=worlds.coalition_churn_rules,
            shape_stride=1,
            trace_requests=2400,
            replay_sample=240,
        ),
        Workload(
            name="exec_scan",
            why=(
                "ABL18 chain (4 000 rows/table), warm plan cache, 2 clients that "
                "never coalesce: operators, executor shipping, audit and "
                "serialization do the work; planner and service are noise"
            ),
            world=lambda seed: worlds.chain_world(seed, sharded=False),
            shapes=worlds.CHAIN_SHAPES,
            tenants=TENANTS[:1],
            clients=2,
            recipient="S1",
            warmup=24,
            literals=False,
            churn_every=0,
            churn_rules=worlds.chain_churn_rules,
            shape_stride=2,
            trace_requests=90,
            replay_sample=40,
        ),
        Workload(
            name="shard_scan",
            why=(
                "exec_scan's world and requests through 4-shard hash "
                "co-partitioning: scheme.split, certification, serial per-shard "
                "runs and merge do the work; the honest wall-clock view of sharding"
            ),
            world=lambda seed: worlds.chain_world(seed, sharded=True),
            shapes=worlds.CHAIN_SHAPES,
            tenants=TENANTS[:1],
            clients=2,
            recipient="S1",
            warmup=12,
            literals=False,
            churn_every=0,
            churn_rules=worlds.chain_churn_rules,
            shape_stride=2,
            trace_requests=30,
            replay_sample=28,
        ),
    )
}


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------


def client_stream(
    workload: Workload,
    seed: int,
    client: int,
    literal_attrs: Optional[Dict[str, str]] = None,
) -> Iterator[Request]:
    """Client ``client``'s endless request sequence for ``seed``.

    Requests are dealt from reshuffled decks of every (shape, tenant)
    pair the client may send, so the mix is balanced over any long run
    and only the *order* depends on the seed: ``shipped_bytes_per_query``
    then repeats across seeds instead of wandering with the draw.
    """
    rng = random.Random(f"{workload.name}/{seed}/{client}")
    names = list(workload.shapes)[client % workload.shape_stride :: workload.shape_stride]
    deck = [(shape, tenant) for shape in names for tenant in workload.tenants]
    serial = 0
    while True:
        rng.shuffle(deck)
        for shape, tenant in deck:
            sql = workload.shapes[shape]
            if workload.literals:
                # Never equal to a stored value: the rows stay the
                # shape's literal-free rows, the text is new every time.
                sql += f" WHERE {literal_attrs[shape]} != 'q{seed}c{client}n{serial}'"
                serial += 1
            yield Request(shape, sql, tenant)


def sample_requests(workload: Workload, seed: int, count: int, literal_attrs) -> List[Request]:
    """The first ``count`` requests of the workload's own sequence,
    round-robin over its clients (the replay sample)."""
    streams = [
        client_stream(workload, seed, client, literal_attrs)
        for client in range(workload.clients)
    ]
    return [next(streams[i % len(streams)]) for i in range(count)]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _plan_signature(system: DistributedSystem, sql: str) -> Optional[str]:
    try:
        _, assignment, _ = system.plan(sql)
    except InfeasiblePlanError:
        return None
    return assignment.describe()


class Oracle:
    """Expected outcome of every request, built from parts that do not
    share the service's path: reference rows from
    ``engine.operators.evaluate_plan`` over the full tables, expected
    status per shape under each policy state of the churn cycle from a
    fresh cache-off ``DistributedSystem.plan``.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        catalog, policy, instances, _ = workload.world(seed)
        system = DistributedSystem(catalog, policy, plan_cache=False)
        system.load_instances(instances)
        tables = system.tables()
        self.rows = {
            shape: evaluate_plan(build_plan(catalog, system.parse(sql)), tables)
            for shape, sql in workload.shapes.items()
        }
        base = {shape: _plan_signature(system, sql) for shape, sql in workload.shapes.items()}
        self.status = {BASE_STATE: self._statuses(base)}
        self.literal_attrs: Optional[Dict[str, str]] = None
        if workload.literals:
            self.literal_attrs = {
                shape: self._literal_attr(system, catalog, tables, shape, sql, base[shape])
                for shape, sql in workload.shapes.items()
            }
        self.churn_states: List[str] = []
        if workload.churn_every:
            replanned = reused = False
            for index, rule in enumerate(workload.churn_rules()):
                state = f"revoked{index}"
                reduced = Policy(r for r in policy if r != rule)
                without = DistributedSystem(catalog, reduced, plan_cache=False)
                plans = {
                    shape: _plan_signature(without, sql)
                    for shape, sql in workload.shapes.items()
                }
                self.status[state] = self._statuses(plans)
                self.churn_states.append(state)
                if plans == base:
                    reused = True
                else:
                    replanned = True
            if not (replanned and reused):
                raise AssertionError(
                    "churn rules must include one a cached plan uses and one none uses"
                )

    @staticmethod
    def _statuses(plans: Dict[str, Optional[str]]) -> Dict[str, str]:
        return {shape: OK if plan is not None else INFEASIBLE for shape, plan in plans.items()}

    def _literal_attr(self, system, catalog, tables, shape, sql, base_plan) -> str:
        """The first selected attribute a literal can go on without
        changing the shape's feasibility (a selection attribute counts
        towards the views a server must be authorized for)."""
        for attr in sorted(system.parse(sql).select):
            probe = f"{sql} WHERE {attr} != 'q'"
            if (_plan_signature(system, probe) is None) != (base_plan is None):
                continue
            rows = evaluate_plan(build_plan(catalog, system.parse(probe)), tables)
            if rows == self.rows[shape]:
                return attr
        raise AssertionError(f"no literal attribute keeps {shape}'s feasibility")

    def allowed_statuses(self, shape: str, states: Sequence[str]) -> set:
        return {self.status[state][shape] for state in states}
