"""The :class:`DistributedSystem` facade — the library's front door.

Ties every layer together: catalog + policy + servers + instances in,
safe plans and audited executions out.  A typical session::

    from repro.distributed import DistributedSystem
    from repro.workloads import medical_catalog, medical_policy, generate_instances

    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7))
    result = system.execute(
        "SELECT Patient, Physician, Plan, HealthAid "
        "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
        "JOIN Hospital ON Citizen = Patient"
    )
    print(result.table, result.transfers.describe())

Queries are accepted as SQL text or as pre-bound
:class:`~repro.algebra.builder.QuerySpec` objects.  Planning uses the
paper's Figure 6 algorithm on the (optionally chase-closed) policy; when
the user's join order is infeasible, :meth:`plan` can search alternative
orders (the two-step optimization note of Section 5).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.builder import QuerySpec, build_plan
from repro.algebra.optimizer import enumerate_join_orders
from repro.algebra.schema import Catalog
from repro.algebra.tree import QueryTreePlan
from repro.core.assignment import Assignment
from repro.core.authorization import Authorization, Policy
from repro.core.closure import close_policy, extend_closure
from repro.core.plancache import PlanCache, fingerprint_tree
from repro.core.planner import PlannerTrace, SafePlanner
from repro.core.thirdparty import ThirdPartyPlanner
from repro.distributed.pipeline import QueryPipeline
from repro.distributed.server import Server
from repro.engine.data import Table
from repro.engine.executor import ExecutionResult
from repro.exceptions import ExecutionError, InfeasiblePlanError

Query = Union[str, QuerySpec]


class DistributedSystem:
    """A set of cooperating servers under one authorization policy.

    Args:
        catalog: schemas, placement and join edges of the system.
        policy: the explicit authorizations.
        apply_closure: close the policy under the chase (Section 3.2)
            before planning; on by default, as the paper assumes.
        third_parties: optional servers usable as join coordinators
            (enables the footnote 3 fallback).
        trace: optional :class:`~repro.obs.trace.TraceContext`; when
            given, policy closure, planning and execution all emit
            spans and metrics into it.  :meth:`plan` and
            :meth:`execute` also accept a per-call ``trace`` that
            overrides this one.
        plan_cache: the policy-epoch plan cache (see
            :mod:`repro.core.plancache`).  ``True`` (default) builds a
            default-sized :class:`~repro.core.plancache.PlanCache`,
            ``False`` disables caching entirely, and a pre-built
            :class:`~repro.core.plancache.PlanCache` is used as given.
            Repeated queries (including the copies inside
            :meth:`simulate_concurrent`) then plan once; after a policy
            mutation (:meth:`add_authorization`,
            :meth:`revoke_authorization`) cached plans are cheaply
            re-audited against the current policy before reuse, and
            replanned only when no longer safe.
    """

    def __init__(
        self,
        catalog: Catalog,
        policy: Policy,
        apply_closure: bool = True,
        third_parties: Sequence[str] = (),
        trace=None,
        plan_cache: Union[bool, PlanCache] = True,
    ) -> None:
        policy.validate_against(catalog)
        self._catalog = catalog
        self._explicit_policy = policy
        self._trace = trace
        self._policy = (
            close_policy(policy, catalog, obs=trace) if apply_closure else policy
        )
        self._third_parties = tuple(third_parties)
        if plan_cache is True:
            self._plan_cache: Optional[PlanCache] = PlanCache()
        elif plan_cache is False or plan_cache is None:
            self._plan_cache = None
        else:
            self._plan_cache = plan_cache
        # SQL text -> bound form (see _remember); parsing is
        # policy-independent, so the memo never needs invalidation.
        self._parse_memo: Dict[str, Tuple[str, object]] = {}
        # Skeleton (a text minus its literals) -> the spec first bound
        # for it: later literals are substituted, not parsed.
        self._skeletons: Dict[Tuple[str, ...], QuerySpec] = {}
        self._planner = self._make_planner()
        self._servers: Dict[str, Server] = {}
        for schema in catalog.relations():
            if schema.server is None:
                raise ExecutionError(
                    f"relation {schema.name!r} is not placed at any server"
                )
            server = self._servers.setdefault(schema.server, Server(schema.server))
            server.host_relation(schema)
        for name in self._third_parties:
            self._servers.setdefault(name, Server(name))
        # The federation is fixed from here on: name order, once.
        self._servers = dict(sorted(self._servers.items()))
        # Resident shards: relation -> (the instance that was split,
        # scheme routing key -> its shards).  An entry is only ever
        # served for the very ``Table`` object it was split from.
        self._resident_shards: Dict[str, Tuple[Table, Dict[object, List[Table]]]] = {}
        # Scheme-set key -> the long-lived sharding coordinator.
        self._coordinators: Dict[object, object] = {}

    def _make_planner(
        self,
        excluded_servers: Sequence[str] = (),
        pinned: Optional[Mapping[int, str]] = None,
        obs=None,
    ) -> SafePlanner:
        """A planner of this system's flavor, optionally restricted to
        surviving servers and seeded with materialized subtrees."""
        if obs is None:
            obs = self._trace
        if self._third_parties:
            return ThirdPartyPlanner(
                self._policy,
                self._third_parties,
                excluded_servers=excluded_servers,
                pinned=pinned,
                obs=obs,
            )
        return SafePlanner(
            self._policy, excluded_servers=excluded_servers, pinned=pinned, obs=obs
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The schema catalog."""
        return self._catalog

    @property
    def policy(self) -> Policy:
        """The effective (possibly chase-closed) policy."""
        return self._policy

    @property
    def explicit_policy(self) -> Policy:
        """The policy as specified, before closure."""
        return self._explicit_policy

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The policy-epoch plan cache (``None`` when disabled)."""
        return self._plan_cache

    def server(self, name: str) -> Server:
        """A server by name."""
        if name not in self._servers:
            raise ExecutionError(f"unknown server: {name!r}")
        return self._servers[name]

    def servers(self) -> List[Server]:
        """All servers, sorted by name."""
        return list(self._servers.values())

    # ------------------------------------------------------------------
    # Policy mutation (epoch-bumping)
    # ------------------------------------------------------------------

    def add_authorization(self, authorization: Authorization, trace=None) -> int:
        """Grant one rule to the live system.

        The effective (closed) policy is maintained **in place**: the
        fixpoint is extended by chasing from the new rule alone
        (:func:`~repro.core.closure.extend_closure`).  The policy epoch
        bumps, so cached plans are revalidated on their next use —
        grants only widen the policy, so they revalidate successfully
        and are reused without replanning.

        Args:
            authorization: the rule to grant (validated against the
                catalog; an exact duplicate of an *explicit* rule
                raises, while re-granting a derivable view merely
                records it as explicit).
            trace: optional per-call trace override for the incremental
                chase's spans.

        Returns:
            The number of rules the effective policy actually gained
            (the explicit rule plus its chase derivations; 0 when the
            rule was already derivable).

        Raises:
            AuthorizationError: if the rule is malformed for the catalog.
            PolicyError: if the exact rule is already explicitly granted,
                or the incremental chase overflows its safety valve.
        """
        if trace is None:
            trace = self._trace
        authorization.validate_against(self._catalog)
        self._explicit_policy.add(authorization)
        if self._policy is self._explicit_policy:
            # No closure in force: the explicit add above already bumped
            # the (shared) effective policy's epoch.
            return 1
        return extend_closure(self._policy, [authorization], self._catalog, obs=trace)

    def revoke_authorization(self, authorization: Authorization, trace=None) -> None:
        """Withdraw one explicit rule from the live system.

        The chase only joins rules of the *same* server, so a revoke can
        only strand derivations of its own grantee.  The effective policy
        is maintained **in place**: the grantee's rules are dropped and
        its surviving explicit rules re-added and chased
        (:func:`~repro.core.closure.extend_closure`).  Other servers'
        rules keep their rule ids (the grantee's get fresh ones; a
        retired id is never reused); the policy object and the planner
        survive.  The epoch moves, so every cached plan is revalidated:
        one that relied on the revoked rule fails the re-audit, is
        evicted, and the query replans under the reduced policy.

        Args:
            authorization: the explicit rule to withdraw (derived rules
                cannot be revoked directly — revoke the explicit rules
                they chase from).
            trace: optional per-call trace override for the chase spans.

        Raises:
            PolicyError: if the rule is not explicitly granted.
        """
        if trace is None:
            trace = self._trace
        self._explicit_policy.remove(authorization)
        if self._policy is self._explicit_policy:
            return
        for rule in self._policy.rules_for(authorization.server):
            self._policy.remove(rule)
        survivors = self._explicit_policy.rules_for(authorization.server)
        extend_closure(self._policy, survivors, self._catalog, obs=trace)

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------

    def load_instances(
        self, instances: Mapping[str, Sequence[Mapping[str, object]]]
    ) -> None:
        """Load row-dict instances (``relation name -> rows``) onto the
        servers hosting each relation."""
        for relation_name, rows in instances.items():
            schema = self._catalog.relation(relation_name)
            table = Table.from_rows(schema.attributes, rows)
            self._servers[schema.server].load_table(relation_name, table)
            self._resident_shards.pop(relation_name, None)

    def tables(self) -> Dict[str, Table]:
        """Every loaded instance, keyed by relation name (a fresh dict
        in server order, then relation order)."""
        result: Dict[str, Table] = {}
        for server in self._servers.values():
            result.update(server.tables())
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parse(self, query: Query) -> QuerySpec:
        """SQL text (or a pre-bound spec, returned as-is) to a QuerySpec,
        through the parse memo."""
        kind, payload = self._parsed(query)
        if kind == "spec":
            return payload
        from repro.sql import parse_query  # deferred: sql depends on algebra only

        # A parenthesized FROM binds to a tree; this raises the spec
        # binder's own error for it.
        return parse_query(query, self._catalog)

    def plan(
        self,
        query: Query,
        search_join_orders: bool = False,
        trace=None,
    ) -> Tuple[QueryTreePlan, Assignment, PlannerTrace]:
        """Build a minimized plan and a safe executor assignment.

        With the plan cache on (the default), repeats of a query —
        same bound spec, or the same SQL text, or any text binding to
        the same canonical fingerprint — return the cached
        ``(tree, assignment, trace)`` without replanning, as long as the
        cached assignment is still provably safe under the current
        policy (see :mod:`repro.core.plancache` for the epoch /
        revalidation semantics).  A query differing from an earlier one
        only in its WHERE constants has that query's *shape* and is not
        planned either: the cached decision is bound to its own tree
        (nor is a text differing from an earlier one only in its
        literals parsed, see :meth:`_parsed`).
        Cached objects are shared between calls and must be treated as
        immutable.

        Args:
            query: SQL text or bound spec.
            search_join_orders: when the given order is infeasible, try
                the other connected left-deep orders before giving up.
            trace: optional :class:`~repro.obs.trace.TraceContext` that
                this call's planning spans and metrics flow into
                (overrides the system-wide trace for this call).

        Raises:
            InfeasiblePlanError: when no considered plan admits a safe
                assignment.  The verdict is cached per shape but never
                outlives the policy epoch it was computed at — a grant
                unlocks the query on its very next request.
        """
        if trace is None or trace is self._trace:
            planner = self._planner
        else:
            planner = self._make_planner(obs=trace)
        cache = self._plan_cache
        kind, payload = self._parsed(query)
        if cache is None:
            return self._plan_parsed(kind, payload, planner, search_join_orders)
        obs = trace if trace is not None else self._trace
        if kind == "tree":
            # Explicitly shaped (bushy) queries never order-search, so
            # the flag is not part of their identity.
            fingerprint: object = fingerprint_tree(payload)
        else:
            fingerprint = (payload.fingerprint(), search_join_orders)
        entry = cache.lookup(fingerprint, self._policy, obs=obs)
        if entry is not None:
            return entry.tree, entry.assignment, entry.planner_trace
        # A tree's shape is the user's: no tier below the exact one.
        shape = fingerprint if kind == "tree" else (payload.shape(), search_join_orders)
        decision = cache.lookup_shape(shape, self._policy, obs=obs)
        if decision is None:
            try:
                product = self._plan_parsed(kind, payload, planner, search_join_orders)
            except InfeasiblePlanError as error:
                cache.store_infeasible(shape, self._policy, error)
                raise
            cache.store(shape, self._policy, *product)
        elif decision.infeasible is not None:
            raise InfeasiblePlanError(*decision.infeasible)
        else:
            product = self._bind(payload, decision)
        cache.store(fingerprint, self._policy, *product)
        return product

    def _bind(
        self, spec: QuerySpec, decision
    ) -> Tuple[QueryTreePlan, Assignment, PlannerTrace]:
        """Bind a shape-tier decision to ``spec``: the decided tree — in
        the FROM order the decision was made for; the order search may
        have moved it — under ``spec``'s constants, and the decided
        executors (``rebound`` checks the two trees node by node)."""
        tree = decision.tree.with_selections(spec.where)
        return tree, decision.assignment.rebound(tree), decision.planner_trace

    def _parsed(self, query: Query) -> Tuple[str, object]:
        """Bind a query to its planning form, memoizing SQL texts.

        Returns ``("spec", QuerySpec)`` for bound specs and left-deep
        SQL, or ``("tree", QueryTreePlan)`` for parenthesized (bushy)
        FROM clauses, whose shape is the user's explicit choice.
        Parsing and binding are pure functions of ``(text, catalog)``,
        so neither memo ever needs invalidation.

        A text the exact memo misses is split at its literals
        (:func:`~repro.sql.lexer.split_literals`).  A skeleton seen
        before is not parsed: the request's spec is the one first bound
        for that skeleton under this text's constants — what parsing
        would give, ``fingerprint()`` included.  Any other text (a new
        skeleton, a bushy FROM, a malformed text) parses and binds, and
        raises what that raises.
        """
        if isinstance(query, QuerySpec):
            return "spec", query
        if isinstance(query, tuple):
            # Already bound (a pair this returned): the service binds a
            # request once, at submit, and hands the pair down.
            return query
        cached = self._parse_memo.get(query)
        if cached is not None:
            return cached
        from repro.sql import bind, bind_plan, parse
        from repro.sql.lexer import split_literals

        skeleton, values = split_literals(query)
        prepared = self._skeletons.get(skeleton)
        if prepared is not None:
            result: Tuple[str, object] = ("spec", prepared.with_constants(values))
        else:
            parsed = parse(query)
            if not parsed.is_left_deep:
                result = ("tree", bind_plan(parsed, self._catalog))
            else:
                spec = bind(parsed, self._catalog)
                result = ("spec", spec)
                # Prepared only when the splitter read this text as the
                # lexer did: the constants that reached the spec are its
                # values, in value, type and order.
                constants = spec.constants()
                if constants == values and [*map(type, constants)] == [*map(type, values)]:
                    self._remember(self._skeletons, skeleton, spec)
        self._remember(self._parse_memo, query, result)
        return result

    #: Entries the parse memo and the skeleton table each keep; beyond
    #: it the oldest is dropped.
    _PARSE_MEMO_LIMIT = 1024

    def _remember(self, memo: dict, key: object, value: object) -> None:
        """Memoize one bound text, or one skeleton's spec, while the
        plan cache is on (the memos exist to make repeats parse-free).
        Oldest out, never newest refused: the text just parsed is the
        one this request's next stage (admission, plan key, plan) asks
        for."""
        if self._plan_cache is None:
            return
        if len(memo) >= self._PARSE_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[key] = value

    def _plan_parsed(
        self,
        kind: str,
        payload: object,
        planner: SafePlanner,
        search_join_orders: bool,
    ) -> Tuple[QueryTreePlan, Assignment, PlannerTrace]:
        """Plan a bound query from scratch (the pre-cache hot path)."""
        if kind == "tree":
            # Parenthesized (bushy) FROM: plan it as written (no order
            # search).
            tree = payload
            assignment, planner_trace = planner.plan(tree)
            return tree, assignment, planner_trace
        spec = payload
        tree = build_plan(self._catalog, spec)
        try:
            assignment, planner_trace = planner.plan(tree)
            return tree, assignment, planner_trace
        except InfeasiblePlanError:
            if not search_join_orders:
                raise
        last_error: Optional[InfeasiblePlanError] = None
        for candidate in enumerate_join_orders(self._catalog, spec):
            if candidate.relations == spec.relations:
                continue
            tree = build_plan(self._catalog, candidate)
            try:
                assignment, planner_trace = planner.plan(tree)
                return tree, assignment, planner_trace
            except InfeasiblePlanError as error:
                last_error = error
        raise InfeasiblePlanError(
            "no join order of the query admits a safe assignment"
        ) from last_error

    def is_feasible(self, query: Query) -> bool:
        """Whether the query's plan admits a safe assignment (Def. 4.3)."""
        try:
            self.plan(query)
        except InfeasiblePlanError:
            return False
        return True

    def execute(
        self, query: Query, recipient: Optional[str] = None, **options
    ) -> ExecutionResult:
        """Plan and run a query end-to-end, audited:
        ``self.pipeline(query, recipient=recipient, **options).run()``.

        The options (``search_join_orders``, ``verify``, ``faults``,
        ``retry``, ``max_failovers``, ``deadline``, ``health``,
        ``checkpoint``, ``resume_from``, ``trace``, ``profiler``, ...)
        and the error contract are documented once, on
        :class:`~repro.distributed.pipeline.QueryPipeline`.
        """
        return self.pipeline(query, recipient=recipient, **options).run()

    def pipeline(self, query: Query, **options) -> QueryPipeline:
        """A per-query :class:`~repro.distributed.pipeline.QueryPipeline`.

        The pipeline is the reusable unit behind :meth:`execute`: it
        plans (through the plan cache), verifies and executes exactly as
        :meth:`execute` does, but the stages are separately callable.
        The asyncio service layer (:mod:`repro.service`) builds one per
        flight leader, so identical in-flight requests share one run.

        Args:
            query: SQL text or bound spec.
            **options: see :class:`~repro.distributed.pipeline.QueryPipeline`.
        """
        return QueryPipeline(self, query, **options)

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------

    #: Distinct schemes kept resident per relation, and coordinators
    #: kept per system; the oldest is dropped beyond either bound.
    _RESIDENT_LIMIT = 8

    def shards_of(self, scheme, trace=None) -> List[Table]:
        """The loaded instance of ``scheme.relation`` split by ``scheme``.

        Shards are **resident**: split once per (loaded instance,
        scheme) and reused by every later request.  Residency is
        validated by ``Table`` identity — a reload swaps the instance
        object, so a stale split can never be served — and schemes are
        keyed by value (:meth:`~repro.sharding.PartitionScheme.routing_key`),
        so equal schemes built twice share one split.  With a trace,
        counts ``repro_shard_split_total{outcome="hit"|"miss"}``.
        """
        relation = scheme.relation
        table = self._servers[self._catalog.relation(relation).server].table(relation)
        resident = self._resident_shards.get(relation)
        if resident is None or resident[0] is not table:
            resident = self._resident_shards[relation] = (table, {})
        by_scheme = resident[1]
        key = scheme.routing_key()
        shards = by_scheme.get(key)
        if trace is not None:
            trace.count(
                "repro_shard_split_total",
                outcome="miss" if shards is None else "hit",
            )
        if shards is None:
            if len(by_scheme) >= self._RESIDENT_LIMIT:
                del by_scheme[next(iter(by_scheme))]
            shards = by_scheme[key] = scheme.split(table)
        return shards

    def _shard_coordinator(self, schemes):
        """The long-lived :class:`~repro.sharding.ShardedExecutor` for
        this scheme set (by value), built on first use; a coordinator
        passed in place of a scheme set is used as it is."""
        from repro.sharding.executor import ShardedExecutor, scheme_set_key

        if isinstance(schemes, ShardedExecutor):
            return schemes
        key = scheme_set_key(schemes)
        coordinator = self._coordinators.get(key)
        if coordinator is None:
            if len(self._coordinators) >= self._RESIDENT_LIMIT:
                del self._coordinators[next(iter(self._coordinators))]
            coordinator = self._coordinators[key] = ShardedExecutor(self, schemes)
        return coordinator

    def certify_sharding(self, query: Query, schemes, trace=None):
        """Run the parallel-correctness checker for ``schemes`` alone.

        Returns the :class:`~repro.sharding.ShardCertificate` without
        executing anything — callers inspect ``certificate.certified``
        and ``certificate.mode`` to learn whether a partitioned run is
        provably equivalent to single-copy execution.
        """
        return self._shard_coordinator(schemes).certify(
            query, trace if trace is not None else self._trace
        )

    def execute_sharded(
        self, query: Query, schemes, recipient: Optional[str] = None, **options
    ):
        """Run ``query`` partition-parallel under ``schemes``, gated:
        ``self.pipeline(query, recipient=recipient, schemes=schemes,
        **options).run()``.

        Only schemes the parallel-correctness checker certifies execute
        partitioned; anything else runs as one single-copy unit — the
        result is *always* produced (see the ``schemes`` option of
        :class:`~repro.distributed.pipeline.QueryPipeline`).

        Every call goes through the system's long-lived coordinator for
        ``schemes`` (one per scheme set, by value), so shards stay
        resident (:meth:`shards_of`) and per-shard plans are reused
        within a policy epoch; certification, plan verification and the
        per-shard audit still run on every call.

        Args:
            query: SQL text or bound spec (left-deep joins only).
            schemes: mapping of relation name to
                :class:`~repro.sharding.PartitionScheme`.
            recipient: optional final consumer; audited per shard.
            **options: see :class:`~repro.distributed.pipeline.QueryPipeline`
                (``allow_multiround``, ``faults``, ...).

        Returns:
            a :class:`~repro.sharding.ShardedResult`.
        """
        return self.pipeline(
            query, recipient=recipient, schemes=schemes, **options
        ).run()

    def simulate_concurrent(
        self,
        queries: Sequence[Query],
        compute_rate: float = 100.0,
        network=None,
        arrival_times: Optional[Sequence[float]] = None,
        downtime=None,
        trace=None,
    ):
        """Plan, execute and then simulate ``queries`` running together.

        Each query runs through its own :meth:`pipeline` (planned,
        verified and audited) to obtain its real transfer volumes, then
        the discrete-event
        simulator schedules all of them over the shared servers.

        Args:
            queries: SQL texts or bound specs.
            compute_rate: bytes a server processes per time unit.
            network: optional :class:`~repro.distributed.network.NetworkModel`.
            arrival_times: per-query submission times (default all 0).
            downtime: optional per-server crash windows (e.g. from
                :meth:`FaultInjector.downtime_windows
                <repro.distributed.faults.FaultInjector.downtime_windows>`)
                blocking compute during outages.
            trace: optional :class:`~repro.obs.trace.TraceContext`;
                planning and per-query execution are traced as usual and
                every scheduled simulation task becomes a retroactive
                span on its server's track.

        Returns:
            A :class:`~repro.distributed.simulation.SimulationResult`.

        Raises:
            InfeasiblePlanError: if any query has no safe assignment.
        """
        from repro.distributed.simulation import MultiQuerySimulator

        if trace is None:
            trace = self._trace
        runs = []
        for query in queries:
            pipeline = self.pipeline(query, trace=trace)
            _, assignment, _ = pipeline.plan()
            runs.append((assignment, pipeline.run().transfers))
        simulator = MultiQuerySimulator(
            compute_rate=compute_rate, network=network, downtime=downtime
        )
        return simulator.run(runs, arrival_times=arrival_times, trace=trace)

    def describe(self) -> str:
        """Human-readable system summary: catalog plus policy sizes."""
        return (
            self._catalog.describe()
            + f"\nexplicit rules: {len(self._explicit_policy)}"
            + f"\nclosed rules: {len(self._policy)}"
        )
