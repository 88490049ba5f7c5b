"""The service's one request body: every flight leader and every
recovered request runs through :meth:`RequestRunner.run`, the only
pipeline-building site of the service.  Followers share a leader's
result (and its profiles) without running or double-harvesting."""

from __future__ import annotations

from repro.core.plancache import fingerprint_tree


class RequestRunner:
    """Runs one service's requests: over its system, reporting to its
    listener (execution begin / end) and metrics registry, under its
    trace, sharding coordinator (``schemes``) and stats store (see
    :class:`~repro.service.service.QueryService`)."""

    def __init__(self, system, hooks, metrics, trace, schemes, stats_store) -> None:
        self._system = system
        self._hooks = hooks
        self._metrics = metrics
        self._trace = trace
        self._schemes = schemes
        self._stats_store = stats_store
        #: Planned runs (a refusal at planning is no execution).
        self.executions = 0

    def flight_key(self, bound, recipient, search: bool, tenant) -> tuple:
        """The one flight key, of a request's bound pair.  Two requests
        share a run only when all four parts agree: the identity the
        plan cache fingerprints on (so "would share a cache entry" and
        "share a run" agree), the recipient (the closing delivery is
        itself an authorized transfer), whether the tenant's runs are
        profiled (only a profiled run carries a profile), and the policy
        epoch (a request admitted after a grant or revoke never shares a
        run, or a refusal, decided under the older policy)."""
        kind, payload = bound
        if kind == "tree":
            fingerprint = fingerprint_tree(payload)
        else:
            fingerprint = (payload.fingerprint(), search)
        return (fingerprint, recipient, tenant.profile, self._system.policy.epoch)

    def run(self, key, query, recipient, tenant, search, **options):
        """Build the pipeline (profiled for a profiled tenant), plan — a
        refusal raises here and is no execution — run under the counted
        execution events, and harvest the profile."""
        profiler = None
        if tenant.profile:
            from repro.profiling import QueryProfiler

            profiler = QueryProfiler(selectivities=self._stats_store)
        pipeline = self._system.pipeline(
            query,
            recipient=recipient,
            search_join_orders=search,
            trace=self._trace,
            schemes=self._schemes,
            profiler=profiler,
            **options,
        )
        pipeline.plan()
        self.executions += 1
        self._hooks.execution_begin(key)
        try:
            result = pipeline.run()
        finally:
            self._hooks.execution_end(key)
        if tenant.profile:
            for unit in getattr(result, "unit_results", (result,)):
                self._harvest_profile(tenant.name, unit)
        return result

    def _harvest_profile(self, tenant_name: str, result) -> None:
        """Fold one profiled execution back into the feedback loop:
        harvest observed statistics into the store (when configured)
        and export tenant-labeled profile metrics."""
        profile = getattr(result, "profile", None)
        if profile is None:
            return
        if self._stats_store is not None:
            self._stats_store.harvest(profile)
        self._metrics.inc("repro_service_profile_runs_total", tenant=tenant_name)
        self._metrics.observe(
            "repro_service_profile_shipped_bytes",
            profile.actual_bytes,
            tenant=tenant_name,
        )
        if profile.misestimates:
            self._metrics.inc(
                "repro_service_profile_misestimates_total",
                len(profile.misestimates),
                tenant=tenant_name,
            )
