"""The parallel-correctness checker: certify before you fan out.

*Parallel-Correctness and Transferability for Conjunctive Queries*
(Ameloot et al.) gives the condition this module enforces: a one-round
distributed evaluation of a join equals the single-copy evaluation iff
every potentially-joining pair of tuples *meets* at some server.  For
hash/range co-partitioning that reduces to a decidable structural
check — equal join keys must route to equal shard indexes — plus, in
this repository's model, an authorization condition: hosting a shard is
an information release, so no placement may expose a view some group
member is not already authorized for.

:class:`ParallelCorrectnessChecker` certifies a candidate distribution
policy (a ``relation -> PartitionScheme`` mapping) for one bound query
and returns a :class:`ShardCertificate` naming the execution mode the
proof supports:

* ``hypercube`` — every directly-joined pair of sharded relations is
  co-partitioned (same hash family, shard count, and a key bijection
  through the join conditions) and the alignment graph is connected:
  tuples that join already meet, so one single-round, shuffle-free
  partition-parallel execution is correct (unsharded relations are
  broadcast, the degenerate HyperCube grid).
* rejected — anything the checker cannot prove: a join key split
  across incompatible hash functions or mismatched range boundaries, a
  join between sharded relations that is not co-partitioned (a
  partition key the join never equates, or sharded relations no chain
  of aligned joins connects), or a shard placement that would widen
  visibility.  Rejected schemes **never execute partitioned**;
  the coordinator falls back to single-copy execution.

The authorization side rides on the existing chase machinery: the
checker certifies against the :func:`~repro.core.closure.close_policy`
fixpoint (Section 3.2's join derivation), evaluating the group-lifted
``CanView`` of :class:`~repro.sharding.scheme.PartitionGroup` on every
sharded relation's base profile.  Verdicts are a pure function of the
rule set, the catalog and the schemes — epoch bumps that do not change
the rules cannot change a verdict (a property the suite asserts).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.algebra.builder import QuerySpec
from repro.algebra.schema import Catalog
from repro.core.closure import close_policy
from repro.core.profile import RelationProfile
from repro.exceptions import PartitionSchemeError
from repro.sharding.scheme import PartitionScheme

#: Certificate modes.
MODE_HYPERCUBE = "hypercube"
MODE_TRIVIAL = "trivial"  # no sharded relation in the query
MODE_REJECTED = "rejected"


class ShardCertificate:
    """The checker's verdict for one (query, schemes) pair.

    Attributes:
        certified: whether a partitioned execution is provably
            equivalent to single-copy *and* authorization-safe.
        mode: ``hypercube`` when certified, ``trivial`` when the query
            touches no sharded relation, ``rejected`` otherwise.
        reason: why certification failed (empty when certified).
        sharded: the sharded relations the query touches, in FROM order.
        details: human-readable proof notes, deterministic order.
        policy_epoch: the policy epoch the verdict was computed under
            (recorded for observability; the verdict itself depends only
            on the rules).
    """

    __slots__ = ("certified", "mode", "reason", "sharded", "details", "policy_epoch")

    def __init__(
        self,
        certified: bool,
        mode: str,
        reason: str = "",
        sharded: Sequence[str] = (),
        details: Sequence[str] = (),
        policy_epoch: int = 0,
    ) -> None:
        self.certified = certified
        self.mode = mode
        self.reason = reason
        self.sharded = tuple(sharded)
        self.details = tuple(details)
        self.policy_epoch = policy_epoch

    def __bool__(self) -> bool:
        return self.certified

    def summary_dict(self) -> dict:
        """Flat JSON-safe rendering (always the same keys)."""
        return {
            "certified": self.certified,
            "mode": self.mode,
            "reason": self.reason,
            "sharded": list(self.sharded),
            "policy_epoch": self.policy_epoch,
        }

    def __repr__(self) -> str:
        verdict = self.mode if self.certified else f"rejected: {self.reason}"
        return f"ShardCertificate({verdict}, sharded={list(self.sharded)})"


class ParallelCorrectnessChecker:
    """Certify distribution policies for one catalog + policy.

    Args:
        policy: the authorization policy.  Pass the system's already
            chase-closed policy with ``assume_closed=True`` (the normal
            path inside :class:`~repro.distributed.system.DistributedSystem`);
            an explicit policy is closed here first, reusing
            :func:`~repro.core.closure.close_policy`.
        catalog: the schema catalog (supplies join edges and placements).
        assume_closed: skip the closure step.
        trace: optional :class:`~repro.obs.trace.TraceContext`; each
            certification runs in a ``certify`` span and bumps
            ``repro_shard_certify_total{verdict=...}``.
    """

    def __init__(
        self,
        policy,
        catalog: Catalog,
        assume_closed: bool = False,
        trace=None,
    ) -> None:
        self._catalog = catalog
        self._trace = trace
        self._policy = (
            policy if assume_closed else close_policy(policy, catalog, obs=trace)
        )

    @property
    def policy(self):
        """The chase-closed policy verdicts are computed against."""
        return self._policy

    def certify(
        self, spec: QuerySpec, schemes: Mapping[str, PartitionScheme]
    ) -> ShardCertificate:
        """Certify ``schemes`` for ``spec`` (see the module docstring).

        Schemes for relations the query does not touch are ignored —
        including one naming a relation the catalog lacks, which
        :class:`~repro.sharding.ShardedExecutor` refuses at
        construction.  Malformed schemes (unknown attributes) reject
        rather than raise — an uncertifiable distribution policy is a
        verdict, not a caller error.
        """
        trace = self._trace
        if trace is None:
            return self._certify(spec, schemes)
        with trace.span("certify", "sharding") as span:
            certificate = self._certify(spec, schemes)
            span.attrs["mode"] = certificate.mode
            span.attrs["certified"] = certificate.certified
            verdict = "certified" if certificate.certified else "rejected"
            trace.count("repro_shard_certify_total", verdict=verdict)
            trace.event(
                "shard_certified" if certificate.certified else "shard_rejected",
                "sharding",
                mode=certificate.mode,
                reason=certificate.reason,
                sharded=",".join(certificate.sharded),
            )
        return certificate

    # ------------------------------------------------------------------
    # The proof obligations
    # ------------------------------------------------------------------

    def _certify(
        self, spec: QuerySpec, schemes: Mapping[str, PartitionScheme]
    ) -> ShardCertificate:
        catalog = self._catalog
        epoch = getattr(self._policy, "epoch", 0)
        sharded = [name for name in spec.relations if name in schemes]
        if not sharded:
            return ShardCertificate(
                True, MODE_TRIVIAL, sharded=(), policy_epoch=epoch
            )

        def rejected(reason: str, details: Sequence[str] = ()) -> ShardCertificate:
            return ShardCertificate(
                False,
                MODE_REJECTED,
                reason=reason,
                sharded=sharded,
                details=details,
                policy_epoch=epoch,
            )

        # -- gate 0: schemes must be well-formed against the catalog ----
        for name in sharded:
            try:
                schemes[name].validate_against(catalog)
            except PartitionSchemeError as error:
                return rejected(f"invalid scheme for {name!r}: {error}")

        details: List[str] = []
        attrs_of = {
            name: frozenset(catalog.relation(name).attributes)
            for name in spec.relations
        }
        conditions = sorted(
            spec.full_join_path(), key=lambda c: (c.first, c.second)
        )

        # -- gate 1: pairwise structural compatibility ------------------
        # Every directly-joined pair of sharded relations must share a
        # compatibility signature (hash family + shard count + key
        # arity, or identical range boundaries): a join key split across
        # incompatible routing functions sends equal keys to different
        # shards.
        aligned_pairs = set()
        joined_pairs = set()
        for i, left in enumerate(sharded):
            for right in sharded[i + 1 :]:
                mapping: Dict[str, set] = {}
                for condition in conditions:
                    a, b = condition.first, condition.second
                    if a in attrs_of[left] and b in attrs_of[right]:
                        mapping.setdefault(a, set()).add(b)
                    elif b in attrs_of[left] and a in attrs_of[right]:
                        mapping.setdefault(b, set()).add(a)
                if not mapping:
                    continue
                joined_pairs.add((left, right))
                left_scheme, right_scheme = schemes[left], schemes[right]
                if (
                    left_scheme.compatibility_signature()
                    != right_scheme.compatibility_signature()
                ):
                    return rejected(
                        f"join between {left!r} and {right!r} splits its key "
                        f"across incompatible schemes "
                        f"({left_scheme.describe()} vs {right_scheme.describe()})",
                        details,
                    )
                pairwise = zip(left_scheme.attributes, right_scheme.attributes)
                if all(b in mapping.get(a, ()) for a, b in pairwise):
                    aligned_pairs.add((left, right))
                    details.append(
                        f"{left}~{right}: co-partitioned on "
                        f"{list(left_scheme.attributes)}"
                    )

        # -- gate 2: authorization (group-lifted, chase-closed) ---------
        # Hosting a shard of R at a group member is a release of R's
        # base projection to that member; the chase-closed policy must
        # already grant it (the home server stores the single copy and
        # is exempt).  This is the "no placement widens visibility"
        # obligation, checked with the group-conjunction CanView.
        for name in sharded:
            schema = catalog.relation(name)
            profile = RelationProfile.of_base_relation(schema)
            for server in schemes[name].group.servers:
                if server == schema.server:
                    continue
                if not self._policy.can_view(profile, server):
                    return rejected(
                        f"placing a shard of {name!r} at {server!r} would widen "
                        f"visibility: the closed policy does not grant "
                        f"{server!r} the base view of {name!r}",
                        details,
                    )
            details.append(
                f"{name}: group {schemes[name].group.name} holds the base view"
            )

        # -- gate 3: every join between sharded relations is aligned ---
        if joined_pairs != aligned_pairs or not self._connected(sharded, aligned_pairs):
            return rejected(
                "schemes are not co-partitioned on every join between sharded "
                "relations: joining tuples may sit on different shards",
                details,
            )
        return ShardCertificate(
            True,
            MODE_HYPERCUBE,
            sharded=sharded,
            details=details,
            policy_epoch=epoch,
        )

    @staticmethod
    def _connected(
        sharded: Sequence[str], aligned_pairs: set
    ) -> bool:
        """Whether the aligned pairs connect every sharded relation.

        A sharded relation aligned with nothing would shard-join the
        rest as a cross product of fragments, losing cross-shard pairs.
        """
        if len(sharded) <= 1:
            return True
        parent: Dict[str, str] = {name: name for name in sharded}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for left, right in aligned_pairs:
            parent[find(left)] = find(right)
        roots = {find(name) for name in sharded}
        return len(roots) == 1


def certify_schemes(
    spec: QuerySpec,
    schemes: Mapping[str, PartitionScheme],
    policy,
    catalog: Catalog,
    assume_closed: bool = False,
    trace=None,
) -> ShardCertificate:
    """One-shot convenience wrapper over
    :class:`ParallelCorrectnessChecker`."""
    checker = ParallelCorrectnessChecker(
        policy, catalog, assume_closed=assume_closed, trace=trace
    )
    return checker.certify(spec, schemes)
