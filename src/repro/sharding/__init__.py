"""Horizontal partitioning with policy-certified parallel execution.

This package adds sharded relations to the distributed model of the
paper without weakening it: a relation may be horizontally partitioned
across a *server group*, and the group — not any individual member —
becomes the unit the authorization model reasons about.  ``CanView`` is
lifted from servers to groups by conjunction (every member must be
authorized), so no shard placement ever widens visibility beyond what
the single-copy placement already granted.

The pieces:

* :mod:`~repro.sharding.scheme` — :class:`PartitionGroup`,
  :class:`HashPartitionScheme`, :class:`RangePartitionScheme` and the
  deterministic row routing / merge kernels.
* :mod:`~repro.sharding.checker` — the
  :class:`ParallelCorrectnessChecker`, which certifies a distribution
  policy *before* the planner commits: HyperCube-style single-round
  plans for co-partitioned inputs, a multi-round fallback for
  compatible-but-unaligned hash schemes, and a hard rejection for
  anything it cannot prove equivalent to single-copy execution.
* :mod:`~repro.sharding.shuffle` — shuffle planning and the audited
  multi-round engine-level fallback.
* :mod:`~repro.sharding.executor` — :class:`ShardedExecutor`, the
  long-lived coordinator (one per system and scheme set, over the
  system's resident shards) that certifies, plans per shard with the real
  :class:`~repro.core.planner.SafePlanner` and hands the units to
  :class:`~repro.distributed.pipeline.QueryPipeline`, which runs each
  shard exactly as it runs a single-copy query (audit, retry, failover,
  breaker, deadline, chaos and profiling per shard) and merges.

Uncertifiable schemes **never** execute partitioned: the coordinator
falls back to plain single-copy execution and says so in the trace.
"""

from repro.sharding.checker import (
    MODE_HYPERCUBE,
    MODE_MULTIROUND,
    MODE_REJECTED,
    MODE_TRIVIAL,
    ParallelCorrectnessChecker,
    ShardCertificate,
    certify_schemes,
)
from repro.sharding.executor import (
    EXEC_MULTIROUND,
    EXEC_PARTITIONED,
    EXEC_SINGLE_COPY,
    ShardedExecutor,
    ShardedResult,
    shard_catalog,
)
from repro.sharding.scheme import (
    MAX_SHARDS,
    HashPartitionScheme,
    PartitionGroup,
    PartitionScheme,
    RangePartitionScheme,
    canonical_shard_key,
    merge_shards,
)
from repro.sharding.shuffle import (
    ACTION_BROADCAST,
    ACTION_LOCAL,
    ACTION_REPARTITION,
    ShufflePlan,
    ShuffleStats,
    ShuffleStep,
    execute_multiround,
    plan_shuffle,
)

__all__ = [
    "ACTION_BROADCAST",
    "ACTION_LOCAL",
    "ACTION_REPARTITION",
    "EXEC_MULTIROUND",
    "EXEC_PARTITIONED",
    "EXEC_SINGLE_COPY",
    "MAX_SHARDS",
    "MODE_HYPERCUBE",
    "MODE_MULTIROUND",
    "MODE_REJECTED",
    "MODE_TRIVIAL",
    "HashPartitionScheme",
    "ParallelCorrectnessChecker",
    "PartitionGroup",
    "PartitionScheme",
    "RangePartitionScheme",
    "ShardCertificate",
    "ShardedExecutor",
    "ShardedResult",
    "ShufflePlan",
    "ShuffleStats",
    "ShuffleStep",
    "canonical_shard_key",
    "certify_schemes",
    "execute_multiround",
    "merge_shards",
    "plan_shuffle",
    "shard_catalog",
]
