"""Query profiling: per-operator runtime profiles and the statistics
store that feeds observed cardinalities back into the cost model.

`QueryProfiler` collects one `QueryProfile` per pipeline run — rows per
operator, bytes per transfer against the coster's estimate, CanView
probe counts, and logical/wall time.  `StatsStore` harvests those
profiles into decayed per-relation and per-join-path statistics that
`CostAwareSafePlanner(stats_store=)` (core/costplanner) consumes,
closing the plan-quality feedback loop of ROADMAP item #1.
"""

from repro.profiling.profile import (
    OperatorProfile,
    QueryProfile,
    QueryProfiler,
    RelationObservation,
    TransferProfile,
)
from repro.profiling.stats import StatsStore

__all__ = [
    "OperatorProfile",
    "QueryProfile",
    "QueryProfiler",
    "RelationObservation",
    "StatsStore",
    "TransferProfile",
]
