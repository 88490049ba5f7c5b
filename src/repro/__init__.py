"""Controlled Information Sharing in Collaborative Distributed Query Processing.

A faithful, executable reproduction of De Capitani di Vimercati, Foresti,
Jajodia, Paraboschi and Samarati (ICDCS 2008): authorizations over
attribute sets and join paths, relation profiles, the safe query
planning algorithm, and a tuple-level distributed execution engine that
audits every transfer.

Quickstart::

    from repro import DistributedSystem
    from repro.workloads import medical_catalog, medical_policy, generate_instances

    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances())
    result = system.execute(
        "SELECT Patient, Physician, Plan, HealthAid "
        "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
        "JOIN Hospital ON Citizen = Patient"
    )
    print(result.transfers.describe())

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced figures.
"""

from repro.algebra import (
    AttributeUniverse,
    AttrSet,
    Catalog,
    JoinCondition,
    JoinPath,
    QuerySpec,
    QueryTreePlan,
    RelationSchema,
    build_plan,
    intern_path,
)
from repro.algebra.predicates import Comparison, Predicate
from repro.core import (
    Assignment,
    Authorization,
    Executor,
    OpenPolicy,
    Policy,
    RelationProfile,
    SafePlanner,
    ThirdPartyPlanner,
    close_policy,
    plan_safely,
    verify_assignment,
)
from repro.analysis import (
    exposure_of_assignment,
    suggest_repair,
    usage_report,
)
from repro.distributed import (
    DistributedSystem,
    FaultInjector,
    NetworkModel,
    Server,
)
from repro.engine import (
    CostModel,
    DistributedExecutor,
    RetryPolicy,
    Table,
    evaluate_plan,
)
from repro.exceptions import (
    AuditViolationError,
    DegradedExecutionError,
    InfeasiblePlanError,
    ReproError,
    TransferFailedError,
    UnsafeAssignmentError,
)
from repro.sql import parse_query

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algebra
    "Catalog",
    "RelationSchema",
    "AttrSet",
    "AttributeUniverse",
    "JoinCondition",
    "JoinPath",
    "intern_path",
    "Comparison",
    "Predicate",
    "QuerySpec",
    "QueryTreePlan",
    "build_plan",
    # core model
    "RelationProfile",
    "Authorization",
    "Policy",
    "OpenPolicy",
    "close_policy",
    "SafePlanner",
    "ThirdPartyPlanner",
    "plan_safely",
    "verify_assignment",
    "Assignment",
    "Executor",
    # system & engine
    "DistributedSystem",
    "Server",
    "NetworkModel",
    "FaultInjector",
    "RetryPolicy",
    "Table",
    "DistributedExecutor",
    "CostModel",
    "evaluate_plan",
    "parse_query",
    # analysis highlights
    "exposure_of_assignment",
    "suggest_repair",
    "usage_report",
    # errors
    "ReproError",
    "InfeasiblePlanError",
    "UnsafeAssignmentError",
    "AuditViolationError",
    "TransferFailedError",
    "DegradedExecutionError",
]
