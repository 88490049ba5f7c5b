"""The paper's primary contribution.

This package implements the security model of Sections 3-5:

* :mod:`repro.core.profile` — relation profiles (Definition 3.2) and the
  composition rules of Figure 4;
* :mod:`repro.core.authorization` — authorizations
  ``[Attributes, JoinPath] -> Server`` (Definition 3.1) and policies;
* :mod:`repro.core.access` — the authorized-view check (Definition 3.3);
* :mod:`repro.core.closure` — chase-based closure of a policy under
  derivable views (Section 3.2);
* :mod:`repro.core.flows` — the join execution modes of Figure 5 and the
  views each mode exposes;
* :mod:`repro.core.planner` — the two-pass safe-assignment algorithm of
  Figure 6 (``Find_candidates`` / ``Assign_ex``);
* :mod:`repro.core.safety` — an independent verifier for Definition 4.2;
* :mod:`repro.core.thirdparty` — the third-party extension the paper
  sketches in footnote 3;
* :mod:`repro.core.openpolicy` — the open-policy variant of footnote 1;
* :mod:`repro.core.plancache` — the policy-epoch plan cache memoizing
  safe assignments across a repeated-query workload.
"""

from repro.core.profile import RelationProfile
from repro.core.authorization import Authorization, Policy
from repro.core.access import covering_authorizations
from repro.core.closure import close_policy, extend_closure
from repro.core.plancache import PlanCache, PlanCacheStats
from repro.core.flows import (
    ExecutionMode,
    Flow,
    JoinExecution,
    REGULAR_LEFT,
    REGULAR_RIGHT,
    SEMI_LEFT_MASTER,
    SEMI_RIGHT_MASTER,
    join_executions,
)
from repro.core.candidates import Candidate, CandidateList
from repro.core.assignment import Assignment, Executor
from repro.core.planner import PlannerTrace, SafePlanner, plan_safely
from repro.core.safety import enumerate_assignment_flows, verify_assignment
from repro.core.thirdparty import ThirdPartyPlanner
from repro.core.openpolicy import OpenPolicy

__all__ = [
    "RelationProfile",
    "Authorization",
    "Policy",
    "covering_authorizations",
    "close_policy",
    "extend_closure",
    "PlanCache",
    "PlanCacheStats",
    "ExecutionMode",
    "Flow",
    "JoinExecution",
    "REGULAR_LEFT",
    "REGULAR_RIGHT",
    "SEMI_LEFT_MASTER",
    "SEMI_RIGHT_MASTER",
    "join_executions",
    "Candidate",
    "CandidateList",
    "Assignment",
    "Executor",
    "SafePlanner",
    "PlannerTrace",
    "plan_safely",
    "enumerate_assignment_flows",
    "verify_assignment",
    "ThirdPartyPlanner",
    "OpenPolicy",
]
