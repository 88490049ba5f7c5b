"""Comparison baselines for the paper's planner.

* :mod:`repro.baselines.exhaustive` — enumerate *every* structurally
  valid executor assignment (Definition 4.1), keep the safe ones
  (Definition 4.2), and find the cheapest by estimated communication
  cost — the optimum the Figure 6 heuristic approximates — per plan
  (``optimal_safe_assignment``) or over every join order
  (``cheapest_safe_plan``).
* :mod:`repro.baselines.centralized` — the classical warehouse strategy:
  ship every base relation to one site and evaluate there; fast to
  reason about, expensive on the wire, and usually unsafe under
  realistic policies.
"""

from repro.baselines.exhaustive import (
    cheapest_safe_plan,
    enumerate_safe_assignments,
    enumerate_structural_assignments,
    optimal_safe_assignment,
)
from repro.baselines.centralized import CentralizedBaseline

__all__ = [
    "cheapest_safe_plan",
    "enumerate_safe_assignments",
    "enumerate_structural_assignments",
    "optimal_safe_assignment",
    "CentralizedBaseline",
]
