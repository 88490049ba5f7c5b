"""FIG3 — the Figure 3 authorization table.

Renders the fifteen rules in the paper's layout and benchmarks the
``CanView`` check (Definition 3.3) that every planning step relies on —
both a hit (rule 7's master view) and a miss (the Section 3.2
counterexample).
"""

from repro.algebra.joins import JoinPath
from repro.analysis.reporting import render_policy_table
from repro.core.profile import RelationProfile


def test_fig3_policy_reproduction(benchmark, policy):
    table = benchmark(render_policy_table, policy)
    print()
    print(table)
    assert len(policy) == 15
    assert table.count("S_N") == 7


def test_fig3_canview_hit(benchmark, policy):
    profile = RelationProfile(
        {"Holder", "Plan", "Citizen", "HealthAid", "Patient"},
        JoinPath.of(("Holder", "Citizen"), ("Citizen", "Patient")),
    )
    result = benchmark(policy.can_view, profile, "S_H")
    assert result is True


def test_fig3_canview_miss(benchmark, policy):
    profile = RelationProfile(
        {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
    )
    result = benchmark(policy.can_view, profile, "S_D")
    assert result is False


def test_fig3_canview_under_heavy_policy(benchmark, policy):
    """CanView stays flat as one server's rule list grows: Definition
    3.3's join-path equality admits an exact-path index, so only the
    matching bucket is scanned (2000 same-server distractor rules)."""
    from repro.core.authorization import Authorization, Policy

    padded = policy.copy()
    for i in range(2000):
        padded.add(
            Authorization(
                {"Patient", "Disease"},
                JoinPath.of(("Patient", "Citizen"), (f"pad_{i}_x", f"pad_{i}_y")),
                "S_H",
            )
        )
    profile = RelationProfile(
        {"Holder", "Plan", "Citizen", "HealthAid", "Patient"},
        JoinPath.of(("Holder", "Citizen"), ("Citizen", "Patient")),
    )
    result = benchmark(padded.can_view, profile, "S_H")
    assert result is True
