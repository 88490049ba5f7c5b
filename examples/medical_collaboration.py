"""The paper, end to end: every worked example on one page.

Walks through the ICDCS 2008 paper's running scenario:

* Figure 3 — the authorization table, rendered;
* Section 3.1 — what each kind of rule (plain, connectivity-constrained,
  instance-restricted) does and does not allow;
* Section 3.2 — the Disease_list counterexample and its chase rescue;
* Figure 7 — the planning trace of Example 5.1, rendered in the paper's
  layout;
* the executed strategy's transfers, with the covering rule per release.

Run:  python examples/medical_collaboration.py
"""

from repro import DistributedSystem
from repro.algebra.joins import JoinPath
from repro.analysis.reporting import render_policy_table, render_trace_table
from repro.core.access import explain_denial
from repro.core.authorization import Authorization
from repro.core.closure import close_policy
from repro.core.profile import RelationProfile
from repro.workloads import generate_instances, medical_catalog, medical_policy

PAPER_LABELS = {6: "n_0", 5: "n_1", 2: "n_2", 4: "n_3", 0: "n_4", 1: "n_5", 3: "n_6"}

QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)


def show_policy() -> None:
    print("=== Figure 3: the authorization table ===")
    print(render_policy_table(medical_policy()))


def show_rule_semantics() -> None:
    policy = medical_policy()
    print("\n=== Section 3.1: rule semantics ===")

    treatment_view = RelationProfile(
        {"Holder", "Plan", "Treatment"},
        JoinPath.of(("Holder", "Patient"), ("Disease", "Illness")),
    )
    print(
        "rule 3 (connectivity constraint): S_I may learn its holders' "
        f"treatments without the illness -> {policy.can_view(treatment_view, 'S_I')}"
    )
    with_disease = RelationProfile(
        {"Holder", "Plan", "Treatment", "Disease"},
        JoinPath.of(("Holder", "Patient"), ("Disease", "Illness")),
    )
    print(
        "  ...but adding Disease to the view is denied -> "
        f"{policy.can_view(with_disease, 'S_I')}"
    )

    plans_of_patients = RelationProfile(
        {"Holder", "Plan"}, JoinPath.of(("Patient", "Holder"))
    )
    print(
        "rule 5 (instance-based restriction): S_H may see plans of its "
        f"patients only -> {policy.can_view(plans_of_patients, 'S_H')}"
    )
    all_plans = RelationProfile({"Holder", "Plan"})
    print(
        "  ...the unrestricted Insurance relation is denied -> "
        f"{policy.can_view(all_plans, 'S_H')}"
    )


def show_disease_list_counterexample() -> None:
    policy = medical_policy()
    catalog = medical_catalog()
    print("\n=== Section 3.2: join paths leak associations ===")
    filtered = RelationProfile(
        {"Illness", "Treatment"}, JoinPath.of(("Illness", "Disease"))
    )
    print(
        "S_D asking for its own Disease_list filtered by Hospital "
        f"occurrences -> {policy.can_view(filtered, 'S_D')}"
    )
    print(explain_denial(policy, filtered, "S_D"))

    extended = policy.copy()
    extended.add(Authorization({"Patient", "Disease", "Physician"}, None, "S_D"))
    closed = close_policy(extended, catalog)
    print(
        "\nafter granting S_D the Hospital relation, the chase derives "
        f"the join view -> {closed.can_view(filtered, 'S_D')}"
    )


def show_planning_and_execution() -> None:
    system = DistributedSystem(medical_catalog(), medical_policy())
    system.load_instances(generate_instances(seed=7, citizens=120))
    tree, assignment, trace = system.plan(QUERY)
    print("\n=== Figure 7: the planning trace of Example 5.1 ===")
    print(render_trace_table(trace, PAPER_LABELS))

    result = system.execute(QUERY)
    print("\n=== Executed strategy: every release and its covering rule ===")
    for transfer in result.transfers:
        print(f"{transfer.sender} -> {transfer.receiver}: {transfer.profile}")
        print(f"   volume : {transfer.row_count} rows / {transfer.byte_size} B")
        print(f"   covered: {transfer.authorized_by}")
    print(f"\nresult: {len(result.table)} rows at {result.result_server}")


def main() -> None:
    show_policy()
    show_rule_semantics()
    show_disease_list_counterexample()
    show_planning_and_execution()


if __name__ == "__main__":
    main()
