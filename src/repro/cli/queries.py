"""The subcommands that answer from the catalog and the policy alone:
``describe``, ``plan``, ``explain``, ``suggest`` and ``check``."""

from __future__ import annotations

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinPath
from repro.analysis.exposure import exposure_of_assignment
from repro.analysis.reporting import render_policy_table, render_trace_table
from repro.cli import common
from repro.cli.common import CONFIG_ERROR
from repro.core.access import explain_denial
from repro.core.profile import RelationProfile
from repro.exceptions import InfeasiblePlanError, ReproError
from repro.sql import parse_query


def register(commands) -> None:
    common.subcommand(
        commands, "describe", "print the catalog and the policy",
        {0: "printed"},
    ).set_defaults(handler=describe)
    common.subcommand(
        commands, "plan", "plan a SQL query safely",
        {0: "planned", 2: f"no safe assignment (infeasible), or {CONFIG_ERROR}"},
        common.sql, common.search_orders,
    ).set_defaults(handler=plan)
    common.subcommand(
        commands, "explain", "explain every CanView decision of a query's planning",
        {0: "feasible", 2: f"infeasible, or {CONFIG_ERROR}"},
        common.sql,
    ).set_defaults(handler=explain)
    common.subcommand(
        commands, "suggest", "suggest minimal grants for an infeasible query",
        {0: "feasible, or feasible under the suggested grants"},
        common.sql,
    ).set_defaults(handler=suggest)
    check = common.subcommand(
        commands, "check", "one CanView question",
        {0: "allowed", 1: "denied (the denial is explained)"},
    )
    check.add_argument("--server", required=True)
    check.add_argument("--attributes", nargs="+", required=True)
    check.add_argument(
        "--join", action="append", default=[], metavar="A=B",
        help="join condition of the view's path (repeatable)",
    )
    check.set_defaults(handler=check_view)


def describe(system, args, out) -> int:
    print(system.catalog.describe(), file=out)
    print(file=out)
    print(render_policy_table(system.explicit_policy), file=out)
    print(
        f"\n({len(system.explicit_policy)} explicit rules, "
        f"{len(system.policy)} after closure)",
        file=out,
    )
    return 0


def plan(system, args, out) -> int:
    try:
        tree, assignment, trace = system.plan(
            args.sql, search_join_orders=args.search_orders
        )
    except InfeasiblePlanError as error:
        print(f"infeasible: {error}", file=out)
        return 2
    print(tree.render(), file=out)
    print(file=out)
    print(render_trace_table(trace), file=out)
    print("\nassignment:", file=out)
    print(assignment.describe(), file=out)
    print("\nexposure:", file=out)
    print(exposure_of_assignment(assignment, system.catalog).describe(), file=out)
    return 0


def suggest(system, args, out) -> int:
    from repro.analysis.whatif import suggest_repair
    from repro.core.planner import SafePlanner

    tree = build_plan(system.catalog, parse_query(args.sql, system.catalog))
    repair = suggest_repair(system.policy, tree)
    print(repair.describe(), file=out)
    if repair.is_already_feasible:
        return 0
    SafePlanner(repair.augmented_policy(system.policy)).plan(tree)
    print("\n(the plan is feasible under the augmented policy)", file=out)
    return 0


def explain(system, args, out) -> int:
    from repro.analysis.explain import explain_planning, render_explanation

    tree = build_plan(system.catalog, parse_query(args.sql, system.catalog))
    explanations, feasible = explain_planning(system.policy, tree)
    print(tree.render(), file=out)
    print(file=out)
    print(render_explanation(system.policy, tree, explanations), file=out)
    print(f"\nfeasible: {feasible}", file=out)
    return 0 if feasible else 2


def check_view(system, args, out) -> int:
    pairs = []
    for condition in args.join:
        if "=" not in condition:
            raise ReproError(f"bad join condition {condition!r}; use A=B")
        left, right = condition.split("=", 1)
        pairs.append((left.strip(), right.strip()))
    profile = RelationProfile(args.attributes, JoinPath.of(*pairs))
    allowed = system.policy.can_view(profile, args.server)
    print(f"{args.server} may view {profile}: {allowed}", file=out)
    if not allowed:
        print(explain_denial(system.policy, profile, args.server), file=out)
    return 0 if allowed else 1
