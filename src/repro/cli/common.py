"""What the subcommands share: the options several of them take (each
defined once here), the exit-code epilog, and loading the system and
its instances.

A configuration error — a bad argument or input file — raises
:class:`~repro.exceptions.ReproError`; :func:`repro.cli.main` prints it
as ``error: ...`` and exits 2, for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import textwrap

from repro.distributed.system import DistributedSystem
from repro.exceptions import ReproError
from repro.io import catalog_from_dict, load_json, policy_from_dict
from repro.obs import write_metrics, write_trace
from repro.workloads.medical import generate_instances, medical_catalog, medical_policy

#: Exit code 2's meaning in every subcommand's table.
CONFIG_ERROR = "configuration error (bad arguments, input file or SQL)"


def subcommand(commands, name: str, help: str, exit_codes: dict, *options):
    """Add subcommand ``name`` with the shared ``options`` (functions
    from this module) and its exit-code table (2 defaults to
    :data:`CONFIG_ERROR`) as the ``--help`` epilog."""
    epilog = "exit codes:\n" + "\n".join(
        textwrap.fill(meaning, 76, initial_indent=f"  {code}  ", subsequent_indent="     ")
        for code, meaning in sorted({2: CONFIG_ERROR, **exit_codes}.items())
    )
    parser = commands.add_parser(
        name, help=help, epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for option in options:
        option(parser)
    return parser


def sql(parser) -> None:
    parser.add_argument("--sql", required=True, help="the select-from-where query")


def recipient(parser) -> None:
    parser.add_argument("--recipient", help="deliver the result to this party")


def search_orders(parser) -> None:
    parser.add_argument(
        "--search-orders", action="store_true",
        help="search alternative join orders (serve: while the service is healthy)",
    )


def fault_seed(parser) -> None:
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault injector and its logical clock (runs are "
        "fully deterministic per seed)",
    )


def instances(parser) -> None:
    """The instance source of the subcommands that run queries (see
    :func:`load_instances`)."""
    parser.add_argument("--instances", help="JSON instances file (relation -> rows)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--citizens", type=int, default=100)


def observability(parser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the run's trace to FILE; written on every exit path, so "
        "failed and interrupted runs stay debuggable",
    )
    parser.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace file format: jsonl (one record per line) or chrome "
        "(trace-event JSON loadable in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metrics in Prometheus text exposition to FILE",
    )


def read_json(path: str, what: str) -> dict:
    """:func:`repro.io.load_json`, with a missing or malformed file a
    configuration error."""
    try:
        return load_json(path)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {what} {path!r}: {error}") from error


def load_system(args: argparse.Namespace) -> DistributedSystem:
    if args.catalog:
        catalog = catalog_from_dict(read_json(args.catalog, "catalog"))
    else:
        catalog = medical_catalog()
    if args.policy:
        policy = policy_from_dict(read_json(args.policy, "policy"))
    else:
        policy = medical_policy()
    return DistributedSystem(
        catalog,
        policy,
        apply_closure=not args.no_closure,
        third_parties=args.third_party,
        plan_cache=args.plan_cache,
    )


def load_instances(system: DistributedSystem, args) -> None:
    """Load ``--instances``, or generate the built-in medical workload's
    from ``--seed`` / ``--citizens``; a JSON catalog needs
    ``--instances``."""
    if args.instances:
        system.load_instances(read_json(args.instances, "instances"))
    elif not args.catalog:
        system.load_instances(generate_instances(seed=args.seed, citizens=args.citizens))
    else:
        raise ReproError("--instances is required for JSON workloads")


def load_json_list(path: str, what: str) -> list:
    """Read a JSON array (workload / tenants files are lists, which
    :func:`repro.io.load_json` deliberately rejects)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {what} {path!r}: {error}") from error
    if not isinstance(data, list):
        raise ReproError(f"{what} {path!r} must be a JSON list")
    return data


def write_observability(trace, metrics, args, out) -> None:
    """Export the files ``--trace-out`` / ``--metrics-out`` asked for."""
    if trace is not None:
        trace.close_all()
        if args.trace_out:
            write_trace(trace, args.trace_out, fmt=args.trace_format)
            print(
                f"trace: {len(trace.spans)} spans, {len(trace.events)} events "
                f"written to {args.trace_out} ({args.trace_format})",
                file=out,
            )
    if metrics is not None and args.metrics_out:
        write_metrics(metrics, args.metrics_out)
        print(f"metrics: written to {args.metrics_out}", file=out)
