"""Command-line interface (``repro-query``, ``python -m repro.cli``).

Ten subcommands over a workload (the built-in medical scenario or
JSON catalog/policy files, see :mod:`repro.io`), each module holding
its subcommands' options beside their handlers:

* :mod:`.queries` — ``describe`` (catalog and Figure 3 policy),
  ``plan`` (minimized tree, Figure 7 trace, assignment, exposure),
  ``explain`` (every CanView verdict), ``suggest`` (the smallest
  grants unlocking an infeasible query) and ``check`` (one CanView
  question);
* :mod:`.execute` — ``execute`` (an audited tuple-level run, under
  optional faults, breakers, deadline and checkpoint journal),
  ``analyze`` (EXPLAIN ANALYZE with a persistent statistics store) and
  ``shard`` (certify a partition scheme, run partition-parallel);
* :mod:`.serve` — ``serve`` (a JSON workload through the multi-tenant
  service) and ``chaos`` (a seeded chaos schedule through it, or a
  replay).

The options several subcommands share are defined once in
:mod:`.common`.  Each subcommand's exit codes are one table, printed by
its ``--help``; a configuration error leaves through :func:`main` as
``error: ...`` and exit 2.

Examples::

    python -m repro.cli describe
    python -m repro.cli plan --sql "SELECT Plan, HealthAid FROM Insurance \
        JOIN Nat_registry ON Holder = Citizen"
    python -m repro.cli execute --sql "..." --citizens 200
    python -m repro.cli suggest --sql "SELECT Physician, Treatment FROM \
        Disease_list JOIN Hospital ON Illness = Disease"
    python -m repro.cli check --server S_I --attributes Holder Plan
    python -m repro.cli serve --workload requests.json --tenants tenants.json \
        --port 0 --metrics-out metrics.prom
    python -m repro.cli chaos --seed 16 --requests 1000 --kill-every 25
    python -m repro.cli chaos --replay chaos_violations_seed16.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import execute, queries, serve
from repro.cli.common import load_system
from repro.exceptions import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Controlled information sharing in collaborative "
        "distributed query processing (ICDCS 2008 reproduction).",
    )
    parser.add_argument(
        "--catalog", help="JSON catalog file (default: built-in medical workload)"
    )
    parser.add_argument(
        "--policy", help="JSON policy file (default: built-in Figure 3 policy)"
    )
    parser.add_argument(
        "--no-closure", action="store_true",
        help="do not close the policy under the chase before planning",
    )
    parser.add_argument(
        "--third-party", action="append", default=[], metavar="SERVER",
        help="server usable as a join coordinator (repeatable)",
    )
    parser.add_argument(
        "--plan-cache", action=argparse.BooleanOptionalAction, default=True,
        help="cache safe assignments keyed on query fingerprint and "
        "policy epoch (repeated queries plan once)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for module in (queries, execute, serve):
        module.register(commands)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(load_system(args), args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 2
