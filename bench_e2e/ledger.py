"""Run every workload and write one ledger point.

    python3 bench_e2e/ledger.py --seed 11 --out bench_e2e/out/ledger.json

Each workload runs in its own fresh subprocess, one after the other (the
engine's ``InternPool`` is process-wide and ``peak_rss_mb`` must be per
workload): first the untraced end-to-end pass, then the traced pass.
The file is schema-versioned and machine-stamped; ``compare.py`` reads
two of them.  ``baseline.json`` next to this file is the committed
trajectory's first point.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

SCHEMA = "bench_e2e/1"
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--out", default=os.path.join(_HERE, "out", "ledger.json"))
    args = parser.parse_args(argv)
    out_dir = os.path.join(_HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    ledger = {
        "schema": SCHEMA,
        "stamp": {
            "git_commit": _git_commit(),
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "workloads": {},
    }
    failed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry = ledger["workloads"][workload] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            detail = os.path.join(out_dir, f"{workload}-{section}.json")
            command = [
                sys.executable, os.path.join(_HERE, "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", detail,
            ]
            done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True)
            # Everything but the machine-readable last line.
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                failed = True
            if os.path.exists(detail):
                with open(detail) as handle:
                    entry[section] = json.load(handle)
    ledger["stamp"]["wall_s"] = time.perf_counter() - started
    with open(args.out, "w") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"ledger written to {args.out} in {ledger['stamp']['wall_s']:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
