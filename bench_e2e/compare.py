"""Compare two ledger points, workload by workload.

    python3 bench_e2e/compare.py A.json B.json

For every workload x end-to-end metric it prints both values, how much
worse B reads than A, and the bound ``BENCHMARK.json`` fixes.  B worse
than A by more than the bound is a *regression* (exit status 1) — unless
the spread between either run's own repeats (its five rounds, its five
set-ups) is itself wider than the bound, in which case the pair is reported *unresolved*, not
unchanged.  Two runs of one commit must come out with no regression:
that is the two-sets-agree check.
"""

from __future__ import annotations

import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spread(section: dict, metric: str) -> float:
    """Quartile distance over the median of the run's own repeats."""
    quartiles = section["repeat_quartiles"].get(metric)
    if quartiles is None:
        return 0.0
    return (quartiles["q3"] - quartiles["q1"]) / quartiles["median"]


def compare(a: dict, b: dict, benchmark: dict) -> int:
    regressions = 0
    header = f"{'workload':<13} {'metric':<24} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    print(header)
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [ledger["workloads"][workload]["end_to_end"] for ledger in (a, b)]
        for run, label in zip(runs, "AB"):
            if not run["correct"]:
                print(f"{workload:<13} {label}: {run['failed']} of {run['attempted']} outcomes were wrong")
                regressions += 1
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (run["metrics"][name]["value"] for run in runs)
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            spread = max(_spread(run, name) for run in runs)
            if worse <= bound:
                verdict = "ok"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "REGRESSION"
                regressions += 1
            print(
                f"{workload:<13} {name:<24} {first:>12.4f} {second:>12.4f} "
                f"{worse:>+9.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}"
            )
    return regressions


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.exit(__doc__)
    ledgers = []
    for path in paths:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    schemas = {ledger["schema"] for ledger in ledgers}
    if len(schemas) != 1:
        sys.exit(f"ledger schemas differ: {sorted(schemas)}")
    regressions = compare(ledgers[0], ledgers[1], benchmark)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
