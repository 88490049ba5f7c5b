"""Alternating parent/change pairs of one ledger workload, judged.

    python3 benchmarks/e2e_pairs.py --workload exec_scan --parent HEAD~1 --pairs 10

Materializes ``--parent`` (any git revision) in a temporary directory
with ``git archive`` — committed files only, which is also what the
ledger's driver measures, and unlike ``git worktree`` it leaves nothing
behind in ``.git`` — and runs ``bench_e2e/run.py --trace 0`` there and
in this checkout's working tree, one process at a time, alternating
which side goes first.  For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, how many
pairs the change won (ties count for neither) and the verdict of the
``choosing-metrics`` guide, §8:

* ``gain`` — the change wins at least nine tenths of the pairs and the
  medians differ by more than the distance between the parent's
  quartiles;
* ``unresolved`` — the parent's own quartile spread is wider than the
  metric's bound, so "no worse than the bound" cannot be read off these
  runs (unless every run of the change reads better than every run of
  the parent);
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the bound;
* ``ok`` — no worse than the bound allows.

The exit status is 1 only when a run crashed or answered a request
wrongly; the verdicts are for the reader (one 3 s pair, as CI's smoke
runs it, decides nothing).  Every run made is printed, with the number
of requests it attempted.

Beside ``peak_rss_mb`` two context rows (no verdict) print
``peak_rss_mb`` per 1 000 requests served and ``attempted`` itself: the
load generator keeps a few floats per request served, so a faster tree
reads a higher RSS over the same run length.  An RSS move that the
per-request row does not show tracks the request count; one it does
show is growth in the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _checkout(revision: str, directory: str) -> None:
    """The committed files of ``revision``, extracted into ``directory``."""
    archive = os.path.join(directory, "parent.tar")
    subprocess.run(
        ["git", "-C", _ROOT, "archive", "--output", archive, revision], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(directory)
    os.remove(archive)


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``root``'s own benchmark and source; its
    result object (the last line of its standard output)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(root, "bench_e2e", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode not in (0, 1) or not done.stdout.strip():
        sys.exit(f"bench_e2e/run.py crashed in {root}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _sides(parent: list, change: list) -> dict:
    """Each side's quartiles and the change/parent ratio of the medians."""
    p_quartiles, c_quartiles = _quartiles(parent), _quartiles(change)
    p_median, c_median = p_quartiles[1], c_quartiles[1]
    return {
        "parent": p_quartiles,
        "change": c_quartiles,
        "ratio": c_median / p_median if p_median else float("nan"),
    }


def judge(metric: dict, parent: list, change: list) -> dict:
    """§8's reading of one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran back to back)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    read = _sides(parent, change)
    (p_q1, p_median, p_q3), c_median = read["parent"], read["change"][1]
    better_by = sign * (c_median - p_median)
    spread = p_q3 - p_q1
    allowed = metric["bound"] * abs(p_median)
    if wins >= 0.9 * len(parent) and better_by > spread:
        verdict = "gain"
    elif spread > allowed and not all(
        sign * (c - p) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    elif -better_by <= allowed:
        verdict = "ok"
    else:
        verdict = "REGRESSION"
    return dict(read, wins=wins, verdict=verdict)


def rss_context(parent: list, change: list) -> dict:
    """The context rows printed beside ``peak_rss_mb``, by row name, over
    paired run results (``bench_e2e/run.py``'s result objects)."""
    def per_1k_served(run):
        served = run["attempted"] - run["failed"]
        return 1000.0 * run["metrics"]["peak_rss_mb"]["value"] / max(served, 1)

    readings = {"peak_rss_mb/1k served": per_1k_served, "attempted": lambda run: run["attempted"]}
    return {
        name: _sides([read(run) for run in parent], [read(run) for run in change])
        for name, read in readings.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as parent_root:
        _checkout(args.parent, parent_root)
        roots = {"parent": parent_root, "change": _ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(roots[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
                values = "  ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
                )
                print(
                    f"pair {pair + 1:>2} {side:<6} {values}  "
                    f"attempted={result['attempted']}  failed={result['failed']}",
                    flush=True,
                )

    print(
        f"\n{args.workload}: {args.pairs} alternating pair(s) of {args.seconds:g} s, "
        f"seed {args.seed}, parent {args.parent}"
    )
    print(
        f"{'metric':<24} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
        f"{'change/parent':>13} {'won':>5}  verdict"
    )

    def row(name, read, tail):
        sides = ["/".join(f"{value:.4g}" for value in read[side]) for side in ("parent", "change")]
        print(f"{name:<24} {sides[0]:>32} {sides[1]:>32} {read['ratio']:>12.3f}x {tail}")

    for metric in metrics:
        name = metric["name"]
        read = judge(
            metric,
            [run["metrics"][name]["value"] for run in runs["parent"]],
            [run["metrics"][name]["value"] for run in runs["change"]],
        )
        row(name, read, f"{read['wins']:>2}/{args.pairs:<2}  {read['verdict']}")
        if name == "peak_rss_mb":
            for context, context_read in rss_context(runs["parent"], runs["change"]).items():
                row(f"  {context}", context_read, f"{'':>5}  (context)")
    failed = {side: sum(run["failed"] for run in results) for side, results in runs.items()}
    attempted = {side: sum(run["attempted"] for run in results) for side, results in runs.items()}
    for side in runs:
        print(f"{side}: {failed[side]} of {attempted[side]} requests failed")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
