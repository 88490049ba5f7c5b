"""The verdict rule of ``benchmarks/e2e_pairs.py`` (choosing-metrics §8)
and its RSS context rows on hand-made runs; the tool's
subprocess/``git archive`` half is smoked by CI's ``vector`` job, not
here."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "e2e_pairs.py"
)
_spec = importlib.util.spec_from_file_location("e2e_pairs", _PATH)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

QPS = {"name": "throughput_qps", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def verdict(metric, parent, change):
    return e2e_pairs.judge(metric, parent, change)["verdict"]


def test_gain_needs_nine_wins_in_ten_and_medians_apart_by_the_parents_quartiles():
    assert verdict(QPS, PARENT, [p * 1.5 for p in PARENT]) == "gain"
    read = e2e_pairs.judge(QPS, PARENT, [p * 1.5 for p in PARENT])
    assert read["wins"] == 10 and read["ratio"] == pytest.approx(1.5)
    # Two lost pairs: not a gain, however far apart the medians are.
    assert verdict(QPS, PARENT, [150.0] * 8 + [90.0, 90.0]) == "ok"
    # Every pair won, but by less than the parent's own quartile spread.
    assert verdict(QPS, PARENT, [p + 0.5 for p in PARENT]) == "ok"
    # Lower is better: the same numbers the other way round.
    assert verdict(RSS, PARENT, [p * 0.5 for p in PARENT]) == "gain"


def test_worse_than_the_bound_is_a_regression_and_within_it_is_ok():
    assert verdict(QPS, PARENT, [p * 0.7 for p in PARENT]) == "REGRESSION"
    assert verdict(QPS, PARENT, [p * 0.8 for p in PARENT]) == "ok"
    assert verdict(RSS, PARENT, [p * 1.2 for p in PARENT]) == "REGRESSION"
    assert verdict(RSS, PARENT, [p * 1.05 for p in PARENT]) == "ok"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 50.0, 150.0, 100.0]
    assert verdict(QPS, noisy, list(reversed(noisy))) == "unresolved"
    assert verdict(QPS, noisy, [p * 0.5 for p in noisy]) == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    # (Not a gain either: the medians are closer than the parent's quartiles.)
    assert verdict(QPS, noisy, [151.0 + i for i in range(10)]) == "ok"


def test_a_single_pair_has_no_spread_and_still_reads():
    assert e2e_pairs.judge(QPS, [100.0], [120.0])["parent"] == (100.0, 100.0, 100.0)
    assert verdict(QPS, [100.0], [120.0]) == "gain"
    assert verdict(QPS, [100.0], [70.0]) == "REGRESSION"


def run_result(attempted, rss_mb, failed=0):
    """A ``bench_e2e/run.py`` result object with every ledger metric."""
    with open(os.path.join(os.path.dirname(_PATH), "..", "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)["end_to_end"]]
    metrics = {name: {"value": 1.0} for name in names}
    metrics["peak_rss_mb"] = {"value": rss_mb}
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_rss_context_separates_request_count_from_growth():
    # +20 % RSS on +20 % requests served: flat per request.
    parent = [run_result(10_000, 40.0), run_result(10_000, 40.0)]
    change = [run_result(12_000, 48.0), run_result(12_000, 48.0)]
    context = e2e_pairs.rss_context(parent, change)
    assert context["attempted"]["ratio"] == pytest.approx(1.2)
    assert context["peak_rss_mb/1k served"]["parent"][1] == pytest.approx(4.0)
    assert context["peak_rss_mb/1k served"]["ratio"] == pytest.approx(1.0)
    # +20 % RSS on the same request count: growth in the program.
    grown = e2e_pairs.rss_context(parent, [run_result(10_000, 48.0)] * 2)
    assert grown["peak_rss_mb/1k served"]["ratio"] == pytest.approx(1.2)
    assert grown["attempted"]["ratio"] == pytest.approx(1.0)
    # Failed requests are not served.
    failing = e2e_pairs.rss_context(parent, [run_result(10_000, 40.0, failed=5_000)] * 2)
    assert failing["peak_rss_mb/1k served"]["change"][1] == pytest.approx(8.0)


def test_every_run_prints_its_attempted_count_and_the_rss_context(monkeypatch, capsys):
    sizes = {"parent": iter([1000, 1100]), "change": iter([1200, 1300])}

    def fake_run(root, *rest):
        return run_result(next(sizes["change" if root == e2e_pairs._ROOT else "parent"]), 40.0)

    monkeypatch.setattr(e2e_pairs, "_checkout", lambda revision, directory: None)
    monkeypatch.setattr(e2e_pairs, "_run", fake_run)
    assert e2e_pairs.main(["--workload", "exec_scan", "--parent", "HEAD", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line for line in lines if line.startswith("pair ")]
    assert [line.split("attempted=")[1].split()[0] for line in runs] == [
        "1000", "1200", "1300", "1100",  # the second pair runs the change first
    ]
    at = next(i for i, line in enumerate(lines) if line.startswith("peak_rss_mb "))
    assert lines[at].endswith(("ok", "gain", "unresolved", "REGRESSION"))
    context = lines[at + 1: at + 3]
    assert [line.split()[0] for line in context] == ["peak_rss_mb/1k", "attempted"]
    assert all(line.endswith("(context)") for line in context)
    assert "1.190x" in context[1]  # attempted medians 1 050 -> 1 250
