"""The verdict rule of ``benchmarks/e2e_pairs.py`` (choosing-metrics §8)
on hand-made runs; the tool's subprocess/``git archive`` half is smoked
by CI's ``vector`` job, not here."""

import importlib.util
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
