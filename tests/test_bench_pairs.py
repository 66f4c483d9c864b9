"""``tools/bench_pairs.py``'s summary arithmetic, on synthetic run records;
no benchmark runs here."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "items_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.1}]


def runs_of(parent: list, change: list, name: str) -> list[dict]:
    return [{"pair": k, "side": side, name: value}
            for k, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


def test_seeds_are_a_range_or_a_list():
    assert bench_pairs.parse_seeds("50-59") == list(range(50, 60))
    assert bench_pairs.parse_seeds("3,7,0") == [3, 7, 0]


def test_summary_of_a_higher_is_better_metric():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [v + 4.0 for v in parent]
    change[3] = parent[3]  # a tie counts for neither side
    s = bench_pairs.summarize(runs_of(parent, change, "items_per_s"),
                              DECLARED)["items_per_s"]
    assert s["parent"] == {"median": 5.5, "q1": 3.25, "q3": 7.75}
    assert s["change"]["median"] == 9.5
    assert s["change_wins"] == "9 of 10"
    assert s["median_change"] == 4.0
    assert s["parent_iqr"] == 4.5
    assert s["worse_by_fraction"] == round(-4.0 / 5.5, 4)
    assert s["within_bound"] and s["bound"] == 0.25
    verdict = bench_pairs.claim_verdict({"items_per_s": s}, "items_per_s")
    # nine wins, but a 4.0 gain does not clear the 4.5 IQR
    assert verdict["median_gain"] == 4.0 and not verdict["met"]
    change = [v + 5.0 for v in parent]
    s = bench_pairs.summarize(runs_of(parent, change, "items_per_s"),
                              DECLARED)["items_per_s"]
    assert bench_pairs.claim_verdict({"items_per_s": s},
                                     "items_per_s")["met"]


def test_summary_of_a_lower_is_better_metric():
    parent = [100.0] * 10
    change = [111.0] * 8 + [90.0] * 2
    s = bench_pairs.summarize(runs_of(parent, change, "peak_rss_mb"),
                              DECLARED)["peak_rss_mb"]
    assert s["change_wins"] == "2 of 10"
    assert s["median_change"] == 11.0 and s["parent_iqr"] == 0.0
    assert s["worse_by_fraction"] == pytest.approx(0.11)
    assert not s["within_bound"]
    verdict = bench_pairs.claim_verdict({"peak_rss_mb": s}, "peak_rss_mb")
    assert verdict["median_gain"] == -11.0 and not verdict["met"]


def test_pairs_without_both_values_are_left_out():
    runs = runs_of([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "items_per_s")
    runs[5]["items_per_s"] = None  # pair 2's change run failed
    runs.append({"pair": 3, "side": "parent", "items_per_s": 9.0})
    s = bench_pairs.summarize(runs, DECLARED)
    assert s["items_per_s"]["change_wins"] == "2 of 2"
    assert s["items_per_s"]["parent"]["median"] == 1.5
    assert "peak_rss_mb" not in s  # no run reported it
