"""``tools/bench_pairs.py`` sums up paired runs, checks a claimed gain and
checks every end-to-end metric against its BENCHMARK.json bound, on
synthetic runs and without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool()
METRICS = {m["name"]: m for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def runs(**series):
    """Synthetic ``bench/run.py`` summaries: ``series`` maps a metric to
    its (parent values, change values)."""
    def side(i):
        return [{"correct": True, "attempted": 10, "failed": 0,
                 "metrics": {name: {"value": values[i][k], "unit": "s"}
                             for name, values in series.items()}}
                for k in range(len(next(iter(series.values()))[i]))]
    return {"parent": side(0), "change": side(1)}


def test_summary_counts_pairs_and_quartiles():
    out = bench_pairs.summarize(
        runs(solve_s=([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 1.0, 1.0, 1.0])),
        METRICS)
    entry = out["solve_s"]
    assert out["pairs"] == 5 and out["all_correct"]
    assert entry["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert entry["change"]["median"] == 1.0
    assert entry["change_better_pairs"] == 4
    assert entry["within_bound"]


@pytest.mark.parametrize("better,parent,change,within", [
    ("lower", 100.0, 109.9, True),
    ("lower", 100.0, 110.1, False),
    ("lower", 100.0, 50.0, True),
    ("higher", 100.0, 90.1, True),
    ("higher", 100.0, 89.9, False),
    ("higher", 100.0, 150.0, True),
])
def test_bound_follows_the_better_direction(better, parent, change, within):
    metric = {"name": "m", "better": better, "bound": 0.1}
    assert bench_pairs.within_bound(parent, change, metric) is within


def test_summary_flags_a_metric_past_its_bound():
    bound = METRICS["peak_rss_mb"]["bound"]
    worse = 40.0 * (1 + bound) + 0.5
    out = bench_pairs.summarize(
        runs(peak_rss_mb=([40.0] * 3, [worse] * 3),
             solve_s=([1.0] * 3, [1.0] * 3)), METRICS)
    assert not out["peak_rss_mb"]["within_bound"]
    assert out["solve_s"]["within_bound"]


def claim_on(parent, change, claim="w:solve_s:25"):
    workloads = {"w": bench_pairs.summarize(runs(solve_s=(parent, change)),
                                            METRICS)}
    return bench_pairs.check_claim(workloads, claim, METRICS)


def test_claim_holds_on_a_clear_gain():
    claim = claim_on([1.0, 1.1, 0.9, 1.0] * 5, [0.6, 0.7, 0.6, 0.65] * 5)
    assert claim["change_better_pairs"] == 20
    assert claim["holds"] and claim["target_met"]
    assert claim["gain_pct"] == 37.5 and claim["target_pct"] == 25.0


def test_claim_needs_nine_of_ten_pairs():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    claim = claim_on(parent, change)
    assert claim["change_better_pairs"] == 8 and not claim["holds"]


def test_claim_needs_a_gap_wider_than_the_parent_spread():
    parent = [0.8, 1.2] * 5
    change = [p - 0.05 for p in parent]
    claim = claim_on(parent, change, "w:solve_s")
    assert claim["change_better_pairs"] == 10
    assert claim["parent_iqr"] > 0.05 and not claim["holds"]
    assert "target_met" not in claim
