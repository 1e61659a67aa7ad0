"""``tools/bench_pairs.py`` sums up paired runs, checks a claimed gain and
checks every end-to-end metric against its BENCHMARK.json bound, on
synthetic runs and without running the benchmark."""

import importlib.util
import json
import subprocess
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


def runs(rounds=(50, 60), **series):
    """Synthetic ``bench/run.py`` summaries: ``series`` maps a metric to
    its (parent values, change values); each side's runs complete
    ``rounds`` rounds."""
    def side(i):
        return [{"correct": True, "attempted": 10, "failed": 0,
                 "rounds": rounds[i],
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
    assert out["rounds"] == {"parent": {"median": 50, "runs": [50] * 5},
                             "change": {"median": 60, "runs": [60] * 5}}


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


def test_bound_is_judged_before_rounding():
    """A 6 ms ``solve_s`` 22% slower: rounded to 4 decimals first, both
    medians read 0.0050 -> 0.0060, exactly at the 20% bound."""
    out = bench_pairs.summarize(
        runs(solve_s=([0.00496] * 3, [0.006049] * 3)), METRICS)
    assert not out["solve_s"]["within_bound"]
    assert bench_pairs.rounded(out["solve_s"])["change"]["median"] == 0.006


def test_claim_is_judged_before_rounding():
    """The parent's quartiles 0.006051 and 0.006149 both round to 0.0061,
    an interquartile range of 0; the gain of 0.00006 is narrower than
    the unrounded one, 0.000098."""
    parent = [0.006051, 0.006149] * 5
    claim = claim_on(parent, [p - 0.00006 for p in parent], "w:solve_s")
    assert claim["change_better_pairs"] == 10
    assert claim["parent_iqr"] == pytest.approx(0.000098)
    assert not claim["holds"]


def test_rounded_rounds_only_floats():
    doc = {"a": 0.123456, "b": [1.00004, 7, True, None, "x"],
           "c": {"d": 3, "e": 2.99995}}
    assert bench_pairs.rounded(doc) == {
        "a": 0.1235, "b": [1.0, 7, True, None, "x"], "c": {"d": 3, "e": 3.0}}


def rss_runs(parent_rounds, change_rounds, mb_per_round=0.1, base=40.0):
    """Synthetic runs whose ``peak_rss_mb`` is ``base`` plus
    ``mb_per_round`` per completed round."""
    def side(counts):
        return [{"correct": True, "attempted": 10, "failed": 0, "rounds": n,
                 "metrics": {"peak_rss_mb": {"value": base + mb_per_round * n,
                                             "unit": "MB"}}}
                for n in counts]
    return {"parent": side(parent_rounds), "change": side(change_rounds)}


def test_rss_slope_per_round_and_its_share():
    out = bench_pairs.summarize(
        rss_runs([90, 95, 89, 92], [114, 117, 115, 116], mb_per_round=0.095),
        METRICS)
    assert out["rss_mb_per_round"] == pytest.approx(0.095)
    # medians 91 -> 115.5 rounds: 24.5 rounds of 0.095 MB
    assert out["rss_from_rounds_mb"] == pytest.approx(0.095 * 24.5)


def test_rss_slope_ignores_noise_in_the_mean():
    noise = [0.2, 0.2, -0.2, -0.2]  # orthogonal to the rounds
    data = rss_runs([10, 20, 10, 20], [30, 40, 30, 40], mb_per_round=0.5)
    for side in data.values():
        for run, e in zip(side, noise):
            run["metrics"]["peak_rss_mb"]["value"] += e
    out = bench_pairs.summarize(data, METRICS)
    assert out["rss_mb_per_round"] == pytest.approx(0.5)
    assert out["rss_from_rounds_mb"] == pytest.approx(0.5 * 20)


def test_rss_slope_is_null_when_rounds_never_change():
    out = bench_pairs.summarize(rss_runs([50] * 3, [50] * 3), METRICS)
    assert out["rss_mb_per_round"] is None
    assert out["rss_from_rounds_mb"] is None


WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


def checkouts(tmp_path):
    """Two sibling directories of equal path length, the change one with
    this repository's BENCHMARK.json."""
    parent, change = tmp_path / "pa", tmp_path / "ch"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    return ["--parent", str(parent), "--change", str(change), "--pr", "1",
            "--seed", "5", "--pairs", "2", "--seconds", "1"]


@pytest.mark.parametrize("claim", [
    "tower_climb:solve_s:20",
    "tower_climbs:intmat.matpow.calls:20",
    "tower_climbs:solve_s:twenty",
    "tower_climbs:solve_s:nan",
    "tower_climbs:solve_s:20:5",
    "tower_climbs",
])
def test_bad_claim_is_refused_before_any_run(tmp_path, monkeypatch, capsys,
                                             claim):
    def never(*args):
        raise AssertionError("a run started before the claim was checked")

    monkeypatch.setattr(bench_pairs, "run_once", never)
    code = bench_pairs.main(checkouts(tmp_path) + ["--claim", claim])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("ch/BENCH_*.json"))


def test_main_records_rounds_and_claim(tmp_path, monkeypatch):
    """Stubbed runs: each side's rounds reach the summary, and a valid
    claim is checked."""
    def fake(root, workload, seed, seconds):
        change = root.name == "ch"
        value = {"setup_s": 0.1, "solve_s": 0.5 if change else 1.0,
                 "peak_rss_mb": 40.0}
        return {"correct": True, "attempted": 3, "failed": 0,
                "rounds": 40 if change else 20,
                "metrics": {k: {"value": v, "unit": "s"}
                            for k, v in value.items()}}

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    args = checkouts(tmp_path) + ["--claim", "tower_climbs:solve_s:20"]
    assert bench_pairs.main(args) == 0
    report = json.loads((tmp_path / "ch" / "BENCH_1.json").read_text())
    assert set(report["workloads"]) == set(WORKLOADS)
    rounds = report["workloads"]["tower_climbs"]["rounds"]
    assert rounds["parent"] == {"median": 20, "runs": [20, 20]}
    assert rounds["change"]["median"] == 40
    tower = report["workloads"]["tower_climbs"]
    assert tower["rss_mb_per_round"] == tower["rss_from_rounds_mb"] == 0.0
    assert report["claim"]["target_met"] and report["claim"]["gain_pct"] == 50


def fake_bench(monkeypatch, stdout, round_s=None):
    """``subprocess.run`` stubbed to print ``stdout``; with ``round_s``,
    the run also writes its result file as ``bench/run.py`` does."""
    def run(cmd, cwd, **kwargs):
        if round_s is not None:
            out = Path(cwd) / "bench" / "results"
            out.mkdir(parents=True, exist_ok=True)
            workload, seed = cmd[cmd.index("--workload") + 1], \
                cmd[cmd.index("--seed") + 1]
            (out / f"{workload}-seed{seed}-trace0.json").write_text(
                json.dumps({"round_s": round_s}))
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_run_once_counts_completed_rounds(tmp_path, monkeypatch):
    summary = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    fake_bench(monkeypatch, "warming up\n" + json.dumps(summary) + "\n",
               round_s=[0.3, 0.25, 0.26])
    result = bench_pairs.run_once(tmp_path, "tower_climbs", 9, 1.0)
    assert result == dict(summary, rounds=3)


def test_run_once_refuses_a_last_line_that_is_not_json(tmp_path, monkeypatch):
    fake_bench(monkeypatch, '{"correct": true}\nTraceback: boom\n')
    with pytest.raises(SystemExit) as info:
        bench_pairs.run_once(tmp_path, "tower_climbs", 9, 1.0)
    message = str(info.value)
    assert message.startswith("error: ") and "\n" not in message
    assert "bench/run.py --workload tower_climbs" in message
    assert "Traceback: boom" in message
