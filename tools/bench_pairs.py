"""Alternating parent/change pairs of ``bench/run.py``, summed up in one JSON file.

    python3 tools/bench_pairs.py --parent ../pa --change ../ch --pr 26 \
        --seed 31 --pairs 10 --seconds 25 --claim float_sweeps:solve_s:10

``--parent`` and ``--change`` are two checkouts (for example ``git clone``s
of the two commits) whose paths have equal length: ``peak_rss_mb``
depends on the length of the path the benchmark runs from.  Each pair
runs every workload of BENCHMARK.json once per side, the parent first in
even pairs and the change first in odd ones, the workloads interleaved
within the pair.  The summary, written to ``BENCH_<pr>.json`` in the
change checkout (or to ``--out``), keeps the command line, every run and,
per workload, each run's completed rounds (``len(round_s)`` of the result
file ``bench/run.py`` writes) with each side's median, since a faster round
also means more retained rounds and a higher ``peak_rss_mb``, with
``rss_mb_per_round``, the least-squares slope of ``peak_rss_mb`` against
rounds over every run, and ``rss_from_rounds_mb``, that slope times the
change in median rounds; and per workload and end-to-end metric, the
median and quartiles
(``statistics.quantiles``, n=4, inclusive) of each side and the number of
pairs in which the change reads better.  Each metric also records
``within_bound``: the change's median is no worse than the parent's by
more than the metric's ``bound`` in BENCHMARK.json, and
``all_within_bounds`` holds when every workload's every metric is.
``--claim`` names a claimed gain and, optionally, its target in percent;
the summary then checks it as a gain must hold: better in at least nine
of ten pairs, and a median gap wider than the parent's interquartile
range.  Bounds and claim are judged on unrounded values; only the
written file rounds them, to 4 decimals.  A malformed ``--claim`` is
refused (exit 2) before any run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC[:TARGET_PCT] of the claimed "
                         "gain, if any")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--out", type=Path, default=None)
    return ap.parse_args(argv)


def parse_claim(claim: str, workloads, metrics: dict) -> tuple:
    """``WORKLOAD:METRIC[:TARGET_PCT]`` as (workload, metric, target or
    None); ValueError unless the workload is one of ``workloads``, the
    metric an end-to-end one and the target a finite number."""
    parts = claim.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"claim {claim!r} is not WORKLOAD:METRIC[:TARGET_PCT]")
    workload, metric, *target = parts
    if workload not in workloads:
        raise ValueError(f"claim workload {workload!r} is not one of "
                         f"{sorted(workloads)}")
    if metric not in metrics:
        raise ValueError(f"claim metric {metric!r} is not one of "
                         f"{sorted(metrics)}")
    if not target:
        return workload, metric, None
    try:
        pct = float(target[0])
    except ValueError:
        pct = math.nan
    if not math.isfinite(pct):
        raise ValueError(f"claim target {target[0]!r} is not a number")
    return workload, metric, pct


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run from ``root``: its printed summary, with
    ``rounds``, the number of rounds it completed, read from the result
    file it has just written."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} printed nothing:"
                         f"\n{done.stderr}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} ended with "
                         f"{lines[-1][:200]!r}, not a JSON summary") from None
    detail = root / "bench" / "results" / f"{workload}-seed{seed}-trace0.json"
    with open(detail, encoding="utf-8") as fh:
        result["rounds"] = len(json.load(fh)["round_s"])
    return result


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def rounded(obj):
    """``obj`` with every float rounded to 4 decimals, for writing only:
    the bounds and the claim are judged on the unrounded values, since
    steps of 1e-4 s are 1.7% of a 0.006 s ``solve_s``."""
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [rounded(value) for value in obj]
    return obj


def rss_per_round(runs: dict, rounds: dict) -> dict:
    """The least-squares slope of ``peak_rss_mb`` against completed rounds
    over every run of both sides (None when all runs completed as many
    rounds), and that slope times the change in median ``rounds``: the
    part of the RSS change that retained rounds explain."""
    done = [r for side in SIDES for r in runs[side]]
    xs = [r["rounds"] for r in done]
    if len(set(xs)) < 2:
        return {"rss_mb_per_round": None, "rss_from_rounds_mb": None}
    slope = statistics.linear_regression(
        xs, [r["metrics"]["peak_rss_mb"]["value"] for r in done]).slope
    more = rounds["change"]["median"] - rounds["parent"]["median"]
    return {"rss_mb_per_round": slope, "rss_from_rounds_mb": slope * more}


def within_bound(parent: float, change: float, metric: dict) -> bool:
    """Whether the change's median is no worse than the parent's by more
    than the metric's relative ``bound`` (a BENCHMARK.json entry)."""
    if metric["better"] == "lower":
        return change <= parent * (1 + metric["bound"])
    return change >= parent * (1 - metric["bound"])


def summarize(runs: dict, metrics: dict) -> dict:
    """Per end-to-end metric: both sides' medians and quartiles, the pairs
    the change wins, whether it keeps the metric's bound (``metrics`` maps
    each name to its BENCHMARK.json entry) and every run; each side's
    completed rounds; and, with ``peak_rss_mb``, its ``rss_per_round``."""
    first = runs["parent"][0]["metrics"]
    out = {"pairs": len(runs["parent"]),
           "all_correct": all(r["correct"] for side in SIDES
                              for r in runs[side]),
           "failed_operations": sum(r["failed"] for side in SIDES
                                    for r in runs[side]),
           "attempted_min": min(r["attempted"] for side in SIDES
                                for r in runs[side]),
           "rounds": {side: {"median": statistics.median(
                                 r["rounds"] for r in runs[side]),
                             "runs": [r["rounds"] for r in runs[side]]}
                      for side in SIDES}}
    for name, entry in sorted(first.items()):
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = -1 if metrics[name]["better"] == "lower" else 1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(values["parent"], values["change"]))
        sides = {side: quartiles(values[side]) for side in SIDES}
        out[name] = {"unit": entry["unit"], **sides,
                     "change_better_pairs": wins,
                     "within_bound": within_bound(
                         sides["parent"]["median"], sides["change"]["median"],
                         metrics[name]),
                     "runs": values}
    if "peak_rss_mb" in first:
        out.update(rss_per_round(runs, out["rounds"]))
    return out


def check_claim(workloads: dict, claim: str, metrics: dict) -> dict:
    """The claimed gain ``WORKLOAD:METRIC[:TARGET_PCT]`` checked on the
    summaries: better in at least nine of ten pairs, and a median gap
    wider than the parent's interquartile range."""
    workload, metric, target = parse_claim(claim, workloads, metrics)
    entry = workloads[workload][metric]
    p, c = entry["parent"]["median"], entry["change"]["median"]
    gain = p - c if metrics[metric]["better"] == "lower" else c - p
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    wins = entry["change_better_pairs"]
    pairs = len(entry["runs"]["parent"])
    out = {"metric": metric, "workload": workload,
           "parent_median": p, "change_median": c,
           "gain_pct": round(100 * gain / p, 1), "parent_iqr": iqr,
           "change_better_pairs": wins,
           "holds": 10 * wins >= 9 * pairs and gain > iqr}
    if target is not None:
        out["target_pct"] = target
        out["target_met"] = 100 * gain / p >= target
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 2:
        sys.stderr.write("error: quartiles need --pairs >= 2\n")
        return 2
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        sys.stderr.write(f"error: {parent} and {change} differ in path "
                         f"length, so their peak RSS would too\n")
        return 2
    with open(change / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.claim:
        try:
            parse_claim(args.claim, workloads, metrics)
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    roots = {"parent": parent, "change": change}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(roots[side], workload, args.seed,
                                  args.seconds)
                runs[workload][side].append(result)
                solve = result["metrics"]["solve_s"]["value"]
                print(f"pair {pair} {workload} {side}: solve_s {solve:.4f}",
                      flush=True)
    report = {
        "change": args.note,
        "command": ["python3", "tools/bench_pairs.py",
                    *(sys.argv[1:] if argv is None else argv)],
        "machine": f"{os.cpu_count()}-core {platform.machine()} "
                   f"{platform.system()}, Python "
                   f"{platform.python_version()}, numpy {np.__version__}; "
                   f"run-to-run speed of a shared machine drifts, so only "
                   f"the paired runs within this file compare",
        "method": f"python3 bench/run.py --workload W --seed {args.seed} "
                  f"--seconds {args.seconds:g} --trace 0; {args.pairs} "
                  f"alternating parent/change pairs per workload (even pairs "
                  f"parent first, odd pairs change first; the workloads "
                  f"interleaved within each pair), each side run from its "
                  f"own checkout, two sibling directories whose paths have "
                  f"equal length (peak RSS depends on the path length); "
                  f"medians and quartiles (statistics.quantiles, n=4, "
                  f"inclusive) over each side's runs; change_better_pairs "
                  f"counts the pairs where the change reads better.",
        "workloads": {w: summarize(runs[w], metrics) for w in workloads},
    }
    report["all_within_bounds"] = all(
        report["workloads"][w][m]["within_bound"]
        for w in workloads for m in metrics)
    if args.claim:
        report["claim"] = check_claim(report["workloads"], args.claim,
                                      metrics)
    out = args.out or change / f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(rounded(report), fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
