"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload tower_climbs --seed 1 --seconds 25 --trace 0

The run builds the bundled systems (set-up), repeats identical rounds of
the workload's operations until ``--seconds`` have passed (timed), then
checks every round's results against computations made apart from the
program (untimed).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports the per-layer ones, from rounds
run with wrappers installed on the program's layers, after as many
rounds without wrappers to measure the tracing overhead.  Details go to
``bench/results/``; the last line of stdout is the summary.
"""

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def process_start() -> float:
    """perf_counter reading at which this process started (kernel record)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return T_SCRIPT
    now = time.perf_counter()
    return now - age if 0 <= age - (now - T_SCRIPT) < 60 else T_SCRIPT


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tower_climbs", "exact_orbits", "float_sweeps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; at least one.

    Returns the round times, the round outputs and, with a tracer, each
    round's per-layer activity.
    """
    times, outputs, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        outputs.append(workload.round())
        times.append(time.perf_counter() - t0)
        if tracer:
            layers.append(tracer.difference(tracer.snapshot(), before))
        if time.perf_counter() >= deadline:
            return times, outputs, layers


def install_layers(tracer):
    """Wrappers on the layers whose per-round activity is reported."""
    from iet_lab import (cocycles, correction, ergodicity, intmat, precision,
                         rotations)

    walker = cocycles.ExactWalker

    def walker_steps_before(args):
        return args[0].steps

    def walker_steps_after(tr, args, _result, before):
        tr.count("cocycles.walker", "steps", args[0].steps - before)

    def sweep_after(tr, _args, prof, _before):
        tr.count("cocycles.deviation_sweep", "steps",
                 prof.sample_count * prof.checkpoints[-1])
        tr.count("cocycles.deviation_sweep", "aborted", prof.aborted_samples)

    def skew_after(tr, _args, stats, _before):
        tr.count("ergodicity.skew_simulate", "steps",
                 stats.sample_count * stats.n_steps)
        tr.count("ergodicity.skew_simulate", "skipped", stats.skipped_samples)

    tracer.patch(intmat, "inverse_unimodular", "intmat.inverse_unimodular")
    tracer.patch(intmat, "matpow", "intmat.matpow")
    tracer.patch(cocycles, "depth_interval_coeffs", "cocycles.depth_coeffs")
    tracer.patch(cocycles, "depth_total_coeffs", "cocycles.depth_coeffs")
    tracer.patch(walker, "at_depth", "cocycles.walker_setup")
    tracer.patch(walker, "__init__", "cocycles.walker_setup")
    for method in ("run", "run_until_below"):
        tracer.patch(walker, method, "cocycles.walker",
                     walker_steps_before, walker_steps_after)
    tracer.patch(cocycles, "certified_lattice_sign", "cocycles.lattice_sign")
    tracer.patch(precision.PrecisionContext, "spawn", "precision.spawn")
    tracer.patch(cocycles.Renormalizer, "advance", "cocycles.renormalizer.advance")
    tracer.patch(correction, "correct_bv", "correction.correct_bv")
    tracer.patch(ergodicity, "essential_value_probe",
                 "ergodicity.essential_value_probe")
    tracer.patch(cocycles, "deviation_sweep", "cocycles.deviation_sweep",
                 after=sweep_after)
    tracer.patch(ergodicity, "skew_simulate", "ergodicity.skew_simulate",
                 after=skew_after)
    tracer.patch(rotations, "denjoy_koksma_check", "rotations.denjoy_koksma_check")
    tracer.patch(rotations.CircleStep, "sample", "rotations.sample")


def layer_metrics(per_round: dict) -> dict:
    """Per-layer metrics of one round from its tracer difference."""

    def get(name):
        return per_round.get(name, (0, 0.0, 0.0, {}))

    def rate(name):
        _calls, total, _self, counts = get(name)
        return counts.get("steps", 0) / total if total > 0 else 0.0

    out = {}
    for name in ("intmat.inverse_unimodular", "intmat.matpow",
                 "cocycles.depth_coeffs", "cocycles.walker_setup",
                 "cocycles.renormalizer.advance", "rotations.sample"):
        out[name + ".calls"] = (get(name)[0], "count")
        out[name + ".self_s"] = (get(name)[2], "s")
    for name in ("cocycles.lattice_sign", "precision.spawn"):
        out[name + ".calls"] = (get(name)[0], "count")
    for name in ("correction.correct_bv", "ergodicity.essential_value_probe",
                 "rotations.denjoy_koksma_check"):
        out[name + ".self_s"] = (get(name)[2], "s")
    for name in ("cocycles.walker", "cocycles.deviation_sweep",
                 "ergodicity.skew_simulate"):
        out[name + ".self_s"] = (get(name)[2], "s")
        out[name + ".steps_per_s"] = (rate(name), "1/s")
    out["cocycles.walker.steps"] = (get("cocycles.walker")[3].get("steps", 0),
                                    "count")
    out["cocycles.deviation_sweep.aborted"] = (
        get("cocycles.deviation_sweep")[3].get("aborted", 0), "count")
    out["ergodicity.skew_simulate.skipped"] = (
        get("ergodicity.skew_simulate")[3].get("skipped", 0), "count")
    return out


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    t_start = process_start()
    args = parse_args()
    if not (ROOT / "src" / "iet_lab" / "__init__.py").is_file() \
            or not (ROOT / "specs").is_dir():
        sys.stderr.write(f"error: no iet_lab sources and specs under {ROOT}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    phases = {}
    t0 = time.perf_counter()
    import iet_lab
    phases["import"] = time.perf_counter() - t0
    if Path(iet_lab.__file__).resolve().parents[2] != ROOT:
        sys.stderr.write(f"error: imported {iet_lab.__file__}, not the "
                         f"sources under {ROOT}\n")
        return 2
    from iet_lab import precision, spectral

    import workloads

    if tracer:
        tracer.patch_first_import("sympy", "setup.sympy_import")
        tracer.patch(spectral, "splitting", "spectral.spectrum")
    systems = workloads.Systems(ROOT, precision.PrecisionContext(128), phases)
    workload = workloads.WORKLOADS[args.workload](systems, args.seed)
    setup_s = time.perf_counter() - t_start

    setup_layers, traced_times, per_round = {}, [], []
    if not tracer:
        times, outputs, _ = run_rounds(workload, args.seconds)
    else:
        setup_layers = tracer.snapshot()
        tracer.uninstall()
        times, outputs, _ = run_rounds(workload, args.seconds / 2)
        install_layers(tracer)
        traced_times, traced_outputs, per_round = run_rounds(
            workload, args.seconds / 2, tracer)
        tracer.uninstall()
        outputs += traced_outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(outputs)
    solve_s = statistics.median(times)
    if tracer:
        rounds = [layer_metrics(r) for r in per_round]
        metrics = {name: (statistics.median(r[name][0] for r in rounds), unit)
                   for name, (_v, unit) in rounds[0].items()}
        spectrum = setup_layers.get("spectral.spectrum", (0, 0.0, 0.0, {}))
        sympy_import = setup_layers.get("setup.sympy_import", (0, 0.0, 0.0, {}))
        metrics.update({
            "setup.import_s": (phases["import"], "s"),
            "setup.sympy_import_s": (sympy_import[1], "s"),
            "setup.build_s": (phases["build"], "s"),
            "spectral.spectrum_s": (spectrum[2], "s"),
            "trace.overhead_s": (statistics.median(traced_times) - solve_s, "s"),
        })
    else:
        metrics = {"setup_s": (setup_s, "s"), "solve_s": (solve_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        sys.stderr.write(f"error: metrics {sorted(set(metrics) ^ declared)} "
                         f"differ from BENCHMARK.json\n")
        return 2

    summary = {"correct": not problems, "attempted": workload.attempted,
               "failed": workload.failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in sorted(metrics.items())}}
    detail = dict(summary, workload=args.workload, seed=args.seed,
                  trace=args.trace, round_s=times, traced_round_s=traced_times,
                  setup_phases_s=phases, problems=problems[:50])
    if tracer:
        detail["layers_per_round"] = per_round
        detail["span_edges"] = tracer.edge_table()
    out_dir = ROOT / "bench" / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
