"""Command-line front end.

Every run serializes its configuration (precision, seed, inputs) into
the output header, decimals are emitted as strings, and dictionary keys
are sorted, so identical configurations produce byte-identical output.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import intmat
from .cocycles import (Renormalizer, StepCocycle, check_rows,
                       cocycle_from_json, deviation_profile)
from .correction import correct_bv, growth_check, renorm_sup_curve
from .ergodicity import (build_fixed_cocycle, coboundary_classify,
                         essential_value_probe, fixed_space_basis,
                         lattice_containment, skew_simulate)
from .errors import IetLabError
from .perms import PermutationPair
from .precision import PrecisionContext
from .rauzy import Iet, PeriodicIet, iet_from_json, iterate_induction
from .repro import run_case
from .rotations import (denjoy_koksma_check, half_indicator,
                        product_rotation_simulate, three_distance_gaps)
from .spectral import singularity_data, spectrum_and_splitting, splitting

ENV_BITS = "IET_LAB_PRECISION_BITS"


def _config(args) -> dict:
    return {"precision_bits": args.precision_bits,
            "seed": args.seed,
            "format": args.format,
            "threads": args.threads,
            "command": args.command}


def _emit(args, payload: dict, rows=None) -> None:
    out = sys.stdout
    if args.format == "csv" and rows is not None:
        header = payload.get("csv_header", "n,value")
        out.write("# " + json.dumps(_config(args), sort_keys=True) + "\n")
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(str(v) for v in row) + "\n")
        return
    if args.format == "table" and "table" in payload:
        out.write(payload["table"] + "\n")
        return
    doc = {"config": _config(args), "result": payload}
    doc["result"].pop("table", None)
    out.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IetLabError(str(exc)) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IetLabError(f"{path} is not valid JSON: {exc}") from None


def _parse(what: str, convert, value):
    """convert(value), with a malformed value reported as one error line."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise IetLabError(f"malformed {what}: {exc}") from None


def _split(convert):
    """Converter of a comma-separated list, entry by entry."""
    return lambda text: tuple(convert(v) for v in text.split(","))


def _load_iet(args, ctx) -> Iet | PeriodicIet:
    if not args.iet:
        raise IetLabError("this command needs --iet FILE")
    return iet_from_json(_load_json(args.iet), ctx)


def _load_cocycle(args, ctx, iet: Iet):
    """The --cocycle spec, with one row per letter of the exchange."""
    phi = cocycle_from_json(_load_json(args.cocycle), ctx)
    check_rows(phi, iet.d)
    return phi


def _need_periodic(obj) -> PeriodicIet:
    if not isinstance(obj, PeriodicIet):
        raise IetLabError("this command needs a periodic-type exchange "
                          "(matrix or loop spec)")
    return obj


def _plain_iet(obj) -> Iet:
    return obj.iet if isinstance(obj, PeriodicIet) else obj


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=int(os.environ.get(ENV_BITS, "128")))
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv", "table"),
                        default="json")
    common.add_argument("--threads", type=int, default=1,
                        help="worker cap for sweep commands")
    parser = argparse.ArgumentParser(
        prog="iet-lab",
        description="interval exchange laboratory: induction, spectra, "
                    "cocycle growth, and recurrence probes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("rauzy", help="iterate induction steps")
    p.add_argument("--iet", required=True)
    p.add_argument("--steps", type=int, default=10)

    p = add("build", help="build a periodic-type exchange")
    p.add_argument("--iet", required=True)

    p = add("spectrum", help="exponents, splitting, singularities")
    p.add_argument("--iet")
    p.add_argument("--matrix", help="JSON file with row-major integer strings")
    p.add_argument("--pair", help="JSON pair file for singularity data")

    p = add("birkhoff", help="cocycle sums along one orbit")
    p.add_argument("--iet", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--x0", default="0.31")
    p.add_argument("--n", type=int, default=1000)

    p = add("deviation", help="growth profile of cocycle sums")
    p.add_argument("--iet", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--n-max", type=int, default=100_000)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--zero-mean", action="store_true",
                   help="recenter the cocycle to zero mean before the sweep")

    p = add("correct", help="correcting vector and growth table")
    p.add_argument("--iet", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--zero-mean", action="store_true",
                   help="recenter the cocycle to zero mean before correcting")

    p = add("essential-values", help="tower value probe")
    p.add_argument("--iet", required=True)
    p.add_argument("--cocycle")
    p.add_argument("--fixed-space", action="store_true",
                   help="probe the integer fixed-space cocycle")
    p.add_argument("--n-max", type=int, default=5)

    p = add("classify", help="coboundary trichotomy of a vector")
    p.add_argument("--iet", required=True)
    p.add_argument("--vector", required=True,
                   help="comma-separated step values")
    p.add_argument("--lattices", default="",
                   help="comma-separated lattice scales to test")

    p = add("simulate", help="skew-product recurrence statistics")
    p.add_argument("--iet", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--eps", default="0.5,0.1,0.02")

    p = add("rotations", help="circle-rotation probes")
    p.add_argument("--mode", choices=("dk", "product", "three-distance"),
                   default="dk")
    p.add_argument("--alpha", default="0.6180339887498949")
    p.add_argument("--alpha2", default="0.41421356237309515")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--samples", type=int, default=100)

    p = add("repro", help="bundled benchmark cases")
    p.add_argument("--case", default="all",
                   choices=("appendix-b", "example-7-2", "appendix-d", "all"))
    return parser


def _cmd_rauzy(args, ctx):
    obj = _plain_iet(_load_iet(args, ctx))
    run = iterate_induction(obj, args.steps)
    payload = {"eps_word": list(run.eps_word),
               "theta": intmat.matrix_to_strings(run.theta),
               "final_lambda": run.final.lengths.as_strings(),
               "final_pair": run.final.pair.to_json()}
    _emit(args, payload)
    return 0


def _cmd_build(args, ctx):
    obj = _need_periodic(_load_iet(args, ctx))
    _emit(args, obj.to_json())
    return 0


def _cmd_spectrum(args, ctx):
    if args.matrix:
        matrix = _parse("matrix file", intmat.matrix_from_strings,
                        _load_json(args.matrix))
        lengths = None
        pair = None
        if args.pair:
            data = _load_json(args.pair)
            if isinstance(data, dict):
                data = data.get("pair", data)
            pair = PermutationPair.from_json(data)
    else:
        obj = _need_periodic(_load_iet(args, ctx))
        matrix, lengths, pair = obj.matrix, obj.lengths, obj.pair
    spec, sdata, split = spectrum_and_splitting(matrix, lengths, ctx, pair)
    payload = {"spectrum": spec.to_json()}
    if sdata is not None:
        payload["singularities"] = sdata.to_json()
    payload["splitting"] = {
        "dims": list(split.dims),
        "theta_plus": ctx.str_of(split.theta_plus) if split.theta_plus else None,
        "non_degenerate": split.non_degenerate,
        "basis_s": [v.as_strings() for v in split.basis_s],
        "basis_c": [v.as_strings() for v in split.basis_c],
        "basis_u": [v.as_strings() for v in split.basis_u]}
    _emit(args, payload)
    return 0


def _cmd_birkhoff(args, ctx):
    iet = _plain_iet(_load_iet(args, ctx))
    phi = _load_cocycle(args, ctx, iet)
    from .cocycles import CHECKPOINT_RATIO, birkhoff_checkpoints
    from .precision import geometric_checkpoints

    x = _parse("--x0", ctx.real, args.x0) * iet.total
    checkpoints = geometric_checkpoints(args.n, CHECKPOINT_RATIO)
    sums = birkhoff_checkpoints(phi, iet, x, checkpoints)
    rows = [(n, ctx.str_of(max(abs(v) for v in acc), 17))
            for n, acc in zip(checkpoints, sums)]
    _emit(args, {"csv_header": "n,sup_norm",
                 "rows": [[r[0], r[1]] for r in rows]}, rows=rows)
    return 0


def _cmd_deviation(args, ctx):
    obj = _need_periodic(_load_iet(args, ctx))
    phi = _load_cocycle(args, ctx, obj.iet)
    if args.zero_mean:
        from .cocycles import zero_mean_version

        phi = zero_mean_version(phi, obj.iet)
    prof = deviation_profile(phi, obj, args.n_max, samples=args.samples,
                             seed=args.seed, workers=max(1, args.threads))
    rows = [(n, f"{v:.12g}") for n, v in prof.to_rows()]
    _emit(args, {"csv_header": "n,sup_norm",
                 "rows": [[r[0], r[1]] for r in rows],
                 "fitted_exponent": prof.fitted_exponent[0],
                 "corrected_exponent": prof.corrected_exponent[0],
                 "aborted_samples": prof.aborted_samples}, rows=rows)
    return 0


def _cmd_correct(args, ctx):
    obj = _need_periodic(_load_iet(args, ctx))
    phi = _load_cocycle(args, ctx, obj.iet)
    if args.zero_mean:
        from .cocycles import zero_mean_version

        phi = zero_mean_version(phi, obj.iet)
    sdata = singularity_data(obj.pair)
    split = splitting(obj.matrix, obj.lengths, ctx, kappa=sdata.kappa)
    rz = Renormalizer(obj)
    res = correct_bv(phi, obj, split, depth=args.depth, renormalizer=rz)
    growth = growth_check(res, obj, args.k_max, rz)
    raw = renorm_sup_curve(phi, obj, args.k_max, rz)
    payload = res.to_json()
    payload["growth_corrected"] = [ctx.str_of(v, 12) for v in growth.sups]
    payload["growth_uncorrected"] = [ctx.str_of(v, 12) for v in raw.sups]
    _emit(args, payload)
    return 0


def _cmd_essential(args, ctx):
    obj = _need_periodic(_load_iet(args, ctx))
    if args.fixed_space:
        phi = build_fixed_cocycle(fixed_space_basis(obj))
    else:
        if not args.cocycle:
            raise IetLabError("need --cocycle FILE or --fixed-space")
        phi = _load_cocycle(args, ctx, obj.iet)
    report = essential_value_probe(phi, obj, args.n_max)
    payload = {"candidates": [
        {"value": [str(x) for x in val], "levels_tracked": cnt,
         "min_tower_measure": float(meas)}
        for val, cnt, meas in report.candidates],
        "contaminated_levels": list(report.contaminated_levels)}
    _emit(args, payload)
    return 0


def _cmd_classify(args, ctx):
    obj = _need_periodic(_load_iet(args, ctx))
    vec = _parse("--vector", _split(ctx.real), args.vector)
    sdata = singularity_data(obj.pair)
    split = splitting(obj.matrix, obj.lengths, ctx, kappa=sdata.kappa)
    verdict = coboundary_classify(vec, split, obj)
    payload = {"verdict": verdict}
    if args.lattices:
        scales = _parse("--lattices", _split(ctx.real), args.lattices)
        rep = lattice_containment(StepCocycle.from_vector(vec), scales, ctx)
        payload["lattices"] = {str(s): bool(c)
                               for s, c in zip(args.lattices.split(","),
                                               rep.contained)}
    _emit(args, payload)
    return 0


def _cmd_simulate(args, ctx):
    iet = _plain_iet(_load_iet(args, ctx))
    phi = _load_cocycle(args, ctx, iet)
    eps = _parse("--eps", _split(float), args.eps)
    from .precision import kronecker_samples

    samples = kronecker_samples(ctx, args.samples, iet.total, args.seed)
    stats = skew_simulate(iet, phi, samples, args.n, eps, seed=args.seed)
    payload = stats.to_json()
    payload["csv_header"] = "bin,count"
    rows = list(enumerate(stats.histogram))
    _emit(args, payload, rows=rows)
    return 0


def _cmd_rotations(args, ctx):
    alpha = _parse("--alpha", float, args.alpha)
    if args.mode == "dk":
        rep = denjoy_koksma_check(half_indicator(), alpha,
                                  depth=args.depth, samples=args.samples,
                                  n_max=args.n, seed=args.seed)
        payload = {"denominators": list(rep.denominators),
                   "max_abs": {str(q): str(v) for q, v in rep.max_abs.items()},
                   "variation": str(rep.variation),
                   "violations": rep.violations,
                   "log_slope": rep.log_slope}
        _emit(args, payload)
        return 0
    if args.mode == "product":
        alpha2 = _parse("--alpha2", float, args.alpha2)
        rep = product_rotation_simulate(alpha, alpha2,
                                        half_indicator(), half_indicator(),
                                        args.n, seed=args.seed)
        _emit(args, rep.to_json())
        return 0
    gaps = three_distance_gaps(alpha, args.n)
    _emit(args, {"distinct_gaps": len(gaps),
                 "gaps_grid": [int(g) for g in gaps]})
    return 0


def _cmd_repro(args, ctx):
    reports = run_case(args.case, ctx)
    ok = all(r.ok for r in reports)
    payload = {"ok": ok, "cases": [r.to_json() for r in reports],
               "table": "\n".join(r.to_table() for r in reports)}
    _emit(args, payload)
    return 0 if ok else 1


_COMMANDS = {"rauzy": _cmd_rauzy, "build": _cmd_build,
             "spectrum": _cmd_spectrum, "birkhoff": _cmd_birkhoff,
             "deviation": _cmd_deviation, "correct": _cmd_correct,
             "essential-values": _cmd_essential, "classify": _cmd_classify,
             "simulate": _cmd_simulate, "rotations": _cmd_rotations,
             "repro": _cmd_repro}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision_bits < 64:
        parser.error("--precision-bits must be >= 64")
    ctx = PrecisionContext(args.precision_bits)
    try:
        return _COMMANDS[args.command](args, ctx)
    except IetLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
