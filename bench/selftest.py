"""Self-test of the benchmark's checks: none of them is vacuous.

    python3 bench/selftest.py

Runs one small round of each workload (fewer points, shorter orbits),
confirms that the workload's check accepts the genuine results, then
corrupts one result at a time and confirms that the check rejects it.
Exits 1 if a genuine result is rejected or a corrupted one accepted.
"""

import copy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from iet_lab.precision import PrecisionContext  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


class SmallTower(workloads.TowerClimbs):
    DEPTHS = range(3)
    POINTS = 1


class SmallExact(workloads.ExactOrbits):
    CLIMBS = ((4, 2, 1, "return"), (7, 3, 2, "birkhoff"))


class SmallFloat(workloads.FloatSweeps):
    N_DEV, DEV_SAMPLES = 10 ** 5, 1
    N_SKEW, SKEW_SAMPLES = 10 ** 4, 2
    N_DK, DK_SAMPLES = 10 ** 4, 10


def off_by_one(counts):
    return (counts[0] + 1,) + tuple(counts[1:])


def tower_cases(out):
    climbs, corr, probe = out

    def climb(o):
        o[0][0] = off_by_one(o[0][0])

    def corrected(o):
        o[1] = ([s + 10 for s in o[1][0]],) + tuple(o[1][1:])

    def growth(o):
        o[1] = (o[1][0], [o[1][1][0]] * len(o[1][1])) + tuple(o[1][2:])

    def routes(o):
        o[1] = tuple(o[1][:4]) + (o[1][5] * 2, o[1][5])

    def probe_value(o):
        letter, value, clean = o[2][0]
        o[2][0] = (letter, (value[0] + 1,), clean)

    return [("visit count off by one", climb),
            ("corrected sup above its bound", corrected),
            ("uncorrected growth below exp(theta2)", growth),
            ("correction routes apart by more than the tail", routes),
            ("sub-tower value off the fixed vector", probe_value)]


def exact_cases(out):
    def counts(o):
        o[0] = (off_by_one(o[0][0]), o[0][1])

    def steps(o):
        o[0] = (o[0][0], o[0][1] + 1)

    return [("full-climb visit count off by one", counts),
            ("full-climb length off by one", steps)]


def float_cases(out):
    def exponent(o):
        aborted, used, exps = o[0]
        o[0] = (aborted, used, (exps[0] + 1.0,) + tuple(exps[1:]))

    def stable(o):
        aborted, used, exps = o[0]
        o[0] = (aborted, used, tuple(exps[:-1]) + (0.03,))

    def aborted(o):
        o[0] = (1, o[0][1] - 1, o[0][2])

    def no_return(o):
        o[1] = (o[1][0], (1.0,) + tuple(o[1][1][1:]))

    def dk_sum(o):
        dens, max_abs, var, viol, used = o[2]
        q = dens[-1]
        o[2] = (dens, {**max_abs, q: Fraction(5, 2)}, var, viol, used)

    def dk_dens(o):
        dens, max_abs, var, viol, used = o[2]
        o[2] = (dens[:-1] + (dens[-1] + 1,), max_abs, var, viol, used)

    return [("deviation exponent over its bound", exponent),
            ("stable-step exponent over 0.02", stable),
            ("aborted deviation sample", aborted),
            ("skew sample with no return to zero", no_return),
            ("Denjoy-Koksma sum above the variation", dk_sum),
            ("denominators not Fibonacci", dk_dens)]


def main() -> int:
    systems = workloads.Systems(ROOT, PrecisionContext(128), {})
    bad = 0
    for cls, cases in ((SmallTower, tower_cases), (SmallExact, exact_cases),
                       (SmallFloat, float_cases)):
        wl = cls(systems, seed=7)
        out = list(wl.round())
        genuine = wl.check([out])
        print(f"{cls.__name__}: genuine results "
              f"{'accepted' if not genuine else 'REJECTED: ' + genuine[0]}")
        bad += bool(genuine)
        for label, corrupt in cases(out):
            broken = copy.deepcopy(out)
            corrupt(broken)
            problems = wl.check([broken])
            print(f"  {label}: {'rejected' if problems else 'ACCEPTED'}")
            bad += not problems
    wl = SmallFloat(systems, seed=7)
    sums, mpf_sums, recount, lane = wl.skew_oracle()
    n = max(mpf_sums)
    for label, args in (
            ("genuine skew sums", (sums, mpf_sums, recount, lane)),
            ("mpf-lane skew sum off by one",
             (sums, {**mpf_sums, n: (mpf_sums[n][0] + 1,)}, recount, lane)),
            ("float-lane zero returns off by one",
             (sums, mpf_sums, recount, (lane[0] + 1, lane[1])))):
        problems = checks.check_skew_oracle(*args)
        genuine = label.startswith("genuine")
        print(f"  {label}: {'rejected' if problems else 'accepted'}")
        bad += bool(problems) == genuine
    print("selftest", "passed" if not bad else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
