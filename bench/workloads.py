"""The benchmark's workloads: shared set-up, timed rounds and checks.

Every workload builds the same three bundled systems (set-up), then
repeats identical rounds of operations (timed), then checks the results
of every round against ``checks`` (untimed).  ``--seed`` chooses the
lattice points, test vectors, cocycle coefficients and rotation samples;
it never changes how much work a round does.

Program calls go through module attributes (``cocycles.ExactWalker``,
``correction.correct_bv``) so that a traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from iet_lab import (cocycles, correction, ergodicity, perms, precision,
                     rauzy, rotations, spectral)
from iet_lab.errors import IetLabError

import checks

DEN = 1009  # denominator of the seeded lattice points inside a base interval


@contextmanager
def timed(phases: dict, key: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[key] = phases.get(key, 0.0) + time.perf_counter() - t0


class Systems:
    """The 4-, 5- and 7-letter systems of ``specs/``, ready to use.

    Set-up covers what a user of any workload pays first: building the
    periodic-type exchanges, their certified splittings, one
    ``Renormalizer`` per system and the integer fixed space of the
    5-letter system.  The period matrices are also read straight from the
    spec files (the 7-letter one by replaying its loop here), as the
    reference for every count check.
    """

    def __init__(self, root, ctx, phases: dict):
        self.ctx = ctx
        self.periodic, self.split, self.renorm, self.matrix = {}, {}, {}, {}
        specs = {4: "four_letter_matrix.json", 5: "five_letter_matrix.json",
                 7: "seven_letter_loop.json"}
        for d, name in specs.items():
            with open(root / "specs" / name, encoding="utf-8") as fh:
                data = json.load(fh)
            pair = perms.make_pair(data["pair"]["pi0"], data["pair"]["pi1"])
            if "loop" in data:
                self.matrix[d] = checks.loop_matrix(pair.pi0, pair.pi1, data["loop"])
                with timed(phases, "build"):
                    self.periodic[d] = rauzy.build_periodic_from_loop(
                        pair, data["loop"], ctx)
            else:
                self.matrix[d] = [[int(x) for x in row]
                                  for row in data["periodic_matrix"]]
                with timed(phases, "build"):
                    self.periodic[d] = rauzy.build_periodic_from_matrix(
                        pair, self.matrix[d], ctx)
        for d, p in self.periodic.items():
            with timed(phases, "spectrum"):
                kappa = spectral.singularity_data(p.pair).kappa
                self.split[d] = spectral.splitting(p.matrix, p.lengths, ctx,
                                                   kappa=kappa)
            with timed(phases, "build"):
                self.renorm[d] = cocycles.Renormalizer(p)
        with timed(phases, "build"):
            self.fixed5 = ergodicity.fixed_space_basis(self.periodic[5])
            self.fixed_cocycle5 = ergodicity.build_fixed_cocycle(self.fixed5)


class Workload:
    """One round = a fixed list of operations; subclasses fill it in."""

    name = ""

    def __init__(self, systems: Systems, seed: int):
        self.sy = systems
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, *args):
        """Run one operation; a library error counts as a failed operation."""
        self.attempted += 1
        try:
            return op(*args)
        except IetLabError:
            self.failed += 1
            return None

    def round(self) -> list:
        raise NotImplementedError

    def check(self, rounds: list) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class TowerClimbs(Workload):
    """1125 short exact climbs plus a few renormalization calls per round.

    Each climb follows criterion 4: a seeded lattice point in the
    depth-(n+1) interval of a letter, walked by the depth-n induced map
    (``ExactWalker.at_depth``) until it returns below depth n+1.  Such a
    climb takes 12 to 192 induced steps, so the walker's set-up (depth
    coefficients, inverse period powers) dominates.  The round ends with
    criterion 6's correction calls and an essential-value probe.
    """

    name = "tower_climbs"
    SYSTEMS = (4, 5)
    DEPTHS = range(5)
    POINTS = 25       # seeded points per (system, depth, letter)
    K_MAX = 12        # renormalization depth of the growth curves
    SUP_BOUND = 6.0   # criterion 6's bound on the corrected sups
    PROBE_DEPTH = 8

    def __init__(self, systems, seed):
        super().__init__(systems, seed)
        rng = random.Random(seed)
        sy = systems
        self.jobs = [(d, n, b, rng.randrange(1, DEN))
                     for d in self.SYSTEMS for n in self.DEPTHS
                     for b in range(d) for _ in range(self.POINTS)]
        self.vector = {d: [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)]
                       for d in self.SYSTEMS}
        self.thr_f = {(d, n): float(sy.periodic[d].step_scale ** (-(n + 1)))
                      for d in self.SYSTEMS for n in self.DEPTHS}
        self.phi, self.pure0 = self._criterion6_cocycle()

    def _criterion6_cocycle(self):
        """Step cocycle with jumps at the 7-letter marks and a boosted
        expanding component (the construction of criterion 6)."""
        sy = self.sy
        p4, p7 = sy.periodic[4], sy.periodic[7]
        mp = sy.ctx.mp
        lam7 = p7.lengths
        gammas = (lam7[0], mp.fsum([lam7[0], lam7[1], lam7[2]]),
                  mp.fsum([lam7[i] for i in range(6)]))
        raw = [mp.mpf(x) for x in (2, -3, 1, 1)]
        ip = mp.fsum(r * l for r, l in zip(raw, p4.lengths))
        v0 = tuple(r - ip for r in raw)
        u_dir = [-x for x in correction.correct_step(v0, sy.split[4], p4).h[0]]
        scale = max(abs(x) for x in u_dir)
        base = tuple((mp.mpf(b) + 3 * u_dir[a] / scale,)
                     for a, b in enumerate((1, -1, 2, 0)))
        phi = cocycles.StepCocycle(1, base, tuple(
            (g, (j,)) for g, j in zip(gammas, (1, 2, -3))))
        phi = cocycles.zero_mean_version(phi, p4.iet)
        pure = tuple(phi.values[a][0] for a in range(4))
        ip = mp.fsum(v * l for v, l in zip(pure, p4.lengths))
        return phi, tuple(v - ip for v in pure)

    def _climb(self, d, n, b, num):
        p = self.sy.periodic[d]
        thr = cocycles.depth_total_coeffs(p, n + 1)
        lc, wc = cocycles.depth_interval_coeffs(p, n + 1, b)
        coeffs = [DEN * l + num * w for l, w in zip(lc, wc)]
        walker = cocycles.ExactWalker.at_depth(p, n, coeffs, DEN)
        return walker.run_until_below([DEN * t for t in thr],
                                      self.thr_f[(d, n)])

    def _correction(self):
        sy = self.sy
        p4, s4, r4 = sy.periodic[4], sy.split[4], sy.renorm[4]
        res = correction.correct_bv(self.phi, p4, s4, renormalizer=r4)
        corrected = correction.growth_check(res, p4, self.K_MAX, r4)
        raw = correction.renorm_sup_curve(self.phi, p4, self.K_MAX, r4)
        deep = correction.correct_bv(self.phi, p4, s4, depth=res.depth + 6,
                                     renormalizer=r4)
        direct = correction.correct_step(self.pure0, s4, p4)
        series = correction.correct_bv(
            cocycles.StepCocycle.from_vector(self.pure0), p4, s4, depth=8,
            renormalizer=r4)
        drift = max(abs(a - b) for a, b in zip(res.h[0], deep.h[0]))
        agree = max(abs(a - b) for a, b in zip(direct.h[0], series.h[0]))
        return ([float(s) for s in corrected.sups], [float(s) for s in raw.sups],
                drift, res.tail_bound, agree, series.tail_bound)

    def _probe(self):
        rep = ergodicity.essential_value_probe(
            self.sy.fixed_cocycle5, self.sy.periodic[5], self.PROBE_DEPTH,
            self.sy.renorm[5])
        return [(p.letter, p.value, p.clean) for p in rep.pieces]

    def round(self):
        climbs = [self.attempt(self._climb, *job) for job in self.jobs]
        return climbs, self.attempt(self._correction), self.attempt(self._probe)

    def check(self, rounds):
        sy = self.sy
        powers = {d: [checks.mat_pow(sy.matrix[d], n) for n in range(6)]
                  for d in self.SYSTEMS}
        theta2 = checks.lyapunov_theta(sy.matrix[4])[1]
        problems = checks.check_fixed_vector(sy.matrix[5],
                                             sy.fixed5.letter_vectors)
        for climbs, corr, probe in rounds:
            for (d, n, b, _num), counts in zip(self.jobs, climbs):
                if counts is None:
                    continue
                a = powers[d]
                problems += checks.check_induced_return(counts, a[1], b)
                problems += checks.check_climb_value(counts, a[n], a[n + 1], b,
                                                     self.vector[d])
            if corr is not None:
                problems += checks.check_correction(*corr, theta2=theta2,
                                                    sup_bound=self.SUP_BOUND)
            if probe is not None:
                problems += checks.check_probe(probe, sy.fixed5.letter_vectors)
        return problems


# ---------------------------------------------------------------------------


class ExactOrbits(Workload):
    """Four full tower climbs of 2.5e4 to 9.2e5 base steps, exactly.

    A lattice point in the depth-k interval of a letter climbs the whole
    depth-k tower before it returns: its visit counts are that letter's
    column of A^k.  Two climbs run through ``run_until_below`` and two
    through ``birkhoff_visit_counts`` with the climb length as n.
    """

    name = "exact_orbits"
    CLIMBS = ((4, 4, 3, "return"),     # 138,593 steps
              (5, 3, 0, "birkhoff"),   # 919,506 steps
              (7, 4, 5, "return"),     # 138,593 steps
              (7, 3, 2, "birkhoff"))   # 25,280 steps

    def __init__(self, systems, seed):
        super().__init__(systems, seed)
        rng = random.Random(seed)
        self.powers = {(d, k): checks.mat_pow(systems.matrix[d], k)
                       for d, k, _b, _how in self.CLIMBS}
        self.jobs = [(d, k, b, how, rng.randrange(1, DEN))
                     for d, k, b, how in self.CLIMBS]

    def _climb(self, d, k, b, how, num):
        p = self.sy.periodic[d]
        lc, wc = cocycles.depth_interval_coeffs(p, k, b)
        coeffs = [DEN * l + num * w for l, w in zip(lc, wc)]
        if how == "birkhoff":
            length = sum(checks.column(self.powers[(d, k)], b))
            counts = cocycles.birkhoff_visit_counts(p.iet, (coeffs, DEN), length)
            return counts, sum(counts)
        thr = cocycles.depth_total_coeffs(p, k)
        walker = cocycles.ExactWalker(p.iet, coeffs, DEN)
        counts = walker.run_until_below([DEN * t for t in thr],
                                        float(p.step_scale ** (-k)))
        return counts, walker.steps

    def round(self):
        return [self.attempt(self._climb, *job) for job in self.jobs]

    def check(self, rounds):
        problems = []
        for climbs in rounds:
            for (d, k, b, _how, _num), out in zip(self.jobs, climbs):
                if out is not None:
                    problems += checks.check_full_climb(
                        out[0], out[1], self.powers[(d, k)], b)
        return problems


# ---------------------------------------------------------------------------


class FloatSweeps(Workload):
    """The float lanes and the dyadic rotation lane, no lattice arithmetic.

    - criterion 5: ``deviation_sweep`` of five seeded zero-mean PL
      cocycles and one stable-vector step cocycle, 6 samples x 10^6 steps;
    - ``skew_simulate`` of the 5-letter integer fixed-space cocycle,
      16 samples x 10^5 steps;
    - criterion 7: ``denjoy_koksma_check`` of the golden rotation,
      1000 seeded samples up to 10^6.

    The float lanes skip any orbit that comes within 1e-9 of a
    breakpoint, which happens to about 1 in 130 orbits of 10^6 steps.
    Their orbit starts are therefore the fixed, checked ones of criterion
    5 (sweep seed 3) and of the ``simulate`` command (Kronecker seed 0),
    so the skip count cannot depend on ``--seed``.
    """

    name = "float_sweeps"
    N_DEV, DEV_SAMPLES, DEV_SEED = 10 ** 6, 6, 3
    LOG_POWER = 2     # M + 1, with M = 1: A has distinct eigenvalues (checked)
    N_SKEW, SKEW_SAMPLES = 10 ** 5, 16
    N_DK, DK_SAMPLES = 10 ** 6, 1000
    ORACLE_CHECKPOINTS = (10, 100, 1000, 10 ** 4)
    DK_RECOUNT_STARTS, DK_RECOUNT_MAX = 3, 10 ** 4

    def __init__(self, systems, seed):
        super().__init__(systems, seed)
        rng = random.Random(seed)
        ctx = systems.ctx
        p4, p5 = systems.periodic[4], systems.periodic[5]
        self.iet4, self.iet5 = p4.iet, p5.iet
        self.sweep_cocycles = []
        for _ in range(5):
            slope = [ctx.real(rng.uniform(-1, 1)) for _ in range(2)]
            consts = [[ctx.real(rng.uniform(-1, 1)) for _ in range(2)]
                      for _ in range(4)]
            pl = cocycles.PiecewiseLinearCocycle.constant_slope(slope, consts)
            self.sweep_cocycles.append(cocycles.zero_mean_version(pl, self.iet4))
        self.sweep_cocycles.append(cocycles.StepCocycle.from_vector(
            tuple(systems.split[4].basis_s[0])))
        self.skew_starts = precision.kronecker_samples(ctx, self.SKEW_SAMPLES,
                                                       self.iet5.total, 0)
        self.golden = float((ctx.mp.sqrt(5) - 1) / 2)
        self.circle_step = rotations.half_indicator()

    def _deviation(self):
        prof = cocycles.deviation_sweep(
            self.iet4, self.sweep_cocycles, self.N_DEV, samples=self.DEV_SAMPLES,
            seed=self.DEV_SEED, log_power=self.LOG_POWER, workers=1)
        return prof.aborted_samples, prof.sample_count, prof.corrected_exponent

    def _skew(self):
        stats = ergodicity.skew_simulate(self.iet5, self.sy.fixed_cocycle5,
                                         self.skew_starts, self.N_SKEW)
        return stats.skipped_samples, stats.min_norms

    def _dk(self):
        rep = rotations.denjoy_koksma_check(
            self.circle_step, self.golden, depth=40, samples=self.DK_SAMPLES,
            n_max=self.N_DK, seed=self.seed)
        return (rep.denominators, rep.max_abs, rep.variation, rep.violations,
                rep.sample_count)

    def round(self):
        return (self.attempt(self._deviation), self.attempt(self._skew),
                self.attempt(self._dk))

    def check(self, rounds):
        problems = []
        sy = self.sy
        theta1, theta2 = checks.lyapunov_theta(sy.matrix[4])
        problems += checks.check_distinct_eigenvalues(sy.matrix[4])
        problems += checks.check_fixed_vector(sy.matrix[5],
                                              sy.fixed5.letter_vectors)
        problems += checks.check_skew_oracle(*self.skew_oracle())
        fib = checks.fibonacci_upto(self.N_DK)
        step = int(round(self.golden * checks.GRID))
        qs = [q for q in fib if q <= self.DK_RECOUNT_MAX]
        recount = {q: [] for q in qs}
        for j in range(self.DK_RECOUNT_STARTS):
            sums = checks.dk_recount(step, checks.dk_grid_start(self.seed, j), qs)
            for q in qs:
                recount[q].append(sums[q])
        for dev, skew, dk in rounds:
            if dev is not None:
                problems += checks.check_deviation(
                    dev[0], dev[1], self.DEV_SAMPLES, dev[2], 5,
                    theta2 / theta1 + 0.1, 0.02)
            if skew is not None:
                problems += checks.check_skew(skew[0], skew[1], self.SKEW_SAMPLES)
            if dk is not None:
                problems += checks.check_dk(*dk[:4], used=dk[4],
                                            samples=self.DK_SAMPLES, fib=fib,
                                            recounts=recount)
        return problems

    def skew_oracle(self):
        """One start: plain-integer recount, mpf-lane sums, float-lane stats."""
        iet, phi = self.iet5, self.sy.fixed_cocycle5
        x0 = self.skew_starts[0]
        n = self.ORACLE_CHECKPOINTS[-1]
        order = iet.order0
        sums, zeros, best = checks.skew_recount(
            [float(iet.left[a]) for a in order],
            [float(iet.translations[a]) for a in order],
            [phi.values[a] for a in order], float(x0), n, self.ORACLE_CHECKPOINTS)
        mpf_sums = {m: cocycles.birkhoff_sum(phi, iet, x0, m)
                    for m in self.ORACLE_CHECKPOINTS}
        lane = ergodicity.skew_simulate(iet, phi, [x0], n)
        return sums, mpf_sums, (zeros, best), (lane.zero_returns,
                                               lane.min_norms[0])


WORKLOADS = {w.name: w for w in (TowerClimbs, ExactOrbits, FloatSweeps)}
