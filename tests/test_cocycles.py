"""Cocycle evaluation, Birkhoff sums, towers, renormalization."""

import json
import math
from bisect import bisect_right
from dataclasses import fields, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from iet_lab import cocycles as cocycles_module
from iet_lab import intmat
from iet_lab import shadow as shadow_module
from iet_lab.cocycles import (CHECKPOINT_RATIO, FLOAT_BLOCK, ExactWalker,
                              PiecewiseLinearCocycle,
                              RenormState, StepCocycle, birkhoff_sum,
                              birkhoff_visit_counts, certified_lattice_sign,
                              cocycle_from_json, depth_interval_coeffs,
                              depth_lattice,
                              depth_total_coeffs, deviation_sweep, evaluate,
                              float_table, float_walk,
                              forward_birkhoff, gap_statistics,
                              jumps_by_letter,
                              m_index, mean, partition_pn, renormalize,
                              Renormalizer, return_time_matrix, sup_norm,
                              towers, zero_mean_version)
from iet_lab.ergodicity import (TowerPiece, essential_value_probe,
                                skew_simulate)
from iet_lab.errors import DomainError, NearBreakpoint, NotNormalized
from iet_lab.perms import make_pair, make_symmetric_pair
from iet_lab.precision import (PrecisionContext, as_fraction,
                               geometric_checkpoints, kronecker_samples)
from iet_lab.rauzy import Iet, _lattice, build_periodic_from_matrix
from iet_lab.repro import FIVE_MATRIX
from iet_lab.shadow import (_TOWER_REACH, GUARD, TOWER_HEIGHT,
                            lattice_mirror)

SYSTEMS = ["periodic4", "periodic5", "periodic7"]
# walks of lengths around multiples of a quarter chunk end inside the
# first chunk, past several climbs; FLOAT_BLOCK +- 1 cross its end
QUARTER = FLOAT_BLOCK // 4
SPECS = Path(__file__).resolve().parent.parent / "specs"


def image(iet, x, n=1):
    """T^n x by one exact walk (of the inverse for n < 0), rounded once."""
    wk = ExactWalker.from_point(iet if n >= 0 else iet.inverse, x)
    wk.run(abs(n))
    return wk.point()


class TestApply:
    """The image of a point: one exact step of the walker."""

    def test_rotation(self, ctx):
        phi = (ctx.mp.sqrt(5) - 1) / 2
        iet = Iet(make_symmetric_pair(2), ctx.vector([phi, 1 - phi]))
        x = ctx.real("0.15")
        assert abs(image(iet, x) - (x + 1 - phi)) < ctx.eps_cmp

    def test_left_endpoint_maps(self, ctx, periodic4):
        lattice = periodic4.iet.lattice
        for a in range(4):
            wk = ExactWalker(periodic4.iet, lattice.lefts[a])
            assert wk.step() == a
            assert tuple(wk.coeffs) == lattice.image_lefts[a]

    def test_domain_error(self, ctx, periodic4):
        iet = periodic4.iet
        for x in (iet.total, -ctx.eps_cmp, ctx.real("nan")):
            with pytest.raises(DomainError):
                image(iet, x)
            with pytest.raises(DomainError):
                iet.interval_index(x)

    def test_near_breakpoint(self, ctx, periodic4):
        # eps_cmp / 4 either side of a left end: located and moved exactly
        iet = periodic4.iet
        lat, lam = iet.lattice, [as_fraction(v) for v in iet.lengths]
        for x, a in ((iet.left[1] + ctx.eps_cmp / 4, 1),
                     (iet.left[1] - ctx.eps_cmp / 4, 0)):
            assert iet.interval_index(x) == a
            move = sum((i - l) * v for i, l, v in
                       zip(lat.image_lefts[a], lat.lefts[a], lam))
            assert image(iet, x) == ctx.real(as_fraction(x) + move)

    def test_images_tile_domain(self, ctx, periodic4, periodic5):
        # images of the exchanged intervals are disjoint and tile [0, |I|)
        for p in (periodic4, periodic5):
            iet = p.iet
            spans = sorted((iet.left[a] + iet.translations[a],
                            iet.right[a] + iet.translations[a])
                           for a in range(p.d))
            assert abs(spans[0][0]) < ctx.eps_cmp
            for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
                assert abs(r1 - l2) < ctx.eps_cmp
            assert abs(spans[-1][1] - iet.total) < ctx.eps_cmp

    def test_jump_validation(self, ctx, periodic4):
        from iet_lab.cocycles import validate_jumps
        from iet_lab.errors import DomainError as DE

        iet = periodic4.iet
        bad = StepCocycle(1, ((1,), (0,), (0,), (-1,)),
                          ((iet.left[2], (1,)),))
        with pytest.raises(DE):
            validate_jumps(bad, iet)
        dup = StepCocycle(1, ((1,), (0,), (0,), (-1,)),
                          ((ctx.real("0.3"), (1,)), (ctx.real("0.3"), (2,))))
        with pytest.raises(DE):
            validate_jumps(dup, iet)

    @pytest.mark.parametrize("side", ["-1e-18", "1e-18"])
    def test_float_table_slot_is_the_exact_letter(self, ctx, periodic4, side):
        # 1e-18 left of a left end, float(gamma) is that left end, where
        # a float bisect finds the next slot; the jump lies before it
        from iet_lab.cocycles import validate_jumps

        iet = periodic4.iet
        for k in range(1, 4):
            g = iet.left[iet.order0[k]] + ctx.real(side)
            phi = StepCocycle(1, ((0,),) * 4, ((g, (1,)),))
            validate_jumps(phi, iet)
            (slot, _gf, _j), = float_table(phi, iet).jumps
            assert slot == (k - 1 if side.startswith("-") else k)


class TestBirkhoff:
    def test_zero_steps(self, ctx, periodic4):
        phi = StepCocycle.from_vector((1, 2, 3, 4))
        assert birkhoff_sum(phi, periodic4.iet, ctx.real("0.3"), 0) == (0,)

    @pytest.mark.parametrize("m,n", [(3, 5), (7, -4), (-6, -3), (0, 9), (-5, 5)])
    def test_cocycle_identity(self, ctx, periodic4, m, n):
        iet = periodic4.iet
        phi = StepCocycle(2, ((1, 0), (-1, 2), (0, -1), (2, 1)),
                          ((ctx.real("0.37"), (1, -1)),))
        x = ctx.real("0.211")
        lhs = birkhoff_sum(phi, iet, x, m + n)
        tm = image(iet, x, m)
        rhs_a = birkhoff_sum(phi, iet, x, m)
        rhs_b = birkhoff_sum(phi, iet, tm, n)
        for i in range(2):
            assert abs(lhs[i] - (rhs_a[i] + rhs_b[i])) < ctx.eps_cmp * 64

    def test_cocycle_identity_wide_range(self, ctx, periodic4):
        import random as _random

        rng = _random.Random(99)
        iet = periodic4.iet
        phi = StepCocycle(1, ((1,), (-2,), (0,), (1,)),
                          ((ctx.real("0.51"), (3,)),))
        for _ in range(6):
            m = rng.randint(-100, 100)
            n = rng.randint(-100, 100)
            x = ctx.real(str(rng.uniform(0.05, 0.95)))
            lhs = birkhoff_sum(phi, iet, x, m + n)
            tm = image(iet, x, m)
            rhs = birkhoff_sum(phi, iet, x, m)[0] \
                + birkhoff_sum(phi, iet, tm, n)[0]
            assert abs(lhs[0] - rhs) < ctx.eps_cmp * 256

    def test_pl_cocycle_identity(self, ctx, periodic4):
        iet = periodic4.iet
        pl = PiecewiseLinearCocycle.constant_slope(
            (ctx.real(1),), tuple((ctx.real(c),) for c in (0.1, -0.2, 0.3, 0)))
        x = ctx.real("0.43")
        lhs = birkhoff_sum(pl, iet, x, 12)
        mid = image(iet, x, 5)
        rhs = birkhoff_sum(pl, iet, x, 5)[0] + birkhoff_sum(pl, iet, mid, 7)[0]
        assert abs(lhs[0] - rhs) < ctx.eps_cmp * 64

    def test_visit_counts_lattice(self, ctx, periodic4):
        # lattice walk agrees with the plain working-precision walk
        iet = periodic4.iet
        lc, wc = depth_interval_coeffs(periodic4, 0, 2)
        coeffs = [3 * l + w for l, w in zip(lc, wc)]
        counts = birkhoff_visit_counts(iet, (coeffs, 3), 500)
        x = ctx.dot_int(coeffs, iet.lengths.values) / 3
        counts2 = birkhoff_visit_counts(iet, x, 500)
        assert counts == counts2
        assert sum(counts) == 500


def oracle_value(phi, iet, a, y):
    """The cocycle at a point y of letter a's interval, at working
    precision: a jump at gamma counts where left_a < gamma <= y."""
    if isinstance(phi, PiecewiseLinearCocycle):
        return phi.slopes[a][0] * y + phi.constants[a][0]
    return phi.values[a][0] + sum(j[0] for g, j in phi.jumps
                                  if iet.left[a] < g <= y)


class TestExactAgainstMpfOracle:
    """Point starts walk exactly: on 50 Kronecker starts per system, the
    per-step mpf oracle's short orbits, in both directions, give the
    same visit counts and integer sums (``==``) and the same real sums
    within eps_cmp per step."""

    N = 200

    @staticmethod
    def cocycles(ctx, iet):
        r, d = ctx.real, iet.d
        first, last = iet.order0[0], iet.order0[-1]
        ints = StepCocycle.from_vector(tuple((-1) ** a * (a + 1)
                                             for a in range(d)))
        step = StepCocycle(1, tuple((r(a + 1) / 10,) for a in range(d)), (
            (iet.left[first] + r("0.37") * iet.lengths[first], (r("0.3"),)),
            (iet.left[last] + r("0.61") * iet.lengths[last], (r("-1.25"),))))
        pl = PiecewiseLinearCocycle.constant_slope(
            (r("0.7"),), tuple((r(2 - 3 * a) / 20,) for a in range(d)))
        return ints, step, pl

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("sign", [1, -1], ids=["forward", "backward"])
    def test_matches_the_mpf_orbit(self, request, ctx, mpf_orbit, system,
                                   sign):
        iet = request.getfixturevalue(system).iet
        n = sign * self.N
        ints, step, pl = self.cocycles(ctx, iet)
        for x in kronecker_samples(ctx, 50, iet.total, seed=5):
            pts, letters = mpf_orbit(iet, x, n)
            summed = pts[:-1] if n > 0 else pts[1:]
            walker = ExactWalker.from_point(iet if n > 0 else iet.inverse, x)
            assert walker.run(self.N) == tuple(map(letters.count,
                                                   range(iet.d)))
            got = birkhoff_sum(ints, iet, x, n)
            assert got == (sign * sum(ints.values[a][0] for a in letters),)
            assert type(got[0]) is int
            for phi in (step, pl):
                want = sign * ctx.mp.fsum(oracle_value(phi, iet, a, y)
                                          for a, y in zip(letters, summed))
                assert abs(birkhoff_sum(phi, iet, x, n)[0] - want) \
                    < ctx.eps_cmp * self.N


class TestRenormalization:
    def test_pure_step_is_transpose(self, periodic4, renorm4):
        v = (3, -1, 2, -5)
        state = renorm4.advance(renorm4.start(StepCocycle.from_vector(v)))
        expect = intmat.mat_vec(intmat.mat_transpose(periodic4.matrix), v)
        got = tuple(state.cocycle.values[a][0] for a in range(4))
        assert got == tuple(expect)

    def test_step_renorm_matches_direct_sums(self, ctx, periodic4, renorm4):
        iet = periodic4.iet
        phi = StepCocycle(1, ((1,), (0,), (-2,), (1,)),
                          ((ctx.real("0.2"), (2,)), (ctx.real("0.61"), (-1,))))
        phi = zero_mean_version(phi, iet)
        state = renorm4.to_depth(phi, 3)
        scale = periodic4.pf_value ** 3
        q3 = intmat.matpow(periodic4.matrix, 3)
        for b in range(4):
            x = (iet.left[b] + iet.lengths[b] * ctx.real("0.37")) / scale
            direct = birkhoff_sum(phi, iet, x, sum(q3[i][b] for i in range(4)))
            ren = evaluate(state.cocycle, iet, x * scale)
            assert abs(direct[0] - ren[0]) < ctx.mp.mpf(2) ** -90

    def test_pl_renorm_matches_direct_sums(self, ctx, periodic4, renorm4):
        iet = periodic4.iet
        pl = PiecewiseLinearCocycle.constant_slope(
            (ctx.real(1),), tuple((ctx.real(c),) for c in (0.3, -0.4, 0.25, -0.15)))
        pl = zero_mean_version(pl, iet)
        state = renorm4.to_depth(pl, 2)
        scale = periodic4.pf_value ** 2
        q2 = intmat.matpow(periodic4.matrix, 2)
        for b in range(4):
            x = (iet.left[b] + iet.lengths[b] * ctx.real("0.71")) / scale
            direct = birkhoff_sum(pl, iet, x, sum(q2[i][b] for i in range(4)))
            ren = evaluate(state.cocycle, iet, x * scale)
            assert abs(direct[0] - ren[0]) < ctx.mp.mpf(2) ** -90

    def test_variation_never_increases(self, ctx, periodic4, renorm4, gammas):
        phi = StepCocycle(1, ((1,), (-1,), (2,), (0,)),
                          tuple((g, (j,)) for g, j in
                                zip(gammas, (1, 2, -3))))
        phi = zero_mean_version(phi, periodic4.iet)
        var0 = phi.variation()
        state = renorm4.start(phi)
        for _ in range(4):
            state = renorm4.advance(state)
            assert state.cocycle.variation() <= var0 + ctx.eps_cmp

    def test_mean_preserved(self, ctx, periodic4, renorm4, gammas):
        iet = periodic4.iet
        phi = StepCocycle(1, ((1,), (-1,), (2,), (0,)),
                          tuple((g, (j,)) for g, j in zip(gammas, (1, 2, -3))))
        phi = zero_mean_version(phi, iet)
        state = renorm4.to_depth(phi, 3)
        # integral over the depth-3 interval equals the original integral (0),
        # scaled coordinates divide it by the depth scale
        m = mean(state.cocycle, iet)
        assert abs(m[0]) < ctx.mp.mpf(2) ** -90

    def test_jump_step_bookkeeping(self, ctx, periodic4, renorm4):
        # gamma = T^t(pullback / scale) exactly, for moderate depths
        iet = periodic4.iet
        g = ctx.real("0.57")
        phi = StepCocycle(1, ((1,), (0,), (0,), (-1,)), ((g, (1,)),))
        state = renorm4.to_depth(phi, 2)
        (u, _j), = state.cocycle.jumps
        t = state.jump_steps[0]
        x = u / periodic4.pf_value ** 2
        y = image(iet, x, t)
        assert abs(y - g) < ctx.mp.mpf(2) ** -90

    def test_zero_cocycle_stays_zero(self, periodic4, renorm4):
        phi = StepCocycle.from_vector((0, 0, 0, 0))
        state = renorm4.to_depth(phi, 3)
        assert all(v == (0,) for v in state.cocycle.values)

    def test_renormalize_wrapper(self, periodic4):
        phi = StepCocycle.from_vector((1, -1, 0, 0))
        state = renormalize(phi, periodic4, 0, 2)
        assert state.level == 2

    @pytest.mark.parametrize("where", ["left-end", "total", "near-total",
                                       "past-total", "negative"])
    def test_renormalize_validates_jumps(self, ctx, periodic4, renorm4,
                                         where):
        # near-total: inside the domain, but within eps_cmp of its right end
        iet = periodic4.iet
        g = {"left-end": iet.left[2], "total": iet.total,
             "near-total": iet.total - ctx.real("1e-21"),
             "past-total": ctx.real("1.5"), "negative": ctx.real("-0.1")}
        phi = StepCocycle(1, ((1,), (0,), (0,), (-1,)), ((g[where], (1,)),))
        for k in (0, 2):
            with pytest.raises(DomainError, match="jump position"):
                renormalize(phi, periodic4, k, k + 1, renorm4)


class TestSevenLetterRenormalizer:
    def test_stage_handles_zero_entries(self, periodic7):
        # the 7x7 period matrix has zero entries; the stage walk must
        # reproduce them as absent visits
        from iet_lab.cocycles import Renormalizer as RZ

        rz = RZ(periodic7)
        v = (1, -2, 3, 0, 1, -1, 2)
        state = rz.advance(rz.start(StepCocycle.from_vector(v)))
        expect = intmat.mat_vec(intmat.mat_transpose(periodic7.matrix), v)
        got = tuple(state.cocycle.values[a][0] for a in range(7))
        assert got == tuple(expect)


def stepwise_levels(iet, coeffs, den, n):
    """The points (coefficients, position) and letters of n steps of a
    walker, one ``step()`` at a time."""
    wk = ExactWalker(iet, coeffs, den)
    points, positions, letters = [], [], []
    for _ in range(n):
        points.append(tuple(wk.coeffs))
        positions.append(iet.ctx.dot_int(points[-1], iet.lengths.values)
                         / den)
        letters.append(wk.step())
    return points, tuple(positions), tuple(letters)


class TestOneWalkPerLevelSet:
    """The stage and tower levels come from one walk per letter; they are
    ``==`` to the ones of a walk of one ``step()`` per level."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stage_is_the_stepwise_walk(self, request, system):
        p = request.getfixturevalue(system)
        lefts = depth_lattice(p, 1).lefts
        colsums = intmat.column_sums(p.step_matrix)
        for b, (positions, letters) in enumerate(Renormalizer(p)._stage):
            want = stepwise_levels(p.iet, lefts[b], 1, colsums[b])
            assert (positions, letters) == want[1:]

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_tower_levels_are_the_stepwise_walk(self, request, system, n):
        p = request.getfixturevalue(system)
        tw = towers(p, n, with_levels=True)
        lefts = depth_lattice(p, n + 1).lefts
        assert tw.levels == tuple(
            stepwise_levels(p.iet, lefts[a], 1, tw.sub_height)[1]
            for a in range(p.d))

    @pytest.mark.parametrize("den", [1, 1009])
    @pytest.mark.parametrize("n", [1, 57, TOWER_HEIGHT + 3])
    def test_itinerary_points(self, periodic5, den, n):
        lc, wc = depth_interval_coeffs(periodic5, 1, 2)
        start = [den * left + den // 3 * w for left, w in zip(lc, wc)]
        points, _positions, letters = stepwise_levels(periodic5.iet, start,
                                                      den, n)
        wk = ExactWalker(periodic5.iet, start, den)
        assert wk.itinerary(n) == (letters, points)
        oracle = ExactWalker(periodic5.iet, start, den)
        oracle.run(n)
        assert_matches_eager(wk, oracle)

    def test_nesting_checks_stay(self, periodic4, monkeypatch):
        monkeypatch.setattr(cocycles_module, "certified_lattice_sign",
                            lambda iet, coeffs: 1)
        with pytest.raises(NotNormalized, match="crosses"):
            Renormalizer(periodic4)
        monkeypatch.setattr(cocycles_module, "certified_lattice_sign",
                            lambda iet, coeffs: -1)  # every level nests
        itinerary = ExactWalker.itinerary

        def last_letter_swapped(wk, n):  # one visit moved to another letter
            letters, points = itinerary(wk, n)
            return letters[:-1] + ((letters[-1] + 1) % wk.d,), points

        monkeypatch.setattr(ExactWalker, "itinerary", last_letter_swapped)
        with pytest.raises(NotNormalized, match="matrix"):
            Renormalizer(periodic4)


def mpf_step_value(phi, iet, a, x):
    """A step cocycle at x in letter a's interval, the jumps placed by mpf
    tests: a jump counts where left_a < gamma <= x."""
    out = list(phi.values[a])
    for g, j in phi.jumps:
        if iet.left[a] < g <= x:
            out = [v + w for v, w in zip(out, j)]
        elif g > x:
            break
    return tuple(out)


def mpf_sup_norm(phi, iet):
    """``sup_norm`` of a step cocycle, a jump in letter a's interval where
    left_a < gamma < right_a."""
    best = 0
    for a in range(iet.d):
        acc = list(phi.values[a])
        best = max(best, max(abs(v) for v in acc))
        for g, j in phi.jumps:
            if iet.left[a] < g < iet.right[a]:
                acc = [v + w for v, w in zip(acc, j)]
                best = max(best, max(abs(v) for v in acc))
    return best


def mpf_interval_averages(phi, iet):
    """``Renormalizer.interval_averages`` of a step cocycle by the same
    mpf interval test."""
    out = []
    for a in range(iet.d):
        acc = list(phi.values[a])
        for g, j in phi.jumps:
            if iet.left[a] < g < iet.right[a]:
                w = (iet.right[a] - g) / iet.lengths[a]
                acc = [v + x * w for v, x in zip(acc, j)]
        out.append(tuple(acc))
    return out


def mpf_advance(rz, state):
    """``Renormalizer.advance`` of a step state with every placement by
    mpf tests: values by ``mpf_step_value`` and each jump's level by a
    linear scan for p <= gamma < p + |I_b| / rho over the stage."""
    iet, phi = rz.iet, state.cocycle
    costs = intmat.column_sums(intmat.matpow(rz.matrix, state.level))
    values = []
    for positions, alphas in rz._stage:
        acc = [0] * phi.dim
        for p, a in zip(positions, alphas):
            acc = [v + w for v, w in
                   zip(acc, mpf_step_value(phi, iet, a, p))]
        values.append(tuple(acc))
    jumps, steps = [], []
    for (g, j), t in zip(phi.jumps, state.jump_steps):
        b, i, p = next((b, i, p) for b, (positions, _a) in enumerate(rz._stage)
                       for i, p in enumerate(positions)
                       if p <= g < p + iet.lengths[b] / rz.rho)
        jumps.append((iet.left[b] + rz.rho * (g - p), j))
        steps.append(t + sum(costs[a] for a in rz._stage[b][1][:i]))
    order = sorted(range(len(jumps)), key=lambda t: jumps[t][0])
    return RenormState(state.level + 1,
                       StepCocycle(phi.dim, tuple(values),
                                   tuple(jumps[t] for t in order)),
                       tuple(steps[t] for t in order))


def mpf_probe_pieces(phi, periodic, rz, n_max):
    """``essential_value_probe``'s pieces from ``mpf_advance`` states, a
    jump cutting letter a's interval where left_a < gamma < right_a."""
    iet, alpha1 = periodic.iet, periodic.first_letter()
    state = mpf_advance(rz, rz.start(phi))
    pieces = []
    for n in range(n_max + 1):
        sub = intmat.column_sums(intmat.matpow(periodic.step_matrix, n))[alpha1]
        cur, scale = state.cocycle, periodic.step_scale ** (-(n + 1))
        for a in range(periodic.d):
            cuts = [(g, j, t) for (g, j), t in zip(cur.jumps, state.jump_steps)
                    if iet.left[a] < g < iet.right[a]]
            bad = [c for c in cuts if c[2] < sub]
            bounds = [iet.left[a], *(c[0] for c in cuts), iet.right[a]]
            acc = list(cur.values[a])
            for idx, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if idx:
                    acc = [v + w for v, w in zip(acc, cuts[idx - 1][1])]
                pieces.append(TowerPiece(
                    n, a, idx, tuple(acc), (hi - lo) * scale * sub,
                    not any(lo <= c[0] <= hi for c in bad)))
        if n < n_max:
            state = mpf_advance(rz, state)
    return pieces


class TestJumpPlacement:
    """Every jump is placed once, by exact signs (``jumps_by_letter``,
    ``Renormalizer._find_level``); on validated jumps that is ``==`` to
    the mpf interval and level tests it replaced, kept above as oracle."""

    DEPTH = 12

    @pytest.fixture(params=["criterion-6", "step-spec", "near-left-ends"])
    def phi(self, request, ctx, periodic4, gammas):
        iet = periodic4.iet
        values = ((1,), (-1,), (2,), (0,))
        if request.param == "criterion-6":
            jumps = tuple((g, (j,)) for g, j in zip(gammas, (1, 2, -3)))
        elif request.param == "step-spec":
            with open(SPECS / "step_cocycle.json", encoding="utf-8") as fh:
                return zero_mean_version(cocycle_from_json(json.load(fh), ctx),
                                         iet)
        else:  # 2 eps_cmp either side of every interior left end
            eps2 = 2 * ctx.eps_cmp
            jumps = tuple((iet.left[a] + side * eps2, (side * (k + 1),))
                          for k, a in enumerate(iet.order0[1:])
                          for side in (-1, 1))
        return zero_mean_version(StepCocycle(1, values, jumps), iet)

    def test_states_match_the_mpf_rules(self, periodic4, renorm4, phi):
        iet = periodic4.iet
        state = oracle = renorm4.start(phi)
        for _ in range(self.DEPTH):
            state, oracle = renorm4.advance(state), mpf_advance(renorm4, oracle)
            assert state == oracle
            assert sup_norm(state.cocycle, iet) == mpf_sup_norm(oracle.cocycle,
                                                                iet)
            assert renorm4.interval_averages(state) \
                == mpf_interval_averages(oracle.cocycle, iet)
        assert sup_norm(phi, iet) == mpf_sup_norm(phi, iet)

    def test_probe_pieces_match_the_mpf_rules(self, periodic4, renorm4, phi):
        report = essential_value_probe(phi, periodic4, 5, renorm4)
        assert list(report.pieces) == mpf_probe_pieces(phi, periodic4,
                                                       renorm4, 5)

    def test_near_left_ends_sit_either_side(self, ctx, periodic4):
        iet = periodic4.iet
        phi = StepCocycle(1, ((0,),) * 4, tuple(
            (iet.left[a] + side * 2 * ctx.eps_cmp, (1,))
            for a in iet.order0[1:] for side in (-1, 1)))
        held = jumps_by_letter(phi, iet)
        want = [[] for _ in range(4)]
        for k, a in enumerate(iet.order0[1:]):
            want[iet.order0[k]].append(2 * k)
            want[a].append(2 * k + 1)
        assert held == tuple(map(tuple, want))
        for a, ts in enumerate(held):  # a jump counts at its own position
            for k, t in enumerate(ts):
                assert evaluate(phi, iet, phi.jumps[t][0]) == (k + 1,)


def exact_mpf(mp, n, exp):
    """The context real n * 2**exp, exact however many bits n has."""
    with mp.workprec(max(n.bit_length(), 1)):
        return mp.ldexp(mp.mpf(n), exp)


class TestLevelTable:
    """``Renormalizer._levels``: one period's tower levels by exact left
    end, from the stage walk, tiling [0, |I|) with their depth-1 widths."""

    @staticmethod
    def oracle_levels(p):
        """(left, tower, index) of every level, from one ``step()`` per
        level, and the exact level widths per tower."""
        lengths, depth1 = p.iet.lengths, depth_lattice(p, 1)
        levels = [(lengths.int_dot(c), b, i)
                  for b, h in enumerate(p.heights(1))
                  for i, c in enumerate(stepwise_levels(
                      p.iet, depth1.lefts[b], 1, h)[0])]
        return levels, [lengths.int_dot(w) for w in depth1.widths]

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_levels_tile_the_interval(self, request, system):
        p = request.getfixturevalue(system)
        levels, widths = self.oracle_levels(p)
        table = Renormalizer(p)._levels
        assert table == sorted(levels)
        end = 0
        for left, b, _i in table:
            assert left == end
            end = left + widths[b]
        assert end == p.iet.lengths.int_dot(p.iet.lattice.total)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_find_level_is_the_exact_scan(self, request, ctx, system):
        p = request.getfixturevalue(system)
        rz, lengths = Renormalizer(p), p.iet.lengths
        levels, widths = self.oracle_levels(p)
        unit, exp = lengths.fraction(1), lengths.int_form[1]
        for g in kronecker_samples(ctx, 100, p.iet.total, seed=21):
            q = as_fraction(g)
            want, = [(b, i) for left, b, i in levels
                     if left * unit <= q < (left + widths[b]) * unit]
            assert rz._find_level(g) == want
        # each left end, and half a unit of 2**exp left of it: m / 2**(1 - exp)
        for m in sorted(2 * left + d for left, _b, _i in levels
                        for d in (-1, 0) if left):
            want, = [(b, i) for left, b, i in levels
                     if 2 * left <= m < 2 * (left + widths[b])]
            assert rz._find_level(exact_mpf(ctx.mp, m, exp - 1)) == want


class TestReturnTimes:
    def test_identity_at_equal_depths(self, periodic4):
        assert return_time_matrix(periodic4, 3, 3) == intmat.identity(4)

    def test_two_periods(self, periodic4):
        assert return_time_matrix(periodic4, 0, 2) \
            == intmat.matpow(periodic4.matrix, 2)

    def test_one_inverse_power_per_request(self, ctx, monkeypatch):
        # a fresh system: the session fixtures may already hold A^-1
        p = build_periodic_from_matrix(make_symmetric_pair(5), FIVE_MATRIX,
                                       ctx)
        calls = []
        inverse = intmat.inverse_unimodular

        def counted(a):
            calls.append(a)
            return inverse(a)

        monkeypatch.setattr(intmat, "inverse_unimodular", counted)
        depth_total_coeffs(p, 3)
        assert calls == [p.step_matrix]
        for level in range(6):
            ExactWalker.at_depth(p, level, [0] * p.d)
            depth_interval_coeffs(p, level, 2)
            depth_total_coeffs(p, level)
        assert len(calls) == 1

    @pytest.mark.parametrize("system", ["periodic4", "periodic5",
                                        "periodic7"])
    def test_inverse_powers_match_inverted_powers(self, request, system):
        p = request.getfixturevalue(system)
        assert intmat.matmul(p.step_matrix, p.step_inverse) \
            == intmat.identity(p.d)
        for n in range(13):
            assert depth_lattice(p, n) == _lattice(
                p.pair, intmat.inverse_unimodular(
                    intmat.matpow(p.step_matrix, n)))

    @pytest.mark.parametrize("request_at", [
        lambda p, n: depth_lattice(p, n),
        lambda p, n: ExactWalker.at_depth(p, n, [0] * p.d),
        lambda p, n: p.heights(n),
    ], ids=["depth_lattice", "at_depth", "heights"])
    def test_negative_depth_refused(self, periodic4, request_at):
        with pytest.raises(DomainError, match=r"depth must be >= 0, got -1"):
            request_at(periodic4, -1)

    def test_walker_shadow_matches_exchange_at_depth_zero(self, periodic4,
                                                          periodic5,
                                                          periodic7):
        for p in (periodic4, periodic5, periodic7):
            iet = p.iet
            for wk in (ExactWalker(iet, [0] * p.d),
                       ExactWalker.at_depth(p, 0, [0] * p.d)):
                assert wk.mirror is iet.mirror
            assert iet.mirror == lattice_mirror(depth_lattice(p, 0),
                                                iet.lengths, iet.order0)

    def test_column_sums_are_return_times(self, ctx, periodic4):
        # measured first-return times of depth-1 intervals
        thr = depth_total_coeffs(periodic4, 1)
        thr_f = float(1 / periodic4.pf_value)
        q = return_time_matrix(periodic4, 0, 1)
        for b in range(4):
            lc, wc = depth_interval_coeffs(periodic4, 1, b)
            coeffs = [5 * l + 2 * w for l, w in zip(lc, wc)]
            wk = ExactWalker(periodic4.iet, coeffs, 5)
            counts = wk.run_until_below([5 * t for t in thr], thr_f)
            assert sum(counts) == sum(q[i][b] for i in range(4))

    def test_threshold_over_the_walkers_den(self, periodic4):
        # a den-5 walk from the preimage of the depth-1 total lands on it
        # exactly at step 1: no return yet, so it walks on to the first
        # point below it
        p = periodic4
        lam, lat = p.iet.lengths, p.iet.lattice
        thr = depth_total_coeffs(p, 1)
        a, = (a for a in range(4) if exact_dot(lam, lat.image_lefts[a])
              <= exact_dot(lam, thr) < exact_dot(lam, lat.image_lefts[a])
              + exact_dot(lam, lat.widths[a]))
        start = [t - i + left for t, i, left in zip(thr, lat.image_lefts[a],
                                                    lat.lefts[a])]
        wk = ExactWalker(p.iet, [5 * c for c in start], 5)
        counts = wk.run_until_below([5 * t for t in thr],
                                    float(exact_dot(lam, thr)))
        assert (wk.steps, counts) == (27, (14, 7, 1, 5))


class TestGuardRule:
    """The walker escalates exactly where the float lane skips."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("system", ["periodic4", "periodic5", "periodic7"])
    def test_same_decision_at_every_endpoint(self, request, system, depth):
        p = request.getfixturevalue(system)
        wk = ExactWalker.at_depth(p, depth, [0] * p.d)
        mirror = p.iet.mirror if depth == 0 else wk.mirror
        escalations = []
        wk._locate_exact = lambda: escalations.append(wk.x_f) or 0
        g = mirror.guard
        total = mirror.rights[-1]
        for edge in mirror.lefts + (total,):
            for xf in (edge - 2 * g, edge - g / 2, edge, edge + g / 2,
                       edge + 2 * g):
                escalations.clear()
                wk.x_f = xf
                wk.step()
                try:
                    next(float_walk(mirror, xf, 1))
                    skipped = False
                except NearBreakpoint:
                    skipped = True
                assert escalations == ([xf] if skipped else [])
                assert skipped == (abs(xf - edge) < g
                                   or not 0 <= xf < total)


def eager_step(wk):
    """The walker's step with eager coordinates, one step at a time.

    The oracle for ``ExactWalker._walk``: locate and guard on the
    mirror, add den * w[a] to the coefficients at once, resync every
    RESYNC steps; the walker's ``escalations`` and ``resyncs`` count
    exact settles and resyncs.
    """
    m = wk.mirror
    xf = wk.x_f
    slot = bisect_right(m.lefts, xf, 1) - 1
    if xf - m.lefts[slot] < m.guard or m.rights[slot] - xf < m.guard:
        wk.escalations += 1
        slot = wk._locate_exact()
    a = m.letters[slot]
    for j, w in enumerate(wk.w_coeffs[a]):
        wk.coeffs[j] += wk.den * w
    wk.x_f += m.moves[slot]
    wk.counts[a] += 1
    wk.steps += 1
    if wk.steps % wk.RESYNC == 0:
        wk.resyncs += 1
        wk.x_f = wk._exact_float()
    return a


def eager_until_below(wk, threshold_coeffs):
    """``run_until_below`` over ``eager_step``, its band around the
    threshold's exact float."""
    guard = wk.mirror.guard
    lam = wk.lengths
    threshold_f = lam.exact_float(lam.int_dot(threshold_coeffs), wk.den)
    while True:
        eager_step(wk)
        if wk.x_f < threshold_f - guard:
            break
        if wk.x_f < threshold_f + guard:
            wk.escalations += 1
            diff = [t - c for c, t in zip(wk.coeffs, threshold_coeffs)]
            if certified_lattice_sign(wk.lengths, diff) > 0:
                break
    return tuple(wk.counts)


def walker_state(wk):
    """The exact fields of a walker, which every walk path keeps ``==``."""
    return tuple(wk.coeffs), wk.den, wk.counts, wk.steps, wk.escalations


def assert_shadow(wk):
    """Every walk ends its last move with a resync: between walks the float
    shadow is the exact position rounded once."""
    assert wk.x_f == wk._exact_float()


def assert_matches_eager(wk, oracle):
    """The exact fields ``==`` the eager per-step walk's, the shadow near
    the exact position."""
    assert walker_state(wk) == walker_state(oracle)
    assert_shadow(wk)


@pytest.fixture
def shadow_stretches(monkeypatch):
    """Per walker (by id), the steps its float shadow took one by one
    (``shadow_step`` calls) between resets to the exact position
    (``_exact_float``: a move's resync or an exact settle); a
    new walker's shadow starts exact."""
    stretches, walking = {}, []
    walk, reset = ExactWalker._walk, ExactWalker._exact_float
    chunk = cocycles_module.shadow_step

    def walked(wk, *args):
        walking.append(wk)
        try:
            return walk(wk, *args)
        finally:
            walking.pop()

    def resynced(wk):
        stretches.setdefault(id(wk), [0]).append(0)
        return reset(wk)

    def chunked(*args, **kwargs):
        out = chunk(*args, **kwargs)
        if walking:  # not the float lane's
            stretches.setdefault(id(walking[-1]), [0])[-1] += out[0]
        return out

    monkeypatch.setattr(ExactWalker, "_walk", walked)
    monkeypatch.setattr(ExactWalker, "_exact_float", resynced)
    monkeypatch.setattr(cocycles_module, "shadow_step", chunked)
    return stretches


def assert_resynced(wk, stretches):
    """No stretch of per-step float shadow between two resets of the
    walker's shadow is longer than RESYNC steps."""
    assert max(stretches.get(id(wk), [0])) <= ExactWalker.RESYNC


def lattice_float(p, coeffs):
    return float(p.iet.ctx.dot_int(coeffs, p.iet.lengths.values))


def fresh_mirror(p, depth, table):
    """A new mirror of the depth-``depth`` exchange, its tower table built
    (``"built"``) or not (``"none"``): at depth 0 walkers share
    ``Iet.mirror``, whose table an earlier walk may have built."""
    mirror = lattice_mirror(depth_lattice(p, depth), p.iet.lengths,
                            p.iet.order0)
    if table == "built":
        mirror.tower_table
    return mirror


class TestLazyWalker:
    """Folded coordinates equal the eager per-step walk at every step."""

    @staticmethod
    def pair(p, depth, start):
        """Two walkers, oracle and lazy, from one lattice point.

        ``"left"`` is an exact left endpoint, settled exactly at step 0;
        ``"preimage"`` is the preimage of one, so the first escalation
        comes at step 1 with a visit still unfolded.
        """
        lat = depth_lattice(p, depth)
        coeffs = lat.lefts[1]
        if start == "preimage":
            def at(v):
                return lattice_float(p, v)

            margin = 1e-6 * at(lat.total)
            coeffs = next(
                [y - i + x for y, i, x in zip(lat.lefts[b], lat.image_lefts[a],
                                              lat.lefts[a])]
                for b in range(1, p.d) for a in range(p.d)
                if at(lat.image_lefts[a]) + margin < at(lat.lefts[b])
                < at(lat.image_lefts[a]) + at(lat.widths[a]) - margin)
        return [ExactWalker.at_depth(p, depth, coeffs) for _ in range(2)]

    @pytest.mark.parametrize("start", ["left", "preimage"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("system", ["periodic4", "periodic5", "periodic7"])
    def test_every_step_across_resyncs(self, request, shadow_stretches, system,
                                       depth, start):
        p = request.getfixturevalue(system)
        oracle, wk = self.pair(p, depth, start)
        for _ in range(2 * ExactWalker.RESYNC + 100):
            assert wk.step() == eager_step(oracle)
            assert_matches_eager(wk, oracle)
        # both starts meet a left endpoint exactly; two resyncs were crossed
        assert wk.escalations >= 1
        assert wk.resyncs >= 2
        assert_resynced(wk, shadow_stretches)

    @pytest.mark.parametrize("start", ["left", "preimage"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("system", ["periodic4", "periodic5", "periodic7"])
    def test_runs_across_resyncs(self, request, shadow_stretches, system, depth,
                                 start):
        p = request.getfixturevalue(system)
        oracle, wk = self.pair(p, depth, start)
        resync = ExactWalker.RESYNC
        for n in (0, 1, resync - 2, 3, 7, resync, 2 * resync):
            for _ in range(n):
                eager_step(oracle)
            assert wk.run(n) == tuple(oracle.counts)
            assert_matches_eager(wk, oracle)
        assert wk.escalations >= 1
        assert wk.resyncs >= 4
        assert_resynced(wk, shadow_stretches)
        wk.counts = [0] * p.d  # callers may reset the counts between runs
        oracle.counts = [0] * p.d
        for _ in range(50):
            eager_step(oracle)
        assert wk.run(50) == tuple(oracle.counts)
        assert_matches_eager(wk, oracle)

    @pytest.mark.parametrize("start", ["left", "preimage"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("system", ["periodic4", "periodic5", "periodic7"])
    def test_threshold_in_guard_band(self, request, system, depth, start):
        # the threshold is the exact position at the lowest of the first
        # RESYNC steps: that step lands in the guard band, its exact sign
        # is 0 (a boundary hit, so the walk goes on), and the walk stops
        # at the next dip, after a resync; on a mirror with and without
        # a tower table
        p = request.getfixturevalue(system)
        probe = self.pair(p, depth, start)[0]
        low = math.inf
        for _ in range(ExactWalker.RESYNC):
            probe.step()
            if probe.x_f < low:
                low, threshold, k = probe.x_f, list(probe.coeffs), probe.steps
        for table in ("none", "built"):
            oracle, wk = self.pair(p, depth, start)
            wk.mirror = fresh_mirror(p, depth, table)
            expected = eager_until_below(oracle, threshold)
            assert wk.run_until_below(threshold, low) == expected
            assert_matches_eager(wk, oracle)
            assert wk.steps > ExactWalker.RESYNC > k
            assert wk.escalations >= 2
            assert wk.resyncs >= 1

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("system", ["periodic4", "periodic5", "periodic7"])
    def test_stop_inside_guard_band(self, request, system, depth):
        # the walk starts delta below the image of a left endpoint, whose
        # orbit meets no breakpoint; the threshold is that orbit's lowest
        # point in 2 * RESYNC steps, so at that step the walk is delta
        # below the threshold, inside the guard band, and only the exact
        # sign of the folded position stops it there; on a mirror with and
        # without a tower table
        p = request.getfixturevalue(system)
        lat = depth_lattice(p, depth)
        c0 = next(v for v in lat.image_lefts
                  if all(abs(lattice_float(p, v) - lattice_float(p, left))
                         > 1e-6 * lattice_float(p, lat.total)
                         for left in lat.lefts))
        probe = ExactWalker.at_depth(p, depth, c0)
        low = math.inf
        for _ in range(2 * ExactWalker.RESYNC):
            probe.step()
            if probe.x_f < low:
                low, threshold, k = probe.x_f, list(probe.coeffs), probe.steps
        den = 2 ** 40
        start = [den * c - w for c, w in zip(c0, lat.widths[0])]
        threshold = [den * t for t in threshold]
        for table in ("none", "built"):
            oracle, wk = (ExactWalker.at_depth(p, depth, start, den)
                          for _ in range(2))
            wk.mirror = fresh_mirror(p, depth, table)
            assert 0 < lattice_float(p, lat.widths[0]) / den < wk.mirror.guard
            expected = eager_until_below(oracle, threshold)
            assert wk.run_until_below(threshold, low) == expected
            assert_matches_eager(wk, oracle)
            assert wk.steps == k
            assert wk.escalations >= 1

    @pytest.mark.parametrize("system, n", [
        ("periodic4", 11), ("periodic4", 12), ("periodic4", 13),
        ("periodic5", 8)])
    def test_scale_threshold_float_refused(self, request, system, n):
        """rho^-(n+1), the float callers once took for the depth-(n+1)
        total, is 2.0, 1.1e3 and 6.3e5 guards off the total's exact float
        at 4-letter depths n = 11-13 and 255 guards off at 5-letter n = 8,
        where the climb from letter 1's left end took it for wrong counts
        without an escalation: it is refused, and the exact float gives
        the eager walk's counts, the columns of the period matrix, from
        the left ends and from inner points."""
        p = request.getfixturevalue(system)
        lam = p.iet.lengths
        up = depth_lattice(p, n + 1)
        for den, num in ((1, 0), (1009, 500)):
            thr = [den * t for t in up.total]
            exact = lam.exact_float(lam.int_dot(thr), den)
            for b in range(p.d):
                start = [den * left + num * w
                         for left, w in zip(up.lefts[b], up.widths[b])]
                oracle, wk = (ExactWalker.at_depth(p, n, start, den)
                              for _ in range(2))
                with pytest.raises(DomainError, match="threshold float"):
                    wk.run_until_below(thr, float(p.step_scale ** -(n + 1)))
                assert wk.steps == 0
                assert wk.run_until_below(thr, exact) == eager_until_below(
                    oracle, thr)
                assert_matches_eager(wk, oracle)
                assert wk.counts == [row[b] for row in p.step_matrix]

    def test_den_and_inner_starts(self, periodic5):
        thr = depth_total_coeffs(periodic5, 2)
        thr_f = float(periodic5.pf_value ** -2)
        for den in (3, 1009, 2 ** 20 + 7):
            lc, wc = depth_interval_coeffs(periodic5, 2, 1)
            coeffs = [den * l + (den // 3) * w for l, w in zip(lc, wc)]
            oracle, wk = (ExactWalker.at_depth(periodic5, 1, coeffs, den)
                          for _ in range(2))
            scaled = [den * t for t in thr]
            expected = eager_until_below(oracle, scaled)
            assert wk.run_until_below(scaled, thr_f) == expected
            assert_matches_eager(wk, oracle)


class TestTowers:
    def test_heights_are_column_sums(self, periodic4):
        tw = towers(periodic4, 2)
        a2 = intmat.matpow(periodic4.matrix, 2)
        assert tw.heights == intmat.column_sums(a2)
        a3 = intmat.matpow(periodic4.matrix, 3)
        assert tw.climb_heights == intmat.column_sums(a3)

    def test_levels_disjoint_small(self, ctx, periodic4):
        tw = towers(periodic4, 1, with_levels=True)
        spans = []
        for a in range(4):
            for start in tw.levels[a]:
                spans.append((start, start + tw.base_width[a]))
        spans.sort(key=lambda s: s[0])
        for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
            assert r1 <= l2 + ctx.eps_cmp

    def test_value_identity_integer(self, ctx, periodic4):
        # climb sums of an integer step cocycle over tower points
        v = (2, -1, 0, -1)
        n = 1
        tw = towers(periodic4, n, with_levels=True)
        an1 = intmat.matpow(periodic4.matrix, n + 1)
        expect = intmat.mat_vec(intmat.mat_transpose(an1), v)
        iet = periodic4.iet
        for a in range(4):
            h = tw.climb_heights[a]
            for i in (0, len(tw.levels[a]) // 2, len(tw.levels[a]) - 1):
                x = tw.levels[a][i] + tw.base_width[a] / 7
                counts = birkhoff_visit_counts(iet, x, h)
                value = sum(c * vv for c, vv in zip(counts, v))
                assert value == expect[a]

    def test_minimax_heights(self, periodic4):
        from iet_lab.spectral import nu_ratio

        nu = nu_ratio(intmat.matpow(periodic4.matrix,
                                    periodic4.positive_power))
        rho = float(periodic4.pf_value)
        for n in range(1, 7):
            heights = intmat.column_sums(intmat.matpow(periodic4.matrix, n))
            h_min, h_max = min(heights), max(heights)
            c = 4.0  # single constant for the tested range
            assert h_max <= c * rho ** n
            assert h_min >= rho ** n / (c * float(nu))

    def test_measures_positive(self, periodic4):
        tw = towers(periodic4, 3)
        assert all(float(m) > 0 for m in tw.measures)


class TestPartitions:
    def test_first_partition(self, periodic4):
        rep = partition_pn(periodic4.iet, 1)
        assert len(rep.breakpoints) == 4

    def test_breakpoint_count(self, periodic4):
        # (d-1) * n + 1 breakpoints for a Keane exchange
        for n in range(1, 201):
            rep = partition_pn(periodic4.iet, n)
            assert len(rep.breakpoints) == 3 * n + 1

    def test_iterate_translates_on_gaps(self, periodic4):
        rep = partition_pn(periodic4.iet, 25, verify_samples=10)
        assert rep.translation_verified

    def test_golden_rotation_three_gaps(self, ctx):
        phi = (ctx.mp.sqrt(5) - 1) / 2
        iet = Iet(make_symmetric_pair(2), ctx.vector([phi, 1 - phi]))
        for n in (12, 30, 47):
            rep = partition_pn(iet, n)
            gaps = [b - a for a, b in zip(rep.breakpoints,
                                          rep.breakpoints[1:])]
            gaps.append(iet.total - rep.breakpoints[-1])
            distinct = []
            for g in sorted(gaps):
                if not distinct or g - distinct[-1] > ctx.eps_cmp * 8:
                    distinct.append(g)
            assert len(distinct) <= 3

    def test_three_distance_oracle_agrees(self, ctx):
        # independent check on the dyadic grid
        from iet_lab.rotations import three_distance_gaps

        assert len(three_distance_gaps(0.6180339887498949, 34)) <= 3

    def test_gap_statistics_single_constant(self, periodic4):
        stats = gap_statistics(periodic4.iet, 400)
        c = max(max(n * hi, 1.0 / (n * lo)) for n, lo, hi in stats)
        assert c < 100


def m_index_bruteforce(periodic, x, n) -> int:
    """Definitional scan: count visits to each induction interval."""
    walker = ExactWalker.from_point(periodic.iet, x)
    pts = walker.positions(n)[1]
    m = 0
    while True:
        bound = walker.lengths.ceil_num(periodic.pf_value ** -(m + 1))
        if sum(1 for p in pts if p < bound) >= 2:
            m += 1
        else:
            return m


class TestMIndex:
    def test_brute_force_agreement(self, ctx, periodic4):
        for seed in range(4):
            x = kronecker_samples(ctx, 1, periodic4.iet.total, seed=seed)[0]
            for n in (10, 100, 1000):
                rep = m_index(periodic4, x, n)
                assert rep.m == m_index_bruteforce(periodic4, x, n)
                assert rep.sandwich_holds

    def test_small_n_gives_depth_zero(self, ctx, periodic4):
        # below the first return time only the ambient interval recurs
        x = kronecker_samples(ctx, 1, periodic4.iet.total, seed=2)[0]
        first_return = min(intmat.column_sums(periodic4.matrix))
        for n in (1, 3, first_return // 2):
            rep = m_index(periodic4, x, n)
            assert rep.m == 0
            assert rep.sandwich_holds

    def test_log_bound(self, ctx, periodic4):
        from iet_lab.spectral import nu_ratio

        x = kronecker_samples(ctx, 1, periodic4.iet.total, seed=9)[0]
        nu = float(nu_ratio(intmat.matpow(periodic4.matrix, 2)))
        c_bound = 8.0
        mp = ctx.mp
        for n in (50, 500, 5000):
            rep = m_index(periodic4, x, n)
            bound = float(mp.log(c_bound * nu * n) / mp.log(periodic4.pf_value))
            assert rep.m <= bound


class TestDeviationSweep:
    def test_nonzero_mean_linear_growth(self, ctx, periodic4):
        phi = StepCocycle.from_vector((1, 1, 1, 1))  # mean 1, sums = n
        prof = deviation_sweep(periodic4.iet, [phi], 2000, samples=3, seed=1,
                               log_power=0)
        assert abs(prof.fitted_exponent[0] - 1.0) < 0.05

    def test_coboundary_bounded(self, ctx, periodic4, splitting4):
        v = tuple(splitting4.basis_s[0])
        prof = deviation_sweep(periodic4.iet, [StepCocycle.from_vector(v)],
                               20000, samples=4, seed=2, log_power=0)
        assert prof.fitted_exponent[0] < 0.05
        env = prof.envelope[0]
        assert env[-1] < 10 * float(max(abs(x) for x in v))

    def test_shared_sweep_matches_single_sweeps(self, ctx, periodic4):
        # the jumps of one cocycle guard the shared orbit of all of them,
        # so the equality needs starts clear of every guard band
        iet = periodic4.iet
        r = ctx.real
        pl = zero_mean_version(PiecewiseLinearCocycle.constant_slope(
            (r("0.7"), r("-0.4")),
            tuple((r(a), r(b)) for a, b in
                  (("0.3", "0.1"), ("-0.4", "0"), ("0.25", "-0.2"),
                   ("-0.15", "0.1")))), iet)
        one_jump = StepCocycle(1, ((1,), (-1,), (2,), (r("-0.5"),)),
                               ((r("0.21"), (r("1.5"),)),))
        two_jumps = StepCocycle(2, ((1, 0), (0, 1), (-1, 2), (3, -1)),
                                ((r("0.6"), (2, -1)), (r("0.9"), (-3, 1))))
        cocycles = [pl, one_jump, two_jumps]
        together = deviation_sweep(iet, cocycles, 5000, samples=5, seed=6)
        assert (together.aborted_samples, together.sample_count) == (0, 5)
        for k, phi in enumerate(cocycles):
            alone = deviation_sweep(iet, [phi], 5000, samples=5, seed=6)
            assert alone.aborted_samples == 0
            assert alone.pointwise[0] == together.pointwise[k]
            assert alone.envelope[0] == together.envelope[k]
            assert alone.corrected_exponent[0] == together.corrected_exponent[k]


def sweep_value(table, counts, possum, cross) -> float:
    """One checkpoint's sup over coordinates of |cocycle sum|, summed
    letter by letter, then jump by jump, in Python floats."""
    best = 0.0
    for i in range(table.dim):
        s = 0.0
        vi = table.values[i]
        if table.constants is None:
            for a in range(len(counts)):
                s += vi[a] * counts[a]
            for ji, (_slot, _gf, j) in enumerate(table.jumps):
                s += j[i] * cross[ji]
        else:
            ci = table.constants[i]
            for a in range(len(counts)):
                s += vi[a] * possum[a] + ci[a] * counts[a]
        best = max(best, abs(s))
    return best


def sweep_oracle(args, step_walk):
    """Per-step ``_sweep_one_sample``: counts, position sums and crossings
    updated one orbit step at a time, read at each checkpoint."""
    x0f, mirror, tables, checkpoints = args
    counts = [0] * len(mirror.lefts)
    possum = [0.0] * len(mirror.lefts)
    cross = [[0] * len(t.jumps) for t in tables]
    slot_jumps = [[] for _ in mirror.lefts]
    for ci, table in enumerate(tables):
        for ji, (slot, gf, _j) in enumerate(table.jumps):
            slot_jumps[slot].append((cross[ci], ji, gf))
    local_sup = [[0.0] * len(checkpoints) for _ in tables]
    walk = step_walk(mirror, x0f, checkpoints[-1], tables)
    done = 0
    try:
        for t, n in enumerate(checkpoints):
            for lo, xf in islice(walk, n - done):
                counts[lo] += 1
                possum[lo] += xf
                for crossed, ji, gf in slot_jumps[lo]:
                    if xf >= gf:
                        crossed[ji] += 1
            done = n
            for ci, table in enumerate(tables):
                local_sup[ci][t] = sweep_value(table, counts, possum,
                                               cross[ci])
    except NearBreakpoint:
        return False, local_sup
    return True, local_sup


class TestBlockWalk:
    """``float_walk`` chunks are the per-step walk, cut where the buffer is
    full; stops only take the visit counts."""

    @pytest.mark.parametrize("n", [1, 100, QUARTER - 1, QUARTER, QUARTER + 1,
                                   2 * QUARTER + 5, FLOAT_BLOCK - 1,
                                   FLOAT_BLOCK, FLOAT_BLOCK + 1])
    def test_blocks_concatenate_to_step_walk(self, ctx, periodic4, step_walk,
                                             lane_cocycles4, n):
        iet = periodic4.iet
        mirror = iet.mirror
        tables = [float_table(phi, iet) for phi in lane_cocycles4.values()]
        x0 = float(kronecker_samples(ctx, 1, iet.total, 5)[0])
        got, sizes = [], []
        for sl, xs in float_walk(mirror, x0, n, tables):  # reused buffers
            got += zip(sl.tolist(), xs.tolist())
            sizes.append(len(xs))
        assert got == list(step_walk(mirror, x0, n, tables))
        assert_chunk_ends(got, sizes, n)

    @pytest.mark.parametrize("stops", [
        (1, 2, 3, 1000, 5000),
        (TOWER_HEIGHT, QUARTER, QUARTER + 1, 2 * QUARTER)])
    def test_counts_at_stops(self, ctx, periodic4, step_walk, stops,
                             monkeypatch):
        """Stops do not cut the chunks (of QUARTER steps here): the walk
        writes the visit counts before each stop, and looks a climb up
        only at the start, every later climb being a guess that its
        batch's check certifies."""
        mirror = periodic4.iet.mirror
        lookups, checks = [], []
        span = shadow_module.TowerTable.span
        monkeypatch.setattr(shadow_module.TowerTable, "span",
                            lambda t, x: lookups.append(x) or span(t, x))
        spy_certified(monkeypatch, checks)
        n = 3 * QUARTER + 7
        x0 = float(kronecker_samples(ctx, 1, periodic4.iet.total, 5)[0])
        counts = np.full((len(stops), periodic4.d), -1, np.int64)
        buffers = np.empty(QUARTER, np.intp), np.empty(QUARTER + 1)
        got, sizes = [], []
        for sl, xs in float_walk(mirror, x0, n, (), stops, *buffers, counts):
            got += zip(sl.tolist(), xs.tolist())
            sizes.append(len(xs))
        assert got == list(step_walk(mirror, x0, n))
        assert_chunk_ends(got, sizes, n, QUARTER)
        assert lookups == [x0]
        assert len(checks) == len(sizes)  # one batch per chunk
        assert all(kept == climbs for climbs, kept in checks)
        assert counts.tolist() == prefix_visits(got, stops, periodic4.d)

    def test_guard_hit_reports_its_step(self, periodic4, step_walk,
                                        guard_hit_starts):
        mirror = periodic4.iet.mirror
        assert FLOAT_BLOCK in guard_hit_starts
        for k, x0 in guard_hit_starts.items():
            for walk in (float_walk, step_walk):
                with pytest.raises(NearBreakpoint) as hit:
                    for _ in walk(mirror, float(x0), 3 * FLOAT_BLOCK):
                        pass
                assert hit.value.step_index == k


def block_trace(mirror, x0, n, tables=(), block=FLOAT_BLOCK):
    """``float_walk``'s chunks of at most ``block`` steps as (slot, x)
    steps, the chunk sizes and the guard hit's step index (None without
    one)."""
    buffers = np.empty(block, np.intp), np.empty(block + 1)
    steps, sizes = [], []
    try:
        for sl, xs in float_walk(mirror, x0, n, tables, (), *buffers):
            sizes.append(len(xs))
            steps += zip(sl.tolist(), xs.tolist())
    except NearBreakpoint as hit:
        return steps, sizes, hit.step_index
    return steps, sizes, None


def spy_certified(patch, checks):
    """Record each batch certificate check as (climbs checked, climbs
    certified)."""
    certified = shadow_module._certified

    def spied(table, xs, at, starts):
        kept = certified(table, xs, at, starts)
        checks.append((len(at), kept))
        return kept

    patch.setattr(shadow_module, "_certified", spied)


def prefix_visits(steps, stops, d):
    """The visit counts of the (slot, x) ``steps`` before each stop."""
    slots = np.array([slot for slot, _x in steps], np.intp)
    return [np.bincount(slots[:stop], minlength=d).tolist()
            for stop in stops]


def assert_chunk_ends(steps, sizes, n, block=FLOAT_BLOCK):
    """The chunks of the (slot, x) ``steps`` hold 1 to ``block`` steps
    each and end at step n or full."""
    assert sum(sizes) == len(steps)
    edge = 0
    for size in sizes:
        assert 0 < size <= block
        edge += size
        assert edge == n or size == block


def assert_same_walk(step_walk, mirror, x0, n, tables=(), block=FLOAT_BLOCK):
    """``float_walk`` in chunks of at most ``block`` steps is the per-step
    walk, cut into chunks by ``assert_chunk_ends``, up to the chunk with a
    guard hit; returns the hit's step."""
    got, sizes, hit = block_trace(mirror, x0, n, tables, block)
    want = []
    try:
        for step in step_walk(mirror, x0, n, tables):
            want.append(step)
        want_hit = None
    except NearBreakpoint as oracle_hit:
        want_hit = oracle_hit.step_index
    assert hit == want_hit
    done = sum(sizes)
    assert got == want[:done]
    assert_chunk_ends(got, sizes, n, block)
    if hit is None:
        assert done == n
    else:
        assert done <= hit < done + block
    return hit


def climb_word(table, x):
    """(word, sure): the slots ``TowerTable.span`` predicts for x, and
    whether its bounds certify them."""
    start, end, sure = table.span(x)
    return table.words[start:end], sure


def float_preimages(mirror, x, n):
    """[x, T^-1 x, ..., T^-n x] by the float inverse of the mirror's map."""
    image = sorted((left + move, move)
                   for left, move in zip(mirror.lefts, mirror.moves))
    image_lefts = [left for left, _move in image]
    out = [x]
    for _ in range(n):
        x -= image[bisect_right(image_lefts, x, 1) - 1][1]
        out.append(x)
    return out


def corrupt_table(table, how):
    """A tower table that mispredicts: every level moved right by half its
    width, or the one word array reversed (each word reversed, and the
    words misaligned with their ends)."""
    if how == "shifted-levels":
        widths = np.array([b - a for a, b in table.bases])
        towers = np.searchsorted(table.ends, table.starts, "right")
        return replace(table, lefts=table.lefts + widths[towers] / 2)
    return replace(table, words=table.words[::-1])


def tower_words(table):
    """Each tower's word, cut from the table's one word array."""
    return np.split(table.words, table.ends[:-1])


class TestTowerWalk:
    """The tower-predicted walk is the per-step walk, ``==``, whatever its
    tower table predicts."""

    @pytest.mark.parametrize("n", [TOWER_HEIGHT, TOWER_HEIGHT + 1,
                                   QUARTER - 1, QUARTER, QUARTER + 1,
                                   3 * QUARTER + 7, FLOAT_BLOCK,
                                   FLOAT_BLOCK + 1])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_matches_step_walk(self, request, ctx, step_walk, lane_cocycles4,
                               system, n):
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        tables = [float_table(phi, p.iet) for phi in lane_cocycles4.values()
                  ] if p.d == 4 else []
        if n >= FLOAT_BLOCK - 1:  # longer than a climb: crosses returns
            assert max(map(len, tower_words(mirror.tower_table))) < n
        for x0 in kronecker_samples(ctx, 3, p.iet.total, 9):
            assert assert_same_walk(step_walk, mirror, float(x0), n,
                                    tables) is None

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_guard_hits(self, request, ctx, step_walk, system):
        """Half a guard width either side of every interior left end, of
        a jump mark in J and of one mid-interval, reached at step 0,
        mid-chunk, at the edges of chunks of QUARTER steps and after a
        tower return (for the mark in J: on a return)."""
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        g, top = mirror.guard, mirror.tower_table.top
        marks = (top / 3, (mirror.lefts[1] + mirror.rights[1]) / 2)
        phi = StepCocycle(1, ((0,),) * p.d,
                          tuple((ctx.real(m), (1,)) for m in marks))
        tables = [float_table(phi, p.iet)]
        targets = [edge + side for edge in mirror.lefts[1:]
                   for side in (-g / 2, g / 2)]
        targets += [m + side for m in marks for side in (-g / 2, g / 2)]
        for target in targets:
            back = float_preimages(mirror, target, 2 * QUARTER)
            returns = [i for i, x in enumerate(back) if i and 0.0 <= x < top]
            for k in (0, 5000, QUARTER - 1, QUARTER, QUARTER + 1,
                      returns[1]):
                assert assert_same_walk(step_walk, mirror, back[k],
                                        3 * QUARTER, tables, QUARTER) == k

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words"])
    def test_corrupt_table_changes_nothing(self, ctx, periodic4, step_walk,
                                           lane_cocycles4, guard_hit_starts,
                                           corrupt, monkeypatch):
        iet = periodic4.iet
        mirror = iet.mirror
        table = mirror.tower_table
        bad = corrupt_table(table, corrupt)
        # the cached property's slot, on the exchange's one mirror
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        tables = [float_table(phi, iet) for phi in lane_cocycles4.values()]
        for x0 in kronecker_samples(ctx, 2, iet.total, 9):
            assert assert_same_walk(step_walk, mirror, float(x0),
                                    FLOAT_BLOCK + 1, tables) is None
            steps = list(step_walk(mirror, float(x0), FLOAT_BLOCK + 1))
            climbs = [float(x0)] + [x for _slot, x in steps[1:]
                                    if 0.0 <= x < table.top]
            assert any(not np.array_equal(climb_word(bad, x)[0],
                                          climb_word(table, x)[0])
                       for x in climbs)  # the corruption mispredicts
        x0 = float(guard_hit_starts[FLOAT_BLOCK])
        assert assert_same_walk(step_walk, mirror, x0, 2 * FLOAT_BLOCK,
                                tables) == FLOAT_BLOCK

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words"])
    def test_mispredicted_climbs_are_looked_up_once(self, ctx, periodic4,
                                                    step_walk, corrupt,
                                                    monkeypatch):
        """After a corrupt table's climb fails, the walk goes on by scalar
        steps back to J: it looks a climb up at most once per return to
        J, chunk and start, not again after every failed step (which
        costs the rest of the word's moves each time)."""
        iet = periodic4.iet
        mirror = iet.mirror
        bad = corrupt_table(mirror.tower_table, corrupt)
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        span = shadow_module.TowerTable.span
        lookups = []
        monkeypatch.setattr(shadow_module.TowerTable, "span",
                            lambda t, x: lookups.append(x) or span(t, x))
        n = FLOAT_BLOCK + 1
        for x0 in kronecker_samples(ctx, 2, iet.total, 9):
            lookups.clear()
            assert assert_same_walk(step_walk, mirror, float(x0), n) is None
            returns = sum(0.0 <= x < bad.top
                          for _slot, x in step_walk(mirror, float(x0), n))
            assert 0 < len(lookups) <= returns + 3

    @pytest.mark.parametrize("pi0, pi1, lengths", [
        ([1, 2], [2, 1], ("0.25", "0.75")),
        ([1, 2, 3], [1, 3, 2], ("0.3", "0.3", "0.4")),
    ], ids=["rational-rotation", "reducible"])
    def test_non_minimal_exchange(self, ctx, step_walk, pi0, pi1, lengths):
        iet = Iet(make_pair(pi0, pi1), ctx.vector(map(ctx.real, lengths)))
        mirror = iet.mirror
        table = mirror.tower_table  # the build ends
        covered = sum(len(w) * (b - a)
                      for (a, b), w in zip(table.bases, tower_words(table)))
        assert covered < mirror.rights[-1] / 2  # no tower over most points
        for x0 in kronecker_samples(ctx, 3, iet.total, 0):
            assert assert_same_walk(step_walk, mirror, float(x0),
                                    2 * FLOAT_BLOCK + 5) is None

    def test_criterion5_starts_never_fall_back(self, ctx, periodic4,
                                               lane_cocycles4, monkeypatch):
        """Every climb of criterion 5's 6 x 10^6 steps is predicted by a
        tower, and no climb is cut at a fixed block edge: a sample's
        sweep looks up at most once per tower return, checkpoint and
        start.  A silent slowdown to walked words or to cut climbs fails
        here."""
        iet = periodic4.iet
        mirror = iet.mirror
        table = mirror.tower_table
        assert len(table.words)  # the build walks its own words
        walked = shadow_module._scalar_walk
        span = shadow_module.TowerTable.span
        calls, lookups = [], []
        monkeypatch.setattr(shadow_module, "_scalar_walk",
                            lambda *args: calls.append(args[2])
                            or walked(*args))
        monkeypatch.setattr(shadow_module.TowerTable, "span",
                            lambda t, x: lookups.append(x) or span(t, x))
        n = 10 ** 6
        checkpoints = geometric_checkpoints(n, CHECKPOINT_RATIO)
        tables = [float_table(lane_cocycles4["pl"], iet)]
        for x0 in kronecker_samples(ctx, 6, iet.total, 3):
            lookups.clear()
            args = (float(x0), mirror, tables, checkpoints)
            assert cocycles_module._sweep_one_sample(args)[0]
            sample_lookups = len(lookups)
            returns = -int(0.0 <= float(x0) < table.top)  # steps 1..n-1
            for _sl, xs in float_walk(mirror, float(x0), n):
                returns += np.count_nonzero((xs >= 0.0) & (xs < table.top))
            assert sample_lookups <= returns + len(checkpoints) + 1
        assert calls == []

    def test_criterion5_climbs_are_certified(self, ctx, periodic4,
                                             monkeypatch):
        """No climb of criterion 5's 6 x 10^6 steps falls back to the
        per-step check: every batch's check certifies every climb it
        holds, one batch or more per chunk.  A silent loss of the
        certificate fails here."""
        iet = periodic4.iet
        checks = []
        spy_certified(monkeypatch, checks)
        chunks = 0
        for x0 in kronecker_samples(ctx, 6, iet.total, 3):
            for _chunk in float_walk(iet.mirror, float(x0), 10 ** 6):
                chunks += 1
        assert chunks == 6 * -(-10 ** 6 // FLOAT_BLOCK)
        assert len(checks) >= chunks
        assert all(kept == climbs for climbs, kept in checks)

    def test_criterion5_never_steps(self, ctx, periodic4, lane_cocycles4,
                                    monkeypatch):
        """Criterion 5's six starts walk and sweep by batches alone: the
        one-climb step is never called."""
        iet = periodic4.iet
        calls = []
        step = cocycles_module.shadow_step
        monkeypatch.setattr(cocycles_module, "shadow_step",
                            lambda *args: calls.append(args[1])
                            or step(*args))
        n = 10 ** 6
        checkpoints = geometric_checkpoints(n, CHECKPOINT_RATIO)
        tables = [float_table(lane_cocycles4["pl"], iet)]
        for x0 in kronecker_samples(ctx, 6, iet.total, 3):
            args = (float(x0), iet.mirror, tables, checkpoints)
            assert cocycles_module._sweep_one_sample(args)[0]
        assert calls == []


class TestTowerTable:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_kac_identity(self, request, system):
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        table = mirror.tower_table
        total = mirror.rights[-1]
        covered = math.fsum(len(w) * (b - a) for (a, b), w in
                            zip(table.bases, tower_words(table)))
        assert abs(covered - total) <= 1e-12 * total
        assert len(table.lefts) == len(table.words) == table.ends[-1]
        assert np.all(np.diff(table.lefts) > 0)
        # each level's rest of word starts at its own index: a permutation
        assert np.array_equal(np.sort(table.starts),
                              np.arange(len(table.lefts)))
        # a level costs a float64 left end, an int32 start and a uint8 slot
        assert (table.lefts.dtype, table.starts.dtype, table.words.dtype) == \
            (np.float64, np.int32, np.uint8)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_per_word_tables(self, request, system):
        """Each word position's move is its slot's, and differences of the
        prefix counts are the visits of every tower word and of partial
        climbs; a level costs 37 + 4 d bytes with the bounds."""
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        table = mirror.tower_table
        moves, counts = table.word_moves, table.word_counts
        assert np.array_equal(moves, np.array(mirror.moves)[table.words])
        assert (moves.dtype, counts.dtype) == (np.float64, np.int32)
        levels = len(table.words)
        assert counts.shape == (levels + 1, p.d)
        assert not counts[0].any()
        heads = (0,) + table.ends[:-1]
        for head, end in zip(heads, table.ends):
            assert np.array_equal(counts[end] - counts[head],
                                  np.bincount(table.words[head:end],
                                              minlength=p.d))
        rng = np.random.default_rng(3)
        for start in sample_positions(table, 8):
            end = table.ends[bisect_right(table.ends, start)]
            for stop in {start, start + 1, end,
                         int(rng.integers(start, end + 1))}:
                assert np.array_equal(counts[stop] - counts[start],
                                      np.bincount(table.words[start:stop],
                                                  minlength=p.d))
        lo, hi = table.bounds
        per_level = sum(a.nbytes for a in (table.lefts, table.starts,
                                           table.words, lo, hi, moves))
        assert per_level == 37 * levels
        assert counts.nbytes == 4 * p.d * (levels + 1)
        # built from the object's own words: a copy never inherits them
        for name in ("word_moves", "word_counts"):
            assert name not in {f.name for f in fields(table)}
            assert getattr(replace(table), name) is not getattr(table, name)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_words_are_first_return_itineraries(self, request, step_walk,
                                                system):
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        table = mirror.tower_table
        assert table.bases[0][0] == 0.0 and table.bases[-1][1] == table.top
        for (a, b), word in zip(table.bases, tower_words(table)):
            itinerary = []
            for slot, x in step_walk(mirror, (a + b) / 2,
                                     _TOWER_REACH * TOWER_HEIGHT):
                if itinerary and 0.0 <= x < table.top:
                    break
                itinerary.append(slot)
            assert word.tolist() == itinerary


def climb_trace(mirror, x, n, tables=()):
    """``float_walk`` of n steps from x in one chunk, predicted by the
    mirror's tower table: its (slot, x) steps, the guard hit's step
    (None without one) and its checked climbs, the climbs a batch's
    certificate check refuses, to be walked step by step."""
    mirror.tower_table  # built for walks of any length
    checks = []
    sl, xs = np.empty(n, np.intp), np.empty(n + 1)
    with pytest.MonkeyPatch.context() as patch:
        spy_certified(patch, checks)
        try:
            for _chunk in float_walk(mirror, x, n, tables, (), sl, xs):
                pass
            k, hit = n, None
        except NearBreakpoint as guarded:  # the buffers hold the steps before
            k = hit = guarded.step_index
    checked = sum(kept < climbs for climbs, kept in checks)
    return list(zip(sl[:k].tolist(), xs[:k].tolist())), hit, checked


def step_trace(step_walk, mirror, x, n, tables=()):
    """``_step_walk``'s steps and guard hit, in ``climb_trace``'s form."""
    steps = []
    try:
        for step in step_walk(mirror, x, n, tables):
            steps.append(step)
    except NearBreakpoint as hit:
        return steps, hit.step_index
    return steps, None


def sample_positions(table, count, seed=14):
    """Word positions to start from: every tower's base and top level
    and ``count`` seeded others."""
    heads = (0,) + table.ends[:-1]
    tops = [end - 1 for end in table.ends]
    rng = np.random.default_rng(seed)
    return sorted({*heads, *tops,
                   *rng.integers(0, len(table.words), count).tolist()})


class TestClimbCertificate:
    """A climb the tower table's bounds certify skips the per-step guard
    rule and is still the per-step walk, ``==``; a start the bounds do
    not cover is checked step by step."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_bundled_level_certified(self, request, system):
        table = request.getfixturevalue(system).iet.mirror.tower_table
        lo, hi = table.bounds
        assert lo.shape == hi.shape == table.words.shape
        assert lo.dtype == hi.dtype == np.float64  # 16 bytes per level
        assert np.all(lo <= hi)
        # the bounds are built from the object's own words: not a field,
        # so a copy never inherits them
        assert "bounds" not in {f.name for f in fields(table)}
        assert replace(table).bounds[0] is not lo

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_starts_at_the_bounds(self, request, step_walk, system):
        """Starts at lo[s] and hi[s] are certified, starts one ulp
        outside them are not; each walks the rest of its word."""
        mirror = request.getfixturevalue(system).iet.mirror
        table = mirror.tower_table
        lo, hi = table.bounds
        for s in sample_positions(table, 4):
            rest = table.ends[bisect_right(table.ends, s)] - s
            for x, inside in ((lo[s], True), (hi[s], True),
                              (np.nextafter(lo[s], -np.inf), False),
                              (np.nextafter(hi[s], np.inf), False)):
                x = float(x)
                word, sure = climb_word(table, x)
                assert (len(word), sure) == (rest, inside)
                steps, hit, checked = climb_trace(mirror, x, rest)
                assert (steps, hit) == step_trace(step_walk, mirror, x, rest)
                assert (hit, checked) == (None, int(not inside))

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_starts_near_level_edges(self, request, step_walk, system):
        """Starts within 2 guard of either end of a level are not
        certified; checked step by step, they walk as the per-step walk,
        into the guard band where a level end meets a breakpoint."""
        mirror = request.getfixturevalue(system).iet.mirror
        table = mirror.tower_table
        g = mirror.guard
        level = np.argsort(table.starts)  # word position -> level
        hits = []
        for s in sample_positions(table, 2):
            t = bisect_right(table.ends, s)
            a, b = table.bases[t]
            left = float(table.lefts[level[s]])
            right = left + (b - a)
            for x in (left, left + g / 2, left + g, left + 1.5 * g,
                      right - 1.5 * g, right - g, right - g / 2):
                word, sure = climb_word(table, x)
                assert len(word) == table.ends[t] - s and not sure
                got = climb_trace(mirror, x, len(word))
                assert got[:2] == step_trace(step_walk, mirror, x, len(word))
                assert got[2] >= 1
                hits.append(got[1])
        assert any(hit is not None for hit in hits)

    def test_guard_hits_are_never_certified(self, periodic4, step_walk,
                                            guard_hit_starts):
        """A climb that reaches the guard band is checked step by step."""
        mirror = periodic4.iet.mirror
        for k, x0 in guard_hit_starts.items():
            steps, hit, checked = climb_trace(mirror, float(x0), k + 1)
            assert (steps, hit) == step_trace(step_walk, mirror, float(x0),
                                              k + 1)
            assert hit == k and checked >= 1

    def test_marks_checked_in_certified_climbs(self, ctx, periodic4,
                                               step_walk, lane_cocycles4):
        """Jump marks are checked at every step of a certified climb."""
        iet = periodic4.iet
        mirror = iet.mirror
        tables = [float_table(phi, iet) for phi in lane_cocycles4.values()]
        for x0 in kronecker_samples(ctx, 3, iet.total, 9):
            got = climb_trace(mirror, float(x0), FLOAT_BLOCK, tables)
            assert got[:2] == step_trace(step_walk, mirror, float(x0),
                                         FLOAT_BLOCK, tables)
            assert got[1:] == (None, 0)
        for _slot, gf, _j in tables[1].jumps:
            x0 = float_preimages(mirror, gf + mirror.guard / 2, 5000)[5000]
            got = climb_trace(mirror, x0, FLOAT_BLOCK, tables)
            assert got[:2] == step_trace(step_walk, mirror, x0, FLOAT_BLOCK,
                                         tables)
            assert got[1:] == (5000, 0)  # only the mark check fires

    def test_marks_guarded_on_both_sides(self, periodic4, lane_cocycles4):
        """A float orbit drifts and is never resynced, so a point half a
        guard left of a jump may lie at or right of it exactly: the walk
        stops there as it does half a guard right of it."""
        iet = periodic4.iet
        mirror = iet.mirror
        tables = [float_table(phi, iet) for phi in lane_cocycles4.values()]
        for _slot, gf, _j in tables[1].jumps:
            for side in (-0.5, 0.5):
                x0 = float_preimages(mirror, gf + side * mirror.guard,
                                     5000)[5000]
                with pytest.raises(NearBreakpoint) as hit:
                    for _block in float_walk(mirror, x0, FLOAT_BLOCK, tables):
                        pass
                assert hit.value.step_index == 5000

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_corrupt_tables(self, request, system):
        """Swapped words certify no position; shifted levels keep the
        table's bounds, since only their lookup is wrong."""
        table = request.getfixturevalue(system).iet.mirror.tower_table
        lo, hi = corrupt_table(table, "swapped-words").bounds
        assert not np.any(lo <= hi)
        shifted = corrupt_table(table, "shifted-levels").bounds
        assert all(map(np.array_equal, shifted, table.bounds))


def corrupt_guide(table):
    """A tower table whose guesses go wrong: the base of each tower
    guesses the next tower's word, so a batch gathers words that the
    climbs do not climb."""
    bad = replace(table)
    bases, heads, ends, lo, hi, returns = table.guide
    vars(bad)["guide"] = (bases, heads[1:] + heads[:1], ends[1:] + ends[:1],
                          lo, hi, returns)
    return bad


class TestBatchWalk:
    """``float_walk`` by batches of guessed climbs is the per-step walk,
    ``==``: its chunks, its visit counts at stops and its guard hits,
    whatever the table guesses."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stops_inside_and_at_climb_ends(self, request, ctx, step_walk,
                                            system):
        """A step cocycle with marks in the first and last intervals, and
        stops at climb ends, one step either side of them and inside
        climbs, across the edges of chunks of QUARTER steps."""
        iet = request.getfixturevalue(system).iet
        mirror = iet.mirror
        top = mirror.tower_table.top
        tables = sweep_tables(ctx, iet)["jumps"]
        n = 2 * QUARTER + 7
        buffers = np.empty(QUARTER, np.intp), np.empty(QUARTER + 1)
        clear = 0
        for x0 in kronecker_samples(ctx, 3, iet.total, 11):
            want, hit = step_trace(step_walk, mirror, float(x0), n, tables)
            ends = [i for i, (_slot, x) in enumerate(want)
                    if i and 0.0 <= x < top]
            stops = sorted({*ends[:8], *(e + 1 for e in ends[:4]),
                            *(e - 1 for e in ends[:4]),
                            *(e + 7 for e in ends[-4:]), QUARTER - 1,
                            QUARTER, QUARTER + 1, n} - {0})
            counts = np.full((len(stops), iet.d), -1, np.int64)
            got, sizes = [], []
            try:
                for sl, xs in float_walk(mirror, float(x0), n, tables, stops,
                                         *buffers, counts):
                    got += zip(sl.tolist(), xs.tolist())
                    sizes.append(len(xs))
                got_hit = None
            except NearBreakpoint as guarded:
                got_hit = guarded.step_index
            assert got_hit == hit
            assert got == want[:len(got)]
            assert_chunk_ends(got, sizes, n, QUARTER)
            if hit is None:
                clear += 1
                assert got == want
                assert counts.tolist() == prefix_visits(want, stops, iet.d)
        assert clear

    @pytest.mark.parametrize("guide", ["true", "wrong-guesses"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_guard_hit_on_a_guessed_climb(self, request, ctx, step_walk,
                                          system, guide, monkeypatch):
        """Half a guard right of a jump mark in J, reached on the first
        step of a climb after two climbs guessed in the same batch: the
        hit is the oracle's step, and the buffers hold the steps before
        it."""
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        table = mirror.tower_table
        mark = table.top / 3
        phi = StepCocycle(1, ((0,),) * p.d, ((ctx.real(mark), (1,)),))
        tables = [float_table(phi, p.iet)]
        if guide != "true":
            monkeypatch.setitem(vars(mirror), "tower_table",
                                corrupt_guide(table))
        checks = []
        spy_certified(monkeypatch, checks)
        gf = tables[0].jumps[0][1]
        back = float_preimages(mirror, gf + mirror.guard / 2, FLOAT_BLOCK)
        returns = [i for i, x in enumerate(back) if i and 0.0 <= x < table.top]
        for k in returns[1:3]:
            checks.clear()
            got = climb_trace(mirror, back[k], k + 50, tables)
            assert got[:2] == step_trace(step_walk, mirror, back[k], k + 50,
                                         tables)
            assert got[1] == k
            if guide == "true":  # the climb at k was guessed, not looked up
                assert checks[0][0] >= 3

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words",
                                         "wrong-guesses"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_corrupt_table_changes_nothing(self, request, ctx, step_walk,
                                           system, corrupt, monkeypatch):
        """Every corrupt table of the walk tests, and return moves that
        guess the wrong towers: the batches' checks refuse what is
        wrong, and the walk is the per-step walk."""
        iet = request.getfixturevalue(system).iet
        mirror = iet.mirror
        table = mirror.tower_table
        bad = corrupt_guide(table) if corrupt == "wrong-guesses" \
            else corrupt_table(table, corrupt)
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        checks = []
        spy_certified(monkeypatch, checks)
        tables = sweep_tables(ctx, iet)["jumps"]
        x0 = float(kronecker_samples(ctx, 1, iet.total, 9)[0])
        assert assert_same_walk(step_walk, mirror, x0, 3 * 10 ** 4,
                                tables) is None
        refused = sum(kept < climbs for climbs, kept in checks)
        if corrupt == "shifted-levels":  # wrong lookups, the table's own bounds
            assert checks
        else:
            assert refused


def lattice_preimage(iet, coeffs, den, k):
    """Lattice coefficients of T^-k of the point (coeffs . lambda) / den,
    each preimage's letter located from its working-precision value."""
    inv = iet.inverse  # its letter a's interval is a's image
    lat = iet.lattice
    w = [[i - left for i, left in zip(img, lefts)]
         for img, lefts in zip(lat.image_lefts, lat.lefts)]
    for _ in range(k):
        a = inv.interval_index(iet.ctx.dot_int(coeffs, iet.lengths.values)
                               / den)
        coeffs = [c - den * wi for c, wi in zip(coeffs, w[a])]
    return coeffs


def new_lows(points, k):
    """Indices i >= k whose point is below each of the k - 1 before it."""
    lower, out = [], []  # indices of a rising run of points
    for i, x in enumerate(points):
        while lower and points[lower[-1]] > x:
            lower.pop()
        if i >= k and (not lower or i - lower[-1] >= k):
            out.append(i)
        lower.append(i)
    return out


def eager_run(oracle, n):
    for _ in range(n):
        eager_step(oracle)
    return tuple(oracle.counts)


class TestWalkerKernel:
    """The walker's ``shadow_step`` moves, predicted by the tower table,
    and its whole certified climbs give the eager per-step walk:
    coefficients, counts, steps and escalations ``==``, the shadow near
    the exact position and resynced at least every RESYNC steps."""

    @pytest.mark.parametrize("n", [TOWER_HEIGHT + 1,
                                   3 * ExactWalker.RESYNC + 7,
                                   QUARTER + 1, 3 * 10 ** 4])
    @pytest.mark.parametrize("den", [1, 1009])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_runs_match_eager(self, request, monkeypatch, shadow_stretches,
                              system, den, n):
        p = request.getfixturevalue(system)
        lc, wc = depth_interval_coeffs(p, 1, 1)
        start = [den * left + den // 3 * w for left, w in zip(lc, wc)]
        oracle, wk = (ExactWalker(p.iet, start, den) for _ in range(2))
        climbs = []
        span = shadow_module.TowerTable.span
        monkeypatch.setattr(shadow_module.TowerTable, "span",
                            lambda table, x: climbs.append(x)
                            or span(table, x))
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)
        assert climbs  # the walk read the tower table
        assert_resynced(wk, shadow_stretches)

    @pytest.mark.parametrize("side", ["on", "left-of"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_guard_hit_mid_chunk(self, request, system, side):
        """Step k = TOWER_HEIGHT + 1000, inside the predicted chunk of
        steps 4096-8191, lands on an interior left end, or a hair left of
        it, and only there does the guard rule fire."""
        p = request.getfixturevalue(system)
        iet = p.iet
        k = TOWER_HEIGHT + 1000
        den = 1
        start = lattice_preimage(iet, list(iet.lattice.lefts[iet.order0[1]]),
                                 den, k)
        if side == "left-of":
            den = 2 ** 40
            start = [den * c - w for c, w in zip(start, iet.lattice.widths[0])]
        probe = ExactWalker(iet, start, den)
        probe.run(k)
        assert probe.escalations == 0
        probe.step()
        assert probe.escalations == 1
        n = 3 * ExactWalker.RESYNC + 7
        oracle, wk = (ExactWalker(iet, start, den) for _ in range(2))
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)

    @pytest.mark.parametrize("k", [2 * ExactWalker.RESYNC,
                                   2 * ExactWalker.RESYNC + 1000],
                             ids=["on-resync", "mid-chunk"])
    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stop_inside_guard_band(self, request, shadow_stretches, system,
                                    depth, k):
        """The walk starts a hair below an orbit point whose k-th iterate
        is lower than the k - 1 before it; the threshold is that iterate,
        so the walk is a hair below it at step k, inside the guard band,
        where only the exact sign of the folded position stops it (for
        k = 2 RESYNC, the sign of the resynced position)."""
        p = request.getfixturevalue(system)
        lat = depth_lattice(p, depth)
        c0 = next(v for v in lat.image_lefts
                  if all(abs(lattice_float(p, v) - lattice_float(p, left))
                         > 1e-6 * lattice_float(p, lat.total)
                         for left in lat.lefts))
        mirror = ExactWalker.at_depth(p, depth, c0).mirror
        points = np.concatenate([xs.copy() for _sl, xs in float_walk(
            mirror, lattice_float(p, c0), 4 * k)]).tolist()
        i = new_lows(points, k)[0]
        before, at = (ExactWalker.at_depth(p, depth, c0) for _ in range(2))
        before.run(i - k)
        at.run(i)
        threshold, low = list(at.coeffs), at.x_f
        den = 2 ** 40
        start = [den * c - w for c, w in zip(before.coeffs, lat.widths[0])]
        oracle, wk = (ExactWalker.at_depth(p, depth, start, den)
                      for _ in range(2))
        threshold = [den * t for t in threshold]
        expected = eager_until_below(oracle, threshold)
        assert wk.run_until_below(threshold, low) == expected
        assert_matches_eager(wk, oracle)
        assert wk.steps == k
        assert wk.escalations >= 1
        assert_resynced(wk, shadow_stretches)

    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stop_after_a_guarded_step(self, request, system, depth):
        """A walk from an interior left end is settled exactly at step 0,
        and its image is below the threshold: the walk stops there.  The
        threshold is at most |I|, the largest one a walk accepts."""
        p = request.getfixturevalue(system)
        lat = depth_lattice(p, depth)
        a = p.iet.order0[0]
        lam = p.iet.lengths
        for b in p.iet.order0[1:]:
            threshold = min([i + w for i, w in zip(lat.image_lefts[b],
                                                   lat.widths[a])],
                            lat.total, key=lambda c: exact_dot(lam, c))
            low = lattice_float(p, threshold)
            oracle, wk = (ExactWalker.at_depth(p, depth, lat.lefts[b])
                          for _ in range(2))
            expected = eager_until_below(oracle, threshold)
            assert wk.run_until_below(threshold, low) == expected
            assert_matches_eager(wk, oracle)
            assert (wk.steps, wk.escalations) == (1, 1)

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words"])
    def test_corrupt_table_changes_nothing(self, periodic4, monkeypatch,
                                           corrupt):
        iet = periodic4.iet
        mirror = iet.mirror
        table = mirror.tower_table
        bad = corrupt_table(table, corrupt)
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        lc, wc = depth_interval_coeffs(periodic4, 1, 2)
        start = [1009 * left + 500 * w for left, w in zip(lc, wc)]
        oracle, wk = (ExactWalker(iet, start, 1009) for _ in range(2))
        n = QUARTER + 1
        points = []
        for _ in range(n):
            points.append(oracle.x_f)
            eager_step(oracle)
        assert wk.run(n) == tuple(oracle.counts)
        assert_matches_eager(wk, oracle)
        climbs = points[:1] + [x for x in points if 0.0 <= x < table.top]
        assert any(not np.array_equal(climb_word(bad, x)[0],
                                      climb_word(table, x)[0])
                   for x in climbs)  # the corruption mispredicts

    @pytest.mark.parametrize("pi0, pi1, lengths", [
        ([1, 2], [2, 1], ("0.25", "0.75")),
        ([1, 2, 3], [1, 3, 2], ("0.3", "0.3", "0.4")),
    ], ids=["rational-rotation", "reducible"])
    def test_non_minimal_exchange(self, ctx, pi0, pi1, lengths):
        iet = Iet(make_pair(pi0, pi1), ctx.vector(map(ctx.real, lengths)))
        lat = iet.lattice
        n = TOWER_HEIGHT + 7  # the den-1 start escalates every few steps
        for den, num in ((1, 0), (1009, 500)):
            start = [den * left + num * w
                     for left, w in zip(lat.lefts[1], lat.widths[1])]
            oracle, wk = (ExactWalker(iet, start, den) for _ in range(2))
            assert wk.run(n) == eager_run(oracle, n)
            assert_matches_eager(wk, oracle)

    @pytest.mark.parametrize("d, k, b, how", [
        (4, 4, 3, "return"), (5, 3, 0, "birkhoff"), (7, 4, 5, "return"),
        (7, 3, 2, "birkhoff")])
    def test_full_tower_climbs(self, request, d, k, b, how):
        """The benchmark's four climbs: a lattice point of the depth-k
        interval of letter b visits each letter a A^k[a][b] times before
        it returns."""
        p = request.getfixturevalue(f"periodic{d}")
        lc, wc = depth_interval_coeffs(p, k, b)
        coeffs = [1009 * left + 500 * w for left, w in zip(lc, wc)]
        column = [row[b] for row in intmat.matpow(p.step_matrix, k)]
        if how == "birkhoff":
            counts = birkhoff_visit_counts(p.iet, (coeffs, 1009), sum(column))
        else:
            wk = ExactWalker(p.iet, coeffs, 1009)
            counts = wk.run_until_below(
                [1009 * t for t in depth_total_coeffs(p, k)],
                float(p.step_scale ** -k))
            assert wk.steps == sum(column)
        assert list(counts) == column


    @pytest.mark.parametrize("d, k, b, how", [
        (4, 4, 3, "return"), (5, 3, 0, "birkhoff"), (7, 4, 5, "return"),
        (7, 3, 2, "birkhoff")])
    def test_full_climbs_take_no_checked_climb(self, request, d, k, b, how):
        """The benchmark's four climbs are certified climb by climb."""
        p = request.getfixturevalue(f"periodic{d}")
        lc, wc = depth_interval_coeffs(p, k, b)
        wk = ExactWalker(p.iet, [1009 * left + 500 * w
                                 for left, w in zip(lc, wc)], 1009)
        height = sum(row[b] for row in intmat.matpow(p.step_matrix, k))
        if how == "birkhoff":
            wk.run(height)
        else:
            wk.run_until_below([1009 * t for t in depth_total_coeffs(p, k)],
                               float(p.step_scale ** -k))
        assert (wk.steps, wk.escalations, wk.checked) == (height, 0, 0)

    def test_checked_counts_climbs(self, periodic4, monkeypatch):
        """Under a table that certifies nothing, each predicted climb is
        checked step by step and counted once, not once per step."""
        iet = periodic4.iet
        mirror = iet.mirror
        bad = corrupt_table(mirror.tower_table, "swapped-words")
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        climbs = []
        span = shadow_module.TowerTable.span

        def counted(table, x):
            start, end, sure = span(table, x)
            climbs.append(end > start and not sure)
            return start, end, sure

        monkeypatch.setattr(shadow_module.TowerTable, "span", counted)
        lc, wc = depth_interval_coeffs(periodic4, 1, 2)
        start = [1009 * left + 500 * w for left, w in zip(lc, wc)]
        oracle, wk = (ExactWalker(iet, start, 1009) for _ in range(2))
        n = QUARTER + 1
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)
        assert 0 < wk.checked == sum(climbs) < n


class TestWholeClimbs:
    """A climb the tower table's bounds certify, that fits in the walk and
    whose interior stays above a return threshold, is taken whole: one
    fold of its word and one resync at its end.  Coefficients, counts,
    steps and escalations stay ``==`` the eager per-step walk."""

    @staticmethod
    def start(p, k, b, den):
        lc, wc = depth_interval_coeffs(p, k, b)
        return [den * left + den // 3 * w for left, w in zip(lc, wc)]

    @pytest.mark.parametrize("den, n", [(1, 12345), (1009, 12345),
                                        (1009, 10 ** 6)])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_runs_match_eager(self, request, shadow_stretches, system, den,
                              n):
        p = request.getfixturevalue(system)
        table = p.iet.mirror.tower_table
        start = self.start(p, 1, 1, den)
        oracle, wk = (ExactWalker(p.iet, start, den) for _ in range(2))
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)
        assert_resynced(wk, shadow_stretches)
        assert wk.x_f >= table.top  # the walk ends mid-climb
        if n > 10 ** 5:  # most steps are in climbs taken whole
            assert sum(shadow_stretches[id(wk)]) < n / 10

    def test_later_climbs_after_an_uncertified_one(self, periodic4,
                                                    shadow_stretches):
        """The first climb from the exact left end of a depth-1 interval
        runs along level left ends, which the bounds never certify; its
        chunks stop at the climb's end, so later climbs are looked up
        and some are taken whole, outside every chunk and exact settle."""
        lc, _wc = depth_interval_coeffs(periodic4, 1, 1)
        oracle, wk = (ExactWalker(periodic4.iet, lc) for _ in range(2))
        n = 12345
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)
        assert_resynced(wk, shadow_stretches)
        assert wk.steps - sum(shadow_stretches[id(wk)]) - wk.escalations > 0

    @pytest.mark.parametrize("den", [1, 1009])
    @pytest.mark.parametrize("system, k", [
        ("periodic4", 1), ("periodic4", 2), ("periodic4", 3),
        ("periodic5", 1), ("periodic5", 2),
        ("periodic7", 1), ("periodic7", 2), ("periodic7", 3)])
    def test_returns_match_eager(self, request, system, k, den):
        """Returns below the depth-k total from each depth-k interval.  A
        total in the table's base J stops a den-1009 walk, whose climbs
        are certified, at a climb's end, on its resynced shadow.  A total
        above J stops some den-1009 walk inside its first climb, which
        the bounds certify but whose word, taken whole, would step over
        the stop."""
        p = request.getfixturevalue(system)
        table = p.iet.mirror.tower_table
        lam = p.iet.lengths
        thr = [den * t for t in depth_total_coeffs(p, k)]
        thr_f = lam.exact_float(lam.int_dot(thr), den)
        a_k = intmat.matpow(p.step_matrix, k)
        inside = []
        for b in range(p.d):
            oracle, wk = (ExactWalker(p.iet, self.start(p, k, b, den), den)
                          for _ in range(2))
            first, last, sure = table.span(wk.x_f)
            assert wk.run_until_below(thr, thr_f) == eager_until_below(
                oracle, thr)
            assert_matches_eager(wk, oracle)
            assert wk.counts == [row[b] for row in a_k]
            if thr_f < table.top and den > 1:
                assert wk.x_f == wk._exact_float()
            inside.append(sure and wk.steps < last - first)
        if den > 1:  # den-1 starts are left ends, on no level's inside
            assert any(inside) == (thr_f >= table.top)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_starts_near_level_ends(self, request, ctx, system):
        """Starts 1.5 guard either side of both ends of tower levels,
        which the bounds, 2 guard inside, do not certify."""
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        table, g = mirror.tower_table, mirror.guard
        widths = np.array([b - a for a, b in table.bases])
        towers = np.searchsorted(table.ends, table.starts, "right")
        n = 2 * 10 ** 4
        for k in np.linspace(0, len(table.lefts) - 1, 4).astype(int):
            left = float(table.lefts[k])
            right = left + float(widths[towers[k]])
            for x in (left - 1.5 * g, left + 1.5 * g, right - 1.5 * g,
                      right + 1.5 * g):
                if not 0.0 <= x < mirror.rights[-1]:
                    continue
                assert not table.span(x)[2]
                oracle, wk = (ExactWalker.from_point(p.iet, ctx.real(x))
                              for _ in range(2))
                assert wk.run(n) == eager_run(oracle, n)
                assert_matches_eager(wk, oracle)

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words"])
    @pytest.mark.parametrize("system, k", [
        ("periodic4", 3), ("periodic5", 2), ("periodic7", 3)])
    def test_corrupt_table_changes_nothing(self, request, monkeypatch, system,
                                           k, corrupt):
        p = request.getfixturevalue(system)
        mirror = p.iet.mirror
        monkeypatch.setitem(vars(mirror), "tower_table",
                            corrupt_table(mirror.tower_table, corrupt))
        n = 3 * 10 ** 4
        oracle, wk = (ExactWalker(p.iet, self.start(p, 1, 1, 1009), 1009)
                      for _ in range(2))
        assert wk.run(n) == eager_run(oracle, n)
        assert_matches_eager(wk, oracle)
        thr = [1009 * t for t in depth_total_coeffs(p, k)]
        lam = p.iet.lengths
        oracle, wk = (ExactWalker(p.iet, self.start(p, k, 0, 1009), 1009)
                      for _ in range(2))
        assert wk.run_until_below(
            thr, lam.exact_float(lam.int_dot(thr), 1009)) \
            == eager_until_below(oracle, thr)
        assert_matches_eager(wk, oracle)

    def test_drift_stays_inside_the_guard(self, periodic4, periodic5,
                                          periodic7):
        """A float step errs by at most 2^-53 |I| in its move and 2^-53 |I|
        in its sum, and a resync rounds once: over a word of at most
        _TOWER_REACH * TOWER_HEIGHT steps from a resynced shadow, the
        exact orbit stays well inside the guard of the float one."""
        reach = _TOWER_REACH * TOWER_HEIGHT
        for p in (periodic4, periodic5, periodic7):
            ends = (0,) + p.iet.mirror.tower_table.ends
            assert max(b - a for a, b in zip(ends, ends[1:])) <= reach
        assert (2 * reach + 1) * 2.0 ** -53 < GUARD / 2


class TestOneMirror:
    """One float mirror, and one tower table, per exchange."""

    def test_one_table_per_exchange(self, periodic4, monkeypatch):
        p = replace(periodic4)  # the same exchange, no mirror built yet
        builds = []
        build = shadow_module._tower_table
        monkeypatch.setattr(shadow_module, "_tower_table",
                            lambda mirror: builds.append(mirror)
                            or build(mirror))
        phi = StepCocycle.from_vector((1, -2, 3, -1))
        n = TOWER_HEIGHT + 1
        for seed in (0, 1):
            deviation_sweep(p.iet, [phi], n, samples=2, seed=seed)
        skew_simulate(p.iet, phi,
                      kronecker_samples(p.iet.ctx, 16, p.iet.total, 0), n)
        wk = ExactWalker.at_depth(p, 0, p.iet.lattice.lefts[1])
        wk.run(n)
        assert wk.mirror is p.iet.mirror
        assert builds == [p.iet.mirror]

    def test_workers_match_serial(self, periodic4, lane_cocycles4):
        p = replace(periodic4)
        cocycles = list(lane_cocycles4.values())
        n = 2 * TOWER_HEIGHT
        two = deviation_sweep(p.iet, cocycles, n, samples=3, workers=2)
        # built once here and sent built to the workers
        assert "tower_table" in vars(p.iet.mirror)
        assert two == deviation_sweep(p.iet, cocycles, n, samples=3)


def exact_dot(lengths, coeffs) -> Fraction:
    """(coeffs . lengths) as a Fraction, from each mpf's raw (sign,
    mantissa, exponent) tuple."""
    out = Fraction(0)
    for c, v in zip(coeffs, lengths.values):
        sign, man, exp, _bc = v._mpf_
        out += c * (-1) ** sign * man * Fraction(2) ** exp
    return out


def exact_mirror(p, lat):
    """The mirror's entries, (lefts, moves, total), each the float of the
    exact Fraction."""
    lam, order = p.iet.lengths, p.iet.order0
    lefts = [exact_dot(lam, lat.lefts[a]) for a in order]
    moves = [exact_dot(lam, lat.image_lefts[a]) - left
             for a, left in zip(order, lefts)]
    return (tuple(map(float, lefts)), tuple(map(float, moves)),
            float(exact_dot(lam, lat.total)))


def lattice_unit(lengths):
    """(c, g): integer coefficients whose value c . lengths = g / D is the
    least positive one, D the lengths' common denominator and g the gcd
    of their numerators over it (extended Euclid, letter by letter)."""
    d = len(lengths)
    fr = [exact_dot(lengths, [int(j == i) for j in range(d)])
          for i in range(d)]
    den = math.lcm(*(f.denominator for f in fr))
    g, c = 0, [0] * d
    for i, f in enumerate(fr):
        r0, r1, x0, x1, y0, y1 = g, int(f * den), 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, \
                y1, y0 - q * y1
        c = [x0 * ci for ci in c]  # r0 = x0 g + y0 numerator_i
        c[i] += y0
        g = r0
    return c, g


def valid_depth(p, n):
    """Every exact depth-n width is positive for the stored lengths."""
    return all(exact_dot(p.iet.lengths, w) > 0
               for w in depth_lattice(p, n).widths)


def sign(x):
    return (x > 0) - (x < 0)


# the deepest climb depth whose depth n + 1 lattice is valid at 128 bits
CLIMB_DEPTHS = {"periodic4": 12, "periodic5": 8, "periodic7": 12}


class TestExactLattice:
    """Signs, resync floats and mirrors come from one integer dot of the
    coefficients with the lengths' mantissas: exact at any depth."""

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_lattice_sign_is_exact(self, bits):
        p = build_periodic_from_matrix(make_symmetric_pair(5), FIVE_MATRIX,
                                       PrecisionContext(bits))
        lam = p.iet.lengths
        cases = []
        for n in range(4):  # lattice identities: the zero vector
            lat = depth_lattice(p, n)
            cases.append([t - sum(col) for t, col in
                          zip(lat.total, zip(*lat.widths))])
        fr = [exact_dot(lam, [int(a == b) for b in range(5)])
              for a in range(5)]
        margin = Fraction(2) ** -(bits - 16)
        tiny = []
        for a, b in ((0, 1), (1, 3), (2, 4)):
            # c_a lam_a + c_b lam_b = 0, coefficients of about 2^(2 bits)
            c = [0] * 5
            c[a] = fr[b].numerator * fr[a].denominator
            c[b] = -fr[a].numerator * fr[b].denominator
            cases.append(c)
            for da, db in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                near = list(c)
                near[a] += da
                near[b] += db
                tiny.append(near)
            # a third letter, scaled, leaves a value far below the margin
            near = [k * 2 ** bits for k in c]
            near[(b + 1) % 5] += 1 if a % 2 else -1
            tiny.append(near)
        cases += tiny
        for c in cases:
            assert certified_lattice_sign(p.iet.lengths, c) == sign(
                exact_dot(lam, c))
        assert all(exact_dot(lam, c) == 0 for c in cases[:7])
        for c in tiny:
            assert 0 < abs(exact_dot(lam, c)) < margin * max(map(abs, c))

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_mirrors_round_correctly(self, request, system):
        p = request.getfixturevalue(system)
        assert (p.iet.mirror.lefts, p.iet.mirror.moves,
                p.iet.mirror.rights[-1]) == exact_mirror(p, p.iet.lattice)
        for n in range(13):
            if not valid_depth(p, n):
                with pytest.raises(DomainError, match="width"):
                    ExactWalker.at_depth(p, n, [0] * p.d)
                continue
            m = ExactWalker.at_depth(p, n, [0] * p.d).mirror
            want = exact_mirror(p, depth_lattice(p, n))
            assert (m.lefts, m.moves, m.rights[-1]) == want
            assert m.rights == m.lefts[1:] + (want[2],)

    def test_negative_widths_refused(self, periodic5):
        # at 128 bits the 5-letter lengths carry depths 0..9 only
        assert [valid_depth(periodic5, n) for n in range(13)] \
            == [True] * 10 + [False] * 3
        for n in (10, 11, 12):
            with pytest.raises(DomainError, match="width"):
                ExactWalker.at_depth(periodic5, n, [0] * 5)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_starts_outside_refused(self, request, system):
        p = request.getfixturevalue(system)
        lat = depth_lattice(p, 1)
        w0 = lat.widths[0]
        unit, g = lattice_unit(p.iet.lengths)
        assert g == 1 and exact_dot(p.iet.lengths, unit) > 0
        for den, start, inside in (
                (1, [0] * p.d, True),
                (1, [-w for w in w0], False),
                (1, [-c for c in unit], False),  # one unit left of 0
                (1, lat.total, False),
                (2 ** 60, [2 ** 60 * t - w for t, w in zip(lat.total, w0)],
                 True),  # its float is |I|'s: an integer sign decides
                (2 ** 60, [2 ** 60 * t + w for t, w in zip(lat.total, w0)],
                 False)):
            if inside:
                ExactWalker.at_depth(p, 1, start, den).step()
            else:
                with pytest.raises(DomainError, match="outside"):
                    ExactWalker.at_depth(p, 1, start, den)
        with pytest.raises(DomainError, match="denominator"):
            ExactWalker(p.iet, [0] * p.d, 0)

    def test_deeper_start_refused(self, periodic5):
        # a depth-10 left end is no point of the depth-9 exchange
        deep = depth_lattice(periodic5, 10).lefts
        refused = 0
        for left in deep:
            if exact_dot(periodic5.iet.lengths, left) < 0:
                refused += 1
                with pytest.raises(DomainError, match="outside"):
                    ExactWalker.at_depth(periodic5, 9, left)
        assert refused

    def test_threshold_above_total_refused(self, ctx, periodic4):
        # every position is below |I|: a walk with threshold |I| stops
        # after one step, and a larger threshold is refused
        p = periodic4
        for wk, total in (
                (ExactWalker(p.iet, [0] * 4), p.iet.lattice.total),
                (ExactWalker(p.iet, [0] * 4, 3),
                 [3 * t for t in p.iet.lattice.total]),
                (ExactWalker.at_depth(p, 2, [0] * 4),
                 depth_total_coeffs(p, 2)),
                (ExactWalker.from_point(p.iet, ctx.real("0.3")),
                 p.iet.lattice.total)):
            total_f = lattice_float(p, total) / wk.den
            with pytest.raises(DomainError, match="threshold"):
                wk.run_until_below([2 * t for t in total], 2 * total_f)
            assert wk.steps == 0
            wk.run_until_below(total, total_f)
            assert wk.steps == 1

    def test_threshold_not_positive_refused(self, periodic4):
        # a position is never negative, so such a walk would never end;
        # the 4-letter depth-15 total is negative for the stored lengths
        deep = depth_total_coeffs(periodic4, 15)
        assert exact_dot(periodic4.iet.lengths, deep) < 0
        for wk, threshold in (
                (ExactWalker(periodic4.iet, [0] * 4), [0] * 4),
                (ExactWalker.at_depth(periodic4, 14, [0] * 4), deep)):
            with pytest.raises(DomainError, match="threshold"):
                wk.run_until_below(threshold, 0.0)
            assert wk.steps == 0

    def test_depth8_start_near_a_left_end(self, periodic5):
        lat = depth_lattice(periodic5, 8)
        den = 2 ** 22
        start = [den * left + w for left, w in zip(lat.lefts[1],
                                                   lat.widths[1])]
        assert ExactWalker.at_depth(periodic5, 8, start, den).step() == 1

    @pytest.mark.parametrize("depth", range(10))
    def test_first_letter_near_every_left_end(self, periodic5, depth):
        """Starts den * lefts[k] +- widths[j] leave their exact letter."""
        p = periodic5
        lat = depth_lattice(p, depth)
        lam = p.iet.lengths
        lefts = [exact_dot(lam, c) for c in lat.lefts]
        rights = [left + exact_dot(lam, w) for left, w in zip(lefts,
                                                               lat.widths)]
        for den in (2 ** e for e in range(10, 23)):
            for k in range(1, 5):
                for w in lat.widths:
                    for s in (1, -1):
                        start = [den * c + s * wi
                                 for c, wi in zip(lat.lefts[k], w)]
                        x = exact_dot(lam, start) / den
                        want, = (a for a in range(5)
                                 if lefts[a] <= x < rights[a])
                        wk = ExactWalker.at_depth(p, depth, start, den)
                        assert wk.step() == want

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_climbs_count_the_columns(self, request, system):
        """A climb from a depth-(n+1) left end, walked at depth n up to
        its return below |I_(n+1)|, visits the letters as a column of A."""
        p = request.getfixturevalue(system)
        lam = p.iet.lengths
        for n in range(CLIMB_DEPTHS[system] + 1):
            up = depth_lattice(p, n + 1)
            thr_f = float(exact_dot(lam, up.total))
            for b in range(p.d):
                wk = ExactWalker.at_depth(p, n, up.lefts[b])
                assert wk.run_until_below(up.total, thr_f) \
                    == tuple(row[b] for row in p.step_matrix)

    def test_escalating_rotation_walk(self, ctx):
        """The lattice point 1/4 of the rotation by 3/4 meets a breakpoint
        every other step, and each is settled by an integer sign."""
        iet = Iet(make_symmetric_pair(2), ctx.vector(["0.25", "0.75"]))
        wk = ExactWalker(iet, [1, 0])
        assert wk.run(20000) == (5000, 15000)
        assert wk.escalations == 10000


class TestBlockSweep:
    """The block sweep gives the per-step sweep's profile, ``==``."""

    @pytest.fixture()
    def with_oracle(self, step_walk):
        def sweep(iet, cocycles, n_max, **kw):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cocycles_module, "_sweep_one_sample",
                           lambda args: sweep_oracle(args, step_walk))
                return deviation_sweep(iet, cocycles, n_max, **kw)
        return sweep

    @pytest.mark.parametrize("n_max", [1, 7, 1000, QUARTER - 1, QUARTER,
                                       QUARTER + 1, 2 * QUARTER + 5,
                                       3 * QUARTER, FLOAT_BLOCK,
                                       FLOAT_BLOCK + 1])
    def test_matches_per_step_sweep(self, ctx, periodic4, with_oracle,
                                    lane_cocycles4, n_max):
        iet = periodic4.iet
        cocycles = list(lane_cocycles4.values())
        cocycles.append(StepCocycle.from_vector((1, -2, 3, -1)))
        block = deviation_sweep(iet, cocycles, n_max, samples=3, seed=4)
        assert block.sample_count == 3
        assert block == with_oracle(iet, cocycles, n_max, samples=3, seed=4)

    def test_guard_hits_dropped_alike(self, ctx, periodic4, with_oracle,
                                      lane_cocycles4, guard_hit_starts,
                                      monkeypatch):
        iet = periodic4.iet
        starts = list(guard_hit_starts.values())
        starts += kronecker_samples(ctx, 2, iet.total, 8)
        monkeypatch.setattr(cocycles_module, "kronecker_samples",
                            lambda *_args: starts)
        cocycles = list(lane_cocycles4.values())
        n_max = 2 * FLOAT_BLOCK + 5
        block = deviation_sweep(iet, cocycles, n_max, samples=len(starts))
        oracle = with_oracle(iet, cocycles, n_max, samples=len(starts))
        assert (block.aborted_samples, block.sample_count) == \
            (len(guard_hit_starts), 2)
        assert block == oracle

    @pytest.mark.parametrize("checkpoints", [
        (1, 2, 3, 1000, 5000, FLOAT_BLOCK - 1),
        (7, FLOAT_BLOCK, 2 * FLOAT_BLOCK, 3 * FLOAT_BLOCK),
        (1, FLOAT_BLOCK - 1, FLOAT_BLOCK, FLOAT_BLOCK + 1, FLOAT_BLOCK + 2,
         2 * FLOAT_BLOCK + 5),
    ], ids=["several-in-one-block", "on-block-ends", "around-a-block-end"])
    def test_checkpoint_segments(self, ctx, periodic4, step_walk,
                                 lane_cocycles4, guard_hit_starts,
                                 checkpoints):
        # one sample against the per-step oracle, checkpoint by
        # checkpoint; guard hits at 5000 and FLOAT_BLOCK + 1 come after
        # checkpoints already recorded in their block
        iet = periodic4.iet
        tables = [float_table(phi, iet) for phi in lane_cocycles4.values()]
        tables.append(float_table(StepCocycle.from_vector((1, -2, 3, -1)),
                                  iet))
        starts = kronecker_samples(ctx, 2, iet.total, 4)
        starts += [guard_hit_starts[5000], guard_hit_starts[FLOAT_BLOCK + 1]]
        outcomes = []
        for x0 in starts:
            args = (float(x0), iet.mirror, tables, checkpoints)
            ok, sups = cocycles_module._sweep_one_sample(args)
            ref_ok, ref_sups = sweep_oracle(args, step_walk)
            assert ok == ref_ok
            if ok:
                assert sups == ref_sups
            outcomes.append(ok)
        reach = checkpoints[-1]
        assert outcomes == [True, True, reach <= 5000,
                            reach <= FLOAT_BLOCK + 1]

    @pytest.mark.parametrize("values", [(1e308, 1e308, 1e308, 1e308),
                                        (1e308, -1e308, 1e308, -1e308)],
                             ids=["inf", "nan"])
    def test_overflow_is_an_error(self, periodic4, values):
        phi = StepCocycle.from_vector(values)
        with pytest.raises(DomainError, match="overflow"):
            deviation_sweep(periodic4.iet, [phi], 100, samples=2)


def sweep_tables(ctx, iet):
    """Float tables of three cocycles over any bundled exchange, by kind:
    a 2-dim PL one, a 2-dim step one with jumps in the first and last
    intervals (every step checks its marks), and both."""
    r = ctx.real
    d = iet.d
    pl = PiecewiseLinearCocycle.constant_slope(
        (r("0.7"), r("-0.3")),
        tuple((r(f"{(-1) ** a * 0.1 * (a + 1):.2f}"), r(f"0.0{a + 1}"))
              for a in range(d)))
    jumps = []
    for a, frac, j in ((iet.order0[0], "0.3", ("0.1", "-0.7")),
                       (iet.order0[-1], "0.6", ("0.3", "-0.2"))):
        width = iet.right[a] - iet.left[a]
        jumps.append((iet.left[a] + r(frac) * width, tuple(map(r, j))))
    step = StepCocycle(2, tuple((r(f"0.{a + 1}"), r(f"-0.{d - a}"))
                                for a in range(d)), tuple(jumps))
    tables = {"pl": [float_table(pl, iet)], "jumps": [float_table(step, iet)]}
    tables["both"] = tables["pl"] + tables["jumps"]
    return tables


class TestChunkSweep:
    """The sweep by ``float_walk`` chunks gives the sups of the sweep by
    fixed blocks cut into checkpoint segments (``segment_sweep``), ``==``,
    a guard hit (False, None) in both."""

    @pytest.mark.parametrize("kind", ["pl", "jumps", "both"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_matches_segment_sweep(self, request, ctx, segment_sweep, system,
                                   kind, monkeypatch):
        """In chunks of QUARTER steps, so that the checkpoints cross
        several chunk edges; ``test_checkpoints_on_chunk_edges`` keeps
        the default chunks."""
        monkeypatch.setattr(cocycles_module, "FLOAT_BLOCK", QUARTER)
        iet = request.getfixturevalue(system).iet
        tables = sweep_tables(ctx, iet)[kind]
        checkpoints = geometric_checkpoints(3 * QUARTER + 7,
                                            CHECKPOINT_RATIO)
        outcomes = []
        for x0 in kronecker_samples(ctx, 3, iet.total, 4):
            args = (float(x0), iet.mirror, tables, checkpoints)
            got = cocycles_module._sweep_one_sample(args)
            assert got == segment_sweep(args)
            outcomes.append(got[0])
        assert any(outcomes)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_checkpoints_on_chunk_edges(self, request, ctx, segment_sweep,
                                        system):
        """Checkpoints on the ends of the chunks the walk makes without
        them, one step either side, and on multiples of FLOAT_BLOCK."""
        iet = request.getfixturevalue(system).iet
        tables = sweep_tables(ctx, iet)["both"]
        n = 3 * FLOAT_BLOCK + 7
        for x0 in kronecker_samples(ctx, 2, iet.total, 4):
            edges = np.cumsum([len(xs) for _sl, xs in
                               float_walk(iet.mirror, float(x0), n)]).tolist()
            assert len(edges) >= 4
            checkpoints = sorted({*edges, *(e + 1 for e in edges[:2]),
                                  *(e - 1 for e in edges[:2]), FLOAT_BLOCK,
                                  2 * FLOAT_BLOCK} - {0})
            args = (float(x0), iet.mirror, tables, tuple(checkpoints))
            got = cocycles_module._sweep_one_sample(args)
            assert got[0] and got == segment_sweep(args)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_guard_hit_at_a_chunk_edge(self, request, ctx, step_walk,
                                       segment_sweep, system):
        """A jump mark mid-base of the longest tower, and starts whose
        orbits return half a guard right of it at step k = FLOAT_BLOCK,
        where the walk's first chunk is full, so the hit is the first
        step of the next chunk, and at a step k just after a checkpoint
        inside a chunk."""
        iet = request.getfixturevalue(system).iet
        mirror = iet.mirror
        table = mirror.tower_table
        a, b = table.bases[int(np.argmax(np.diff((0,) + table.ends)))]
        phi = StepCocycle(1, ((0,),) * iet.d, ((ctx.real((a + b) / 2),
                                                 (1,)),))
        tables = [float_table(phi, iet)]
        mark = tables[0].jumps[0][1]
        n = 4 * FLOAT_BLOCK
        back = float_preimages(mirror, mark + mirror.guard / 2, FLOAT_BLOCK)
        _steps, sizes, hit = block_trace(mirror, back[FLOAT_BLOCK], n, tables)
        assert (sizes, hit) == ([FLOAT_BLOCK], FLOAT_BLOCK)
        tables += sweep_tables(ctx, iet)["pl"]
        for k in (5000, FLOAT_BLOCK):
            assert step_trace(step_walk, mirror, back[k], n, tables)[1] == k
            for checkpoints in (geometric_checkpoints(n, CHECKPOINT_RATIO),
                                (k - 1, k, n)):
                args = (back[k], mirror, tables, checkpoints)
                assert cocycles_module._sweep_one_sample(args) == (False,
                                                                   None)
                assert segment_sweep(args) == (False, None)

    @pytest.mark.parametrize("corrupt", ["shifted-levels", "swapped-words"])
    def test_corrupt_tables(self, ctx, periodic4, segment_sweep, corrupt,
                            monkeypatch):
        iet = periodic4.iet
        mirror = iet.mirror
        bad = corrupt_table(mirror.tower_table, corrupt)
        monkeypatch.setitem(vars(mirror), "tower_table", bad)
        tables = sweep_tables(ctx, iet)["both"]
        checkpoints = geometric_checkpoints(FLOAT_BLOCK + 7, CHECKPOINT_RATIO)
        for x0 in kronecker_samples(ctx, 2, iet.total, 9):
            args = (float(x0), mirror, tables, checkpoints)
            got = cocycles_module._sweep_one_sample(args)
            assert got[0] and got == segment_sweep(args)


class TestFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan",
                                     "inf"])
    @pytest.mark.parametrize("where", ["value", "gamma", "jump", "slope",
                                       "constant"])
    def test_non_finite_entry_rejected(self, ctx, bad, where):
        x = ctx.real(bad)
        one = ctx.real("0.5")
        build = {
            "value": lambda: StepCocycle(1, ((one,), (x,))),
            "gamma": lambda: StepCocycle(1, ((one,), (one,)), ((x, (one,)),)),
            "jump": lambda: StepCocycle(1, ((one,), (one,)), ((one, (x,)),)),
            "slope": lambda: PiecewiseLinearCocycle(1, ((one,), (x,)),
                                                    ((one,), (one,))),
            "constant": lambda: PiecewiseLinearCocycle(1, ((one,), (one,)),
                                                       ((x,), (one,))),
        }[where]
        with pytest.raises(DomainError, match="finite"):
            build()


class TestRowCheck:
    """A cocycle meets an exchange only with one row per letter."""

    @pytest.fixture(scope="class")
    def four_row_cocycles(self, ctx):
        r = ctx.real
        return (StepCocycle.from_vector((1, -1, 2, 0)),
                PiecewiseLinearCocycle.constant_slope(
                    (r(1),), tuple((r(c),) for c in ("0.4", "-0.1", "0.2",
                                                     "-0.3"))))

    @pytest.mark.parametrize("entry", [
        "mean", "float_table", "forward_birkhoff", "birkhoff_sum_forward",
        "birkhoff_sum_backward", "deviation_sweep", "renormalizer_to_depth",
        "renormalize"])
    def test_four_rows_on_five_letters(self, ctx, periodic5, renorm5,
                                       four_row_cocycles, entry):
        iet = periodic5.iet
        x = ctx.real("0.3")
        call = {
            "mean": lambda phi: mean(phi, iet),
            "float_table": lambda phi: float_table(phi, iet),
            "forward_birkhoff": lambda phi: forward_birkhoff(phi, iet, x, 5),
            "birkhoff_sum_forward": lambda phi: birkhoff_sum(phi, iet, x, 5),
            "birkhoff_sum_backward": lambda phi: birkhoff_sum(phi, iet, x, -5),
            "deviation_sweep": lambda phi: deviation_sweep(iet, [phi], 100,
                                                           samples=2),
            "renormalizer_to_depth": lambda phi: renorm5.to_depth(phi, 2),
            "renormalize": lambda phi: renormalize(phi, periodic5, 0, 1,
                                                   renorm5),
        }[entry]
        step, pl = four_row_cocycles
        with pytest.raises(DomainError, match="4 value rows, the exchange "
                                              "has 5 letters"):
            call(step)
        with pytest.raises(DomainError, match="4 slope and 4 constant rows"):
            call(pl)
