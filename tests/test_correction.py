"""Correcting vectors: exact projections, series route, growth control."""

import pytest

from iet_lab import intmat
from iet_lab.cocycles import (PiecewiseLinearCocycle, StepCocycle, mean,
                              zero_mean_version)
from iet_lab.correction import (correct_bv, correct_step, growth_check,
                                renorm_sup_curve)
from iet_lab.errors import DomainError, NotZeroMean


def zero_mean_vector(ctx, lengths, raw):
    mp = ctx.mp
    ip = mp.fsum(r * l for r, l in zip(raw, lengths))
    return tuple(mp.mpf(r) - ip for r in raw)


@pytest.fixture()
def extras_cocycle(ctx, periodic4, gammas):
    phi = StepCocycle(1, ((1,), (-1,), (2,), (0,)),
                      tuple((g, (j,)) for g, j in zip(gammas, (1, 2, -3))))
    return zero_mean_version(phi, periodic4.iet)


class TestCorrectStep:
    def test_stable_vector_needs_no_correction(self, ctx, periodic4, splitting4):
        v = tuple(splitting4.basis_s[0])
        res = correct_step(v, splitting4, periodic4)
        assert float(res.h_norm()) < 1e-30

    def test_expanding_eigenvector_cancels(self, ctx, periodic5, splitting5):
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        v2 = (-2, -1 - sq5, 2, 1 + sq5, 0)
        res = correct_step(v2, splitting5, periodic5)
        for h, v in zip(res.h[0], v2):
            assert abs(h + v) < mp.mpf(2) ** -90
        corrected = tuple(res.corrected.values[a][0] for a in range(5))
        assert max(abs(c) for c in corrected) < mp.mpf(2) ** -90

    def test_projection_linearity(self, ctx, periodic5, splitting5):
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        v2 = (-2, -1 - sq5, 2, 1 + sq5, 0)
        v4 = (-2, -1 + sq5, 2, 1 - sq5, 0)
        mixed = tuple(a + b for a, b in zip(v2, v4))
        res = correct_step(mixed, splitting5, periodic5)
        for h, v in zip(res.h[0], v2):
            assert abs(h + v) < mp.mpf(2) ** -90
        corrected = tuple(res.corrected.values[a][0] for a in range(5))
        for c, v in zip(corrected, v4):
            assert abs(c - v) < mp.mpf(2) ** -90

    def test_mean_check(self, ctx, periodic4, splitting4):
        with pytest.raises(NotZeroMean):
            correct_step((1, 1, 1, 1), splitting4, periodic4)

    def test_central_vector_untouched(self, ctx, periodic5, splitting5):
        v3 = (-1, -2, 0, -1, 1)
        res = correct_step(v3, splitting5, periodic5)
        assert float(res.h_norm()) < 1e-30


class TestCorrectBV:
    def test_pure_step_routes_agree(self, ctx, periodic4, splitting4, renorm4):
        raw = (2, -3, 1, 1)
        v = zero_mean_vector(ctx, periodic4.lengths, raw)
        res_a = correct_step(v, splitting4, periodic4)
        res_b = correct_bv(StepCocycle.from_vector(v), periodic4, splitting4,
                           depth=6, renormalizer=renorm4)
        diff = max(abs(a - b) for a, b in zip(res_a.h[0], res_b.h[0]))
        assert diff < ctx.mp.mpf(2) ** -90
        assert diff <= res_b.tail_bound

    def test_truncations_within_tail(self, ctx, periodic4, splitting4,
                                     renorm4, extras_cocycle):
        res8 = correct_bv(extras_cocycle, periodic4, splitting4, depth=8,
                          renormalizer=renorm4)
        res16 = correct_bv(extras_cocycle, periodic4, splitting4, depth=16,
                           renormalizer=renorm4)
        diff = max(abs(a - b) for a, b in zip(res8.h[0], res16.h[0]))
        assert diff <= res8.tail_bound
        assert res16.tail_bound < res8.tail_bound

    def test_commutation_with_renormalization(self, ctx, periodic4,
                                              splitting4, renorm4,
                                              extras_cocycle):
        # correcting the depth-l renormalization equals pushing the depth-0
        # corrector forward through the transpose, truncations aligned
        mp = ctx.mp
        at = intmat.mat_transpose(periodic4.step_matrix)
        depth_total = 9
        res0 = correct_bv(extras_cocycle, periodic4, splitting4,
                          depth=depth_total, renormalizer=renorm4)
        for level in (1, 2, 3):
            state = renorm4.to_depth(extras_cocycle, level)
            res_l = correct_bv(state.cocycle, periodic4, splitting4,
                               depth=depth_total - level, renormalizer=renorm4)
            pushed = list(res0.h[0])
            for _ in range(level):
                pushed = [mp.fsum(at[i][j] * pushed[j] for j in range(4))
                          for i in range(4)]
            diff = max(abs(a - b) for a, b in zip(pushed, res_l.h[0]))
            assert diff < mp.mpf(2) ** -60

    def test_mean_preserved(self, ctx, periodic4, splitting4, renorm4,
                            extras_cocycle):
        res = correct_bv(extras_cocycle, periodic4, splitting4, depth=10,
                         renormalizer=renorm4)
        m = mean(res.corrected, periodic4.iet)
        assert abs(m[0]) < ctx.mp.mpf(2) ** -80
        # the corrector itself is mean-free against the lengths
        ip = ctx.mp.fsum(h * l for h, l in zip(res.h[0], periodic4.lengths))
        assert abs(ip) < ctx.mp.mpf(2) ** -80

    def test_corrector_in_unstable_span(self, ctx, periodic4, splitting4,
                                        renorm4, extras_cocycle):
        res = correct_bv(extras_cocycle, periodic4, splitting4, depth=10,
                         renormalizer=renorm4)
        cs, cc, cu = splitting4.components(res.h[0])
        tol = ctx.mp.mpf(2) ** -60
        assert max((abs(c) for c in cs + cc), default=0) < tol

    def test_zero_cocycle(self, ctx, periodic4, splitting4, renorm4):
        phi = StepCocycle.from_vector((0, 0, 0, 0))
        res = correct_bv(phi, periodic4, splitting4, depth=5,
                         renormalizer=renorm4)
        assert float(res.h_norm()) == 0


class TestGrowth:
    def test_corrected_growth_controlled(self, ctx, periodic4, splitting4,
                                         renorm4, extras_cocycle):
        res = correct_bv(extras_cocycle, periodic4, splitting4,
                         renormalizer=renorm4)
        curve = growth_check(res, periodic4, 10, renorm4)
        raw = renorm_sup_curve(extras_cocycle, periodic4, 10, renorm4)
        assert float(curve.bounded_estimate) < 3 * float(raw.sups[0]) + 1
        assert float(curve.sups[-1]) < float(raw.sups[-1])

    def test_central_vector_growth_constant(self, ctx, periodic5, splitting5,
                                            renorm5):
        v3 = (-1, -2, 0, -1, 1)
        res = correct_step(v3, splitting5, periodic5)
        curve = growth_check(res, periodic5, 8, renorm5)
        assert all(s == curve.sups[0] for s in curve.sups)

    def test_pl_correction_tames_growth(self, ctx, periodic4, splitting4,
                                        renorm4):
        pl = PiecewiseLinearCocycle.constant_slope(
            (ctx.real(1),), tuple((ctx.real(c),) for c in (0.4, -0.1, 0.2, -0.3)))
        pl = zero_mean_version(pl, periodic4.iet)
        res = correct_bv(pl, periodic4, splitting4, renormalizer=renorm4)
        cor = growth_check(res, periodic4, 10, renorm4)
        raw = renorm_sup_curve(pl, periodic4, 10, renorm4)
        assert float(cor.sups[-1]) < float(raw.sups[-1]) / 10

    @pytest.mark.parametrize("k_max", [0, -2])
    def test_k_max_below_one_rejected(self, periodic5, splitting5, renorm5,
                                      k_max):
        phi = StepCocycle.from_vector((-1, -2, 0, -1, 1))
        with pytest.raises(DomainError, match=">= 1"):
            renorm_sup_curve(phi, periodic5, k_max, renorm5)
        res = correct_step((-1, -2, 0, -1, 1), splitting5, periodic5)
        with pytest.raises(DomainError, match=">= 1"):
            growth_check(res, periodic5, k_max, renorm5)
