"""Induction steps, intersection matrices, periodic-type construction."""

import random
from fractions import Fraction

import pytest

from iet_lab import intmat
from iet_lab.errors import (DomainError, IetLabError, KeaneViolation,
                            NotALoop, NotPrimitive, ReduciblePair)
from iet_lab.perms import make_pair, make_symmetric_pair
from iet_lab.rauzy import (Iet, build_periodic_from_matrix,
                           iterate_induction, keane_check, omega_matrix,
                           rauzy_step, replay_loop)
from iet_lab.precision import as_fraction
from iet_lab.repro import SEVEN_LOOP, SEVEN_LOOP_MATRIX, seven_letter_pair
from iet_lab.shadow import GUARD, FloatMirror
from iet_lab.spectral import singularity_data


def random_irreducible_pair(rng, d):
    while True:
        p0 = list(range(1, d + 1))
        p1 = list(range(1, d + 1))
        rng.shuffle(p0)
        rng.shuffle(p1)
        pair = make_pair(p0, p1)
        if pair.irreducible:
            return pair


class TestOmega:
    def test_symmetric_two(self):
        assert omega_matrix(make_symmetric_pair(2)) == ((0, 1), (-1, 0))

    def test_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            pair = random_irreducible_pair(rng, rng.randint(2, 7))
            om = omega_matrix(pair)
            assert intmat.mat_transpose(om) == tuple(
                tuple(-x for x in row) for row in om)

    def test_rank_symmetric_four(self):
        assert intmat.rank_rational(omega_matrix(make_symmetric_pair(4))) == 4

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePair):
            omega_matrix(make_pair([1, 2, 3], [1, 2, 3]))

    def test_translations_match_omega(self, ctx):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(2, 6)
            pair = random_irreducible_pair(rng, d)
            lam = ctx.vector([rng.uniform(0.2, 1.0) for _ in range(d)])
            iet = Iet(pair, lam)
            om = omega_matrix(pair)
            w = [ctx.mp.fsum(om[a][b] * lam[b] for b in range(d))
                 for a in range(d)]
            for a in range(d):
                assert abs(w[a] - iet.translations[a]) < ctx.eps_cmp


class TestRauzyStep:
    def test_two_letter_example(self, ctx):
        iet = Iet(make_symmetric_pair(2), ctx.vector([3, 1]))
        step, new = rauzy_step(iet)
        assert step.eps == 1
        assert [float(v) for v in new.lengths] == [2.0, 1.0]

    def test_equal_lengths_violate(self, ctx):
        iet = Iet(make_symmetric_pair(2), ctx.vector([1, 1]))
        with pytest.raises(KeaneViolation):
            rauzy_step(iet)

    def test_omega_conjugation_identity(self, ctx):
        rng = random.Random(23)
        for _ in range(25):
            d = rng.randint(2, 8)
            pair = random_irreducible_pair(rng, d)
            lam = ctx.vector([rng.uniform(0.2, 1.0) for _ in range(d)])
            iet = Iet(pair, lam)
            try:
                step, _new = rauzy_step(iet)
            except KeaneViolation:
                continue
            lhs = intmat.matmul(intmat.matmul(
                intmat.mat_transpose(step.theta), omega_matrix(pair)),
                step.theta)
            assert lhs == omega_matrix(step.new_pair)

    def test_theta_unimodular(self, ctx):
        rng = random.Random(7)
        for _ in range(15):
            d = rng.randint(2, 7)
            pair = random_irreducible_pair(rng, d)
            iet = Iet(pair, ctx.vector([rng.uniform(0.2, 1.0) for _ in range(d)]))
            step, _ = rauzy_step(iet)
            assert intmat.det(step.theta) in (1, -1)


class TestInduction:
    def test_zero_steps(self, ctx):
        iet = Iet(make_symmetric_pair(3), ctx.vector([0.5, 0.3, 0.21]))
        run = iterate_induction(iet, 0)
        assert run.theta == intmat.identity(3)
        assert run.final is iet

    @pytest.mark.parametrize("n_steps", [-1, -3])
    def test_negative_steps_rejected(self, ctx, n_steps):
        iet = Iet(make_symmetric_pair(3), ctx.vector([0.5, 0.3, 0.21]))
        with pytest.raises(DomainError, match=">= 0"):
            iterate_induction(iet, n_steps)

    def test_golden_period_two(self, ctx):
        phi = (1 + ctx.mp.sqrt(5)) / 2
        iet = Iet(make_symmetric_pair(2), ctx.vector([phi, 1]))
        run = iterate_induction(iet, 2)
        assert run.theta == ((2, 1), (1, 1))
        # state returns to itself up to scale
        r0 = iet.lengths[0] / run.final.lengths[0]
        r1 = iet.lengths[1] / run.final.lengths[1]
        assert abs(r0 - r1) < ctx.eps_cmp * 8

    def test_reconstruction(self, ctx):
        rng = random.Random(3)
        iet = Iet(make_symmetric_pair(4),
                  ctx.vector([rng.uniform(0.3, 1.0) for _ in range(4)]))
        run = iterate_induction(iet, 12)
        rebuilt = intmat.mat_vec(run.theta, run.final.lengths.values)
        err = max(abs(a - b) for a, b in zip(rebuilt, iet.lengths))
        assert err < 4 * ctx.mp.mpf(2) ** -64

    def test_violation_reports_step(self, ctx):
        iet = Iet(make_symmetric_pair(2), ctx.vector([2, 1]))
        with pytest.raises(KeaneViolation) as info:
            iterate_induction(iet, 10)
        assert info.value.step_index is not None


class TestLoops:
    def test_seven_letter_loop_product(self):
        product, pairs = replay_loop(seven_letter_pair(), SEVEN_LOOP)
        assert product == SEVEN_LOOP_MATRIX
        assert pairs[0] == pairs[-1]

    def test_empty_loop(self):
        with pytest.raises(NotALoop):
            replay_loop(seven_letter_pair(), [])

    def test_open_path(self):
        with pytest.raises(NotALoop):
            replay_loop(seven_letter_pair(), [1, 0, 1])

    def test_not_primitive(self, ctx):
        with pytest.raises(NotPrimitive):
            build_periodic_from_matrix(make_symmetric_pair(2),
                                       [[0, 1], [1, 0]], ctx)

    def test_loop_replay_returns_scaled_lengths(self, ctx, periodic7):
        run = iterate_induction(periodic7.iet, len(SEVEN_LOOP))
        assert run.eps_word == SEVEN_LOOP
        for a in range(7):
            ratio = periodic7.lengths[a] / run.final.lengths[a]
            assert abs(ratio - periodic7.pf_value) < ctx.mp.mpf(2) ** -40


class TestPeriodicInvariants:
    def test_eigen_residual(self, ctx, periodic4, periodic5, periodic7):
        for p in (periodic4, periodic5, periodic7):
            d = p.d
            lam = p.lengths
            res = max(abs(ctx.mp.fsum(p.matrix[i][j] * lam[j] for j in range(d))
                          - p.pf_value * lam[i]) for i in range(d))
            assert res / p.pf_value < ctx.mp.mpf(2) ** -(ctx.bits // 2)

    def test_pf_bracket_encloses(self, periodic4):
        lo, hi = periodic4.pf_bracket
        assert lo <= periodic4.pf_value <= hi

    def test_marker_vectors_fixed(self, periodic5, periodic7):
        for p in (periodic5, periodic7):
            sdata = singularity_data(p.pair)
            a_eff = p.step_matrix
            for orbit, b in sdata.b_vectors.items():
                assert tuple(intmat.mat_vec(a_eff, b)) == tuple(b)

    def test_nesting(self, periodic4, periodic5, periodic7):
        for p in (periodic4, periodic5, periodic7):
            alpha1 = p.first_letter()
            assert p.step_scale ** -1 <= p.lengths[alpha1]

    def test_positive_power_recorded(self, periodic4, periodic5):
        sq = intmat.matpow(periodic4.matrix, periodic4.positive_power)
        assert all(x > 0 for row in sq for x in row)
        assert periodic5.positive_power == 1

    def test_normalized_total(self, ctx, periodic4):
        assert abs(periodic4.lengths.total() - 1) < ctx.mp.mpf(2) ** -100


class TestKeane:
    def test_immediate_collision(self, ctx):
        iet = Iet(make_symmetric_pair(2), ctx.vector([1, 1]))
        report = keane_check(iet, 1)
        assert not report.ok
        assert report.collision[2] == 1

    def test_rational_rotation_collides(self, ctx):
        iet = Iet(make_symmetric_pair(2), ctx.vector([2, 1]))
        report = keane_check(iet, 10)
        assert not report.ok

    def test_periodic_type_clean(self, periodic4):
        report = keane_check(periodic4.iet, 10_000)
        assert report.ok


# ---------------------------------------------------------------------------
# the lattice-derived geometry against the per-letter prefix formulas


def prefix_geometry(iet):
    """(left, right, translations, total) by the O(d^2) prefix formulas."""
    mp, lam, pair, d = iet.ctx.mp, iet.lengths, iet.pair, iet.d
    left = tuple(mp.fsum(lam[b] for b in range(d) if pair.pi0[b] < pair.pi0[a])
                 for a in range(d))
    image_left = tuple(mp.fsum(lam[b] for b in range(d)
                               if pair.pi1[b] < pair.pi1[a])
                       for a in range(d))
    return (left, tuple(left[a] + lam[a] for a in range(d)),
            tuple(image_left[a] - left[a] for a in range(d)), mp.fsum(lam))


def prefix_mirror(iet, geometry):
    """Float mirror rounded from the prefix-formula endpoints."""
    left, right, translations, total = geometry
    order = tuple(sorted(range(iet.d), key=iet.pair.pi0.__getitem__))
    return FloatMirror(tuple(float(left[a]) for a in order),
                       tuple(float(right[a]) for a in order),
                       tuple(float(translations[a]) for a in order),
                       order, GUARD * float(total))


def exact_lefts(iet):
    """The left ends and the total length as exact rationals."""
    lam = [as_fraction(v) for v in iet.lengths]
    pi0 = iet.pair.pi0
    return ([sum(lam[b] for b in range(iet.d) if pi0[b] < pi0[a])
             for a in range(iet.d)], sum(lam))


def scan_interval_index(iet, exact, x):
    """Linear-scan location of x on the exact left ends, as an outcome."""
    left, total = exact
    x = as_fraction(x)
    if x < 0 or x >= total:
        return "DomainError"
    idx = iet.order0[0]
    for a in iet.order0[1:]:
        if left[a] <= x:
            idx = a
        else:
            break
    return idx


def probe_points(iet, rng):
    eps = iet.ctx.eps_cmp
    points = [-eps, iet.total, iet.total - eps / 4]
    for lb in iet.left:
        points += [lb, lb + eps / 4, lb - eps / 4, lb + 2 * eps, lb - 2 * eps]
    points += [iet.total * iet.ctx.real(rng.random()) for _ in range(5)]
    return points


def assert_geometry_matches(iet, rng):
    geometry = prefix_geometry(iet)
    assert (iet.left, iet.right, iet.translations, iet.total) == geometry
    assert iet.mirror == prefix_mirror(iet, geometry)
    exact = exact_lefts(iet)
    for x in probe_points(iet, rng):
        try:
            got = iet.interval_index(x)
        except IetLabError as exc:
            got = type(exc).__name__
        assert got == scan_interval_index(iet, exact, x)


class TestLatticeGeometry:
    def test_bundled_systems(self, periodic4, periodic5, periodic7):
        rng = random.Random(11)
        for p in (periodic4, periodic5, periodic7):
            assert_geometry_matches(p.iet, rng)

    def test_random_exchanges(self, ctx):
        rng = random.Random(12)
        for _ in range(2000):
            pair = random_irreducible_pair(rng, rng.randint(2, 8))
            lengths = [ctx.real(Fraction(rng.randint(1, 10 ** 12),
                                         rng.randint(1, 10 ** 12)))
                       for _ in range(pair.d)]
            assert_geometry_matches(Iet(pair, ctx.vector(lengths)), rng)
