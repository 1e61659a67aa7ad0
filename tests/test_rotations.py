"""Circle rotations on the exact dyadic grid."""

import math
from fractions import Fraction

import numpy as np
import pytest

from iet_lab import rotations
from iet_lab.errors import DomainError, RationalInput
from iet_lab.rotations import (GRID, CircleStep, VariationBoundReport,
                               continued_fraction, denjoy_koksma_check,
                               dyadic_rotation, exact_dyadic_cf,
                               half_indicator, product_rotation_simulate,
                               three_distance_gaps)

GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2M1 = math.sqrt(2) - 1

STEP_FUNCTIONS = {
    "half": half_indicator(),
    "zero": CircleStep((0, GRID // 2), (0, 0), scale=1),
    "four-piece": CircleStep((0, GRID // 4, GRID // 2, 3 * GRID // 4),
                             (1, -1, 1, -1), scale=1),
    "shifted": CircleStep((3, GRID // 2 + 3), (1, -1), scale=2),
    "three-piece": CircleStep((0, GRID // 4, GRID // 2), (3, -1, -1), scale=3),
}


def searchsorted_sample(phi, positions):
    """Reference evaluator: the interval of each position by bisection."""
    bps = np.array(phi.breakpoints, dtype=np.uint64)
    idx = np.searchsorted(bps, positions, side="right") - 1
    idx = np.where(idx < 0, len(phi.breakpoints) - 1, idx)
    return np.array(phi.values, dtype=np.int64)[idx]


def per_sample_dk(phi, alpha, depth, samples, n_max, seed=0):
    """Reference Denjoy-Koksma check: one full walk per sample start."""
    step = dyadic_rotation(alpha)
    quots = exact_dyadic_cf(step, GRID)
    dens = []
    q_prev, q_cur = 0, 1
    for a in quots:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if n_max is not None and q_cur > n_max:
            break
        dens.append(q_cur)
        if len(dens) >= depth:
            break
    limit = dens[-1] if dens else 1
    var = phi.variation()
    bound = var * phi.scale
    starts = rotations._grid_samples(samples, seed)
    max_abs = {q: 0 for q in dens}
    violations = 0
    checkpoints = rotations._log_checkpoints(limit)
    sup = [0] * len(checkpoints)
    base = rotations._grid_positions(0, step, limit)
    for x0 in starts:
        sums = np.cumsum(searchsorted_sample(
            phi, (base + np.uint64(x0)) & rotations._MASK))
        for q in dens:
            max_abs[q] = max(max_abs[q], abs(int(sums[q - 1])))
            violations += abs(int(sums[q - 1])) > bound
        running = np.maximum.accumulate(np.abs(sums))
        sup = [max(s, int(running[n - 1])) for s, n in zip(sup, checkpoints)]
    return VariationBoundReport(
        tuple(dens), tuple(quots[:len(dens)]),
        {q: Fraction(v, phi.scale) for q, v in max_abs.items()}, var,
        violations, len(starts),
        tuple((n, Fraction(s, phi.scale)) for n, s in zip(checkpoints, sup)),
        rotations._sup_log_slope(checkpoints, sup, phi.scale))


class TestContinuedFraction:
    def test_golden_all_ones(self, ctx):
        cf = continued_fraction((ctx.mp.sqrt(5) - 1) / 2, 25, ctx)
        assert all(a == 1 for a in cf.quotients)
        fib = [1, 2]
        while len(fib) < 25:
            fib.append(fib[-1] + fib[-2])
        assert list(cf.denominators) == fib[:25]
        assert cf.is_bpq

    def test_sqrt2_all_twos(self, ctx):
        cf = continued_fraction(ctx.mp.sqrt(2) - 1, 20, ctx)
        assert all(a == 2 for a in cf.quotients)
        # q_{n+1} = 2 q_n + q_{n-1}
        q = cf.denominators
        for i in range(2, len(q)):
            assert q[i] == 2 * q[i - 1] + q[i - 2]

    def test_rational_rejected(self, ctx):
        with pytest.raises(RationalInput):
            continued_fraction(ctx.real(1) / 3, 10, ctx)

    def test_dyadic_agrees_with_real(self, ctx):
        step = dyadic_rotation(GOLDEN)
        dcf = exact_dyadic_cf(step, GRID)
        cf = continued_fraction((ctx.mp.sqrt(5) - 1) / 2, 30, ctx)
        assert tuple(dcf[:30]) == cf.quotients[:30]


class TestVariationBound:
    def test_golden_small_depth(self):
        rep = denjoy_koksma_check(half_indicator(), GOLDEN, depth=20,
                                  samples=40, n_max=10**4)
        assert rep.ok
        assert rep.variation == 2
        assert all(v <= 2 for v in rep.max_abs.values())

    def test_constant_zero(self):
        phi = CircleStep((0, GRID // 2), (0, 0), scale=1)
        rep = denjoy_koksma_check(phi, SQRT2M1, depth=12, samples=10,
                                  n_max=10**4)
        assert rep.ok
        assert all(v == 0 for v in rep.max_abs.values())

    def test_log_growth_finite_slope(self):
        rep = denjoy_koksma_check(half_indicator(), SQRT2M1, depth=15,
                                  samples=30, n_max=10**5)
        assert rep.ok
        assert 0.0 <= rep.log_slope < 5.0

    def test_mean_must_vanish(self):
        phi = CircleStep((0, GRID // 2), (1, 0), scale=1)
        with pytest.raises(DomainError):
            denjoy_koksma_check(phi, GOLDEN, depth=5, samples=5)


class TestBlockKernel:
    """The block-batched check against the per-sample reference walk."""

    @pytest.mark.parametrize("n_max", [1, 2, 50, 10 ** 4])
    @pytest.mark.parametrize("samples", [0, 1, 7, 100])
    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2M1], ids=["golden", "sqrt2"])
    @pytest.mark.parametrize("name", list(STEP_FUNCTIONS))
    def test_reports_equal_reference(self, name, alpha, samples, n_max):
        phi = STEP_FUNCTIONS[name]
        for depth in (3, 40):
            assert (denjoy_koksma_check(phi, alpha, depth, samples, n_max, 5)
                    == per_sample_dk(phi, alpha, depth, samples, n_max, 5))

    @pytest.mark.parametrize("budget", [1, 7 * 88, 7 * 89, 7 * 90])
    @pytest.mark.parametrize("name", list(STEP_FUNCTIONS))
    def test_denominator_on_block_edge(self, monkeypatch, name, budget):
        # 7 samples: blocks of 1, 88, 89 and 90 rows, so q = 89 ends a
        # block, starts one or lies inside one
        monkeypatch.setattr(rotations, "_DK_BLOCK_ELEMENTS", budget)
        phi = STEP_FUNCTIONS[name]
        assert (denjoy_koksma_check(phi, GOLDEN, 40, 7, 200)
                == per_sample_dk(phi, GOLDEN, 40, 7, 200))

    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2M1], ids=["golden", "sqrt2"])
    def test_no_denominator_below_n_max(self, alpha):
        rep = denjoy_koksma_check(half_indicator(), alpha, 10, 7, n_max=0)
        assert rep == per_sample_dk(half_indicator(), alpha, 10, 7, 0)
        assert rep.denominators == () and rep.max_abs == {}

    @pytest.mark.parametrize("samples", [0, 3])
    def test_grid_limit_error_unchanged(self, samples):
        with pytest.raises(DomainError, match="2\\^24") as new:
            denjoy_koksma_check(half_indicator(), GOLDEN, 40, samples)
        with pytest.raises(DomainError) as ref:
            per_sample_dk(half_indicator(), GOLDEN, 40, samples, None)
        assert str(new.value) == str(ref.value)


class TestSample:
    @pytest.mark.parametrize("name", list(STEP_FUNCTIONS))
    def test_matches_searchsorted(self, name):
        phi = STEP_FUNCTIONS[name]
        edges = [0, GRID - 1]
        for b in phi.breakpoints:
            edges += [b, (b - 1) % GRID]
        rng = np.random.default_rng(7)
        pos = np.concatenate([np.array(edges, dtype=np.uint64),
                              rng.integers(0, GRID, 10 ** 5, dtype=np.uint64)])
        ref = searchsorted_sample(phi, pos)
        got = phi.sample(pos)
        assert got.dtype == np.int64 and np.array_equal(got, ref)
        square = pos[:len(pos) // 8 * 8].reshape(-1, 8)
        got2 = phi.sample(square)
        assert got2.shape == square.shape
        assert np.array_equal(got2, ref[:square.size].reshape(square.shape))


class TestProductRotation:
    def test_joint_returns_positive(self):
        rep = product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(),
                                        half_indicator(), 200_000, seed=0)
        assert rep.zero_returns > 0
        assert rep.first_return is not None
        assert rep.return_frequency > 0

    def test_spacing_bounded(self):
        rep = product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(),
                                        half_indicator(), 10_000,
                                        spacing_ns=(100, 1000, 10000))
        lo, hi = rep.spacing_constants
        assert lo > 0.01
        assert hi < 3.0
        assert rep.spacing_ratio < 100

    def test_zero_second_component_reduces(self):
        # a zero second function makes joint returns equal the 1-d returns
        zero = CircleStep((0, GRID // 2), (0, 0), scale=1)
        rep = product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(),
                                        zero, 50_000, seed=1)
        import numpy as np

        from iet_lab.rotations import _MASK, _grid_positions

        start = rep  # joint zeros observed
        s1 = dyadic_rotation(GOLDEN)
        g = (math.sqrt(5) - 1) / 2
        x0 = int((((1 % 997) / 997 + 0.2371) % 1.0) * GRID) & (GRID - 1)
        pos = (_grid_positions(0, s1, 50_000) + np.uint64(x0)) & _MASK
        vals = half_indicator().sample(pos)
        ones = int((np.cumsum(vals) == 0).sum())
        assert rep.zero_returns == ones

    def test_exceptional_start_documented(self):
        # starting exactly on the discontinuity can suppress returns
        rep = product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(),
                                        half_indicator(), 50_000,
                                        start=(0.0, 0.0))
        assert rep.zero_returns == 0


class TestProductEvidence:
    def test_ten_million_step_walk(self):
        # the reference two-rotation lattice walk at full length
        rep = product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(),
                                        half_indicator(), 10 ** 7, seed=0)
        assert rep.zero_returns > 100
        assert rep.return_frequency > 1e-5
        assert all(a == 1 for a in rep.cf1[:20])
        assert all(a == 2 for a in rep.cf2[:20])


class TestThreeDistance:
    @pytest.mark.parametrize("n", [5, 13, 34, 100, 987, 4321])
    def test_at_most_three_gaps(self, n):
        assert len(three_distance_gaps(GOLDEN, n)) <= 3

    @pytest.mark.parametrize("n", [10, 99, 1000])
    def test_other_rotation(self, n):
        assert len(three_distance_gaps(SQRT2M1, n)) <= 3
