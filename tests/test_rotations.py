"""Circle rotations on the exact dyadic grid."""

import math
from fractions import Fraction

import numpy as np
import pytest

from iet_lab import rotations
from iet_lab.errors import DomainError, RationalInput
from iet_lab.precision import geometric_checkpoints, least_squares_slope
from iet_lab.rotations import (GRID, CircleStep, VariationBoundReport,
                               continued_fraction, denjoy_koksma_check,
                               dyadic_rotation, exact_dyadic_cf,
                               half_indicator, product_rotation_simulate,
                               three_distance_gaps)

GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2M1 = math.sqrt(2) - 1
PI_M3 = math.pi - 3   # partial quotients 7, 15, 1, 292, ...

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


def random_zero_mean_step(seed):
    """Seeded zero-mean step function with 2 to 8 breakpoints.

    A sum of one or two terms c * (indicator of an arc minus indicator of
    its translate), each with 2 (half circle), 3 (adjacent arcs) or 4
    breakpoints, plus unused breakpoints up to 8; scale 1 to 3.
    """
    rng = np.random.default_rng(seed)
    arcs = []       # (start, width, weight)
    for _ in range(int(rng.integers(1, 3))):
        a, w, t = (int(v) for v in rng.integers(1, GRID // 2, 3))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            w = t = GRID // 2
        elif kind == 1:
            t = w
        c = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
        arcs += [(a, w, c), ((a + t) % GRID, w, -c)]
    cuts = {b % GRID for a, w, _ in arcs for b in (a, a + w)}
    while len(cuts) < 8 and rng.integers(0, 2):
        cuts.add(int(rng.integers(0, GRID)))
    bps = sorted(cuts)
    values = [sum(c for a, w, c in arcs if (b - a) % GRID < w) for b in bps]
    phi = CircleStep(tuple(bps), tuple(values), scale=int(rng.integers(1, 4)))
    assert 2 <= len(bps) <= 8 and phi.mean_numerator() == 0
    return phi


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
    checkpoints = geometric_checkpoints(limit, 1.5)
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
        least_squares_slope([(math.log(math.log(n)), math.log(s / phi.scale))
                             for n, s in zip(checkpoints, sup)
                             if n >= 8 and s > 0]))


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

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(DomainError, match=">= 1"):
            denjoy_koksma_check(half_indicator(), GOLDEN, depth=depth,
                                samples=5)

    def test_zero_samples_still_valid(self):
        rep = denjoy_koksma_check(half_indicator(), GOLDEN, depth=3,
                                  samples=0)
        assert rep.sample_count == 0 and len(rep.denominators) == 3

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

    @pytest.mark.parametrize("seed", [1, 616, 623, 630])
    @pytest.mark.parametrize("name", list(STEP_FUNCTIONS))
    def test_denominator_on_block_edge(self, monkeypatch, name, seed):
        # 7 seeded starts walked to q = 144, past q = 89.  Stops at the
        # denominators and sup checkpoints leave segments of at most 36
        # steps, [108, 144), so depths 0 (a per-step walk) to 5 (blocks
        # of up to 32 steps) are every chunking the walk can use
        phi = STEP_FUNCTIONS[name]
        ref = per_sample_dk(phi, GOLDEN, 40, 7, 200, seed)
        assert ref.denominators[-2:] == (89, 144)
        for depth in range(6):
            monkeypatch.setattr(rotations, "_DK_TABLE_DEPTH", depth)
            assert denjoy_koksma_check(phi, GOLDEN, 40, 7, 200, seed) == ref

    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2M1, PI_M3],
                             ids=["golden", "sqrt2", "pi"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_zero_mean_family(self, seed, alpha):
        phi = random_zero_mean_step(seed)
        for n_max in (10 ** 3, 10 ** 5):
            assert (denjoy_koksma_check(phi, alpha, 40, 7, n_max, seed)
                    == per_sample_dk(phi, alpha, 40, 7, n_max, seed))

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


class TestDoublingTables:
    """Each table T_k against direct partial sums of 2^k orbit steps."""

    @pytest.mark.parametrize("alpha", [GOLDEN, SQRT2M1, PI_M3],
                             ids=["golden", "sqrt2", "pi"])
    @pytest.mark.parametrize("name", list(STEP_FUNCTIONS))
    def test_tables_match_cumsum(self, name, alpha):
        phi = STEP_FUNCTIONS[name]
        step = dyadic_rotation(alpha)
        tables = rotations._block_tables(phi, step, 6)
        rng = np.random.default_rng(3)
        edges = tables[-1][0]
        # left of the first breakpoint lies the piece that wraps through 0
        left = np.arange(min(phi.breakpoints[0], 20), dtype=np.uint64)
        x = np.concatenate([edges, (edges - np.uint64(1)) & rotations._MASK,
                            np.array([0, GRID - 1], dtype=np.uint64), left,
                            rng.integers(0, GRID, 500, dtype=np.uint64)])
        walk = (rotations._grid_positions(0, step, 64)[None, :]
                + x[:, None]) & rotations._MASK
        sums = np.cumsum(searchsorted_sample(phi, walk), axis=1)
        for k, table in enumerate(tables):
            part = sums[:, :1 << k]
            got = rotations._lookup(table, x)
            assert len(table[0]) <= len(phi.breakpoints) << k
            assert np.array_equal(got[0], part[:, -1])
            assert np.array_equal(got[1], part.max(axis=1))
            assert np.array_equal(got[2], part.min(axis=1))


class TestCircleStepInput:
    @pytest.mark.parametrize("breakpoints, values, scale", [
        ((0, GRID // 2), (0.5, -0.5), 1),
        ((0, GRID // 2), (1, np.int64(-1)), 1),
        ((-5, GRID // 2), (1, -1), 1),
        ((0, GRID + 4), (1, -1), 1),
        ((0, float(GRID // 2)), (1, -1), 1),
        ((), (), 1),
        ((0, GRID // 2), (1, -1), 0),
    ], ids=["half-values", "numpy-value", "negative-breakpoint",
            "breakpoint-past-grid", "float-breakpoint", "empty", "zero-scale"])
    def test_rejected(self, breakpoints, values, scale):
        with pytest.raises(DomainError):
            CircleStep(breakpoints, values, scale)

    def test_grid_edges_accepted(self):
        phi = CircleStep((0, GRID - 1), (1, -1))
        assert phi.mean_numerator() == GRID - 2

    @pytest.mark.parametrize("values", [(2 ** 62, 2 ** 62, -2 ** 62),
                                        (2 ** 64, 0, -2 ** 64),
                                        (2 ** 38, -2 ** 38, 0)],
                             ids=["wraps-int64", "past-int64", "first-refused"])
    def test_values_whose_sums_leave_int64_rejected(self, values):
        with pytest.raises(DomainError, match="strictly between"):
            CircleStep((0, GRID // 4, GRID // 2), values)

    def test_largest_values_sum_exactly(self):
        # (v, -v) is v times (1, -1): every sum scales by v, none wraps
        v = 2 ** 38 - 1
        unit = denjoy_koksma_check(half_indicator(), GOLDEN, depth=20,
                                   samples=20, n_max=10 ** 5)
        big = denjoy_koksma_check(CircleStep((0, GRID // 2), (v, -v), 2),
                                  GOLDEN, depth=20, samples=20, n_max=10 ** 5)
        assert big.max_abs == {q: v * s for q, s in unit.max_abs.items()}
        assert big.sup_curve == tuple((n, v * s) for n, s in unit.sup_curve)


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
                                        half_indicator(), 10_000)
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

    def test_sums_past_int64_refused(self):
        # 2^26 steps of |value| 2^37 can reach 2^63: refused before walking
        phi = CircleStep((0, GRID // 2), (2 ** 37, -2 ** 37))
        with pytest.raises(DomainError, match="overflow"):
            product_rotation_simulate(GOLDEN, SQRT2M1, half_indicator(), phi,
                                      1 << 26)

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
