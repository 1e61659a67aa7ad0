"""Fixed spaces, essential-value probes, classification, skew products."""

import math

import numpy as np
import pytest

from iet_lab import ergodicity as ergodicity_module
from iet_lab import intmat
from iet_lab.cocycles import (FLOAT_BLOCK, ExactWalker,
                              PiecewiseLinearCocycle, StepCocycle,
                              deviation_sweep, float_table, zero_mean_version)
from iet_lab.ergodicity import (CENTRAL_UNDETERMINED, COBOUNDARY,
                                NOT_COBOUNDARY, RecurrenceStats,
                                build_fixed_cocycle, coboundary_classify,
                                compose_linear, dense_image_matrix,
                                essential_value_probe, fixed_space_basis,
                                lattice_containment, skew_simulate,
                                special_flow_step, _at_least, _statistics,
                                _thresholds, _BIN_FLOORS)
from iet_lab.errors import (DomainError, EmptyFixedSpace, NearBreakpoint,
                            NotZeroMean)
from iet_lab.precision import kronecker_samples

QUARTER = FLOAT_BLOCK // 4  # walks of lengths near its multiples: one chunk


class TestFixedSpace:
    def test_five_letter_basis(self, periodic5):
        basis = fixed_space_basis(periodic5)
        assert basis.k == 1
        v = basis.vectors[0]
        assert v in ((1, 2, 0, 1, -1), (-1, -2, 0, -1, 1))
        assert basis.generates_lattice
        assert basis.kappa == 2
        assert not basis.exceeds_minimum  # k == kappa - 1

    def test_grouped_system_empty(self, periodic4):
        # the 4x4 matrix has no unit eigenvalue: charpoly(1) = 6
        assert intmat.charpoly(periodic4.matrix) == (1, -26, 56, -26, 1)
        with pytest.raises(EmptyFixedSpace):
            fixed_space_basis(periodic4)

    def test_fixed_vectors_exact(self, periodic5):
        basis = fixed_space_basis(periodic5)
        at = intmat.mat_transpose(periodic5.step_matrix)
        for v in basis.vectors:
            assert tuple(intmat.mat_vec(at, v)) == v

    def test_letter_vectors_generate(self, periodic5):
        basis = fixed_space_basis(periodic5)
        d_snf, _u, _v = intmat.smith_normal_form(
            [list(w) for w in basis.letter_vectors])
        diag = [d_snf[i][i] for i in range(min(len(d_snf), len(d_snf[0])))]
        assert all(x == 1 for x in diag[:basis.k])


class TestFixedCocycle:
    def test_zero_mean(self, ctx, periodic5):
        basis = fixed_space_basis(periodic5)
        phi = build_fixed_cocycle(basis)
        from iet_lab.cocycles import mean

        m = mean(phi, periodic5.iet)
        assert all(abs(v) < ctx.eps_cmp * 64 for v in m)

    def test_probe_returns_letter_vectors_exactly(self, periodic5, renorm5):
        basis = fixed_space_basis(periodic5)
        phi = build_fixed_cocycle(basis)
        report = essential_value_probe(phi, periodic5, 5, renorm5)
        assert not report.contaminated_levels
        candidate_values = {tuple(int(x) for x in val)
                            for val, _cnt, _meas in report.candidates}
        expected = {tuple(w) for w in basis.letter_vectors}
        assert candidate_values == expected
        # stationarity: candidates survive every tested depth
        for _val, count, measure in report.candidates:
            assert count == 6
            assert measure > 0

    def test_climb_values_are_integer_exact(self, periodic5, renorm5):
        basis = fixed_space_basis(periodic5)
        phi = build_fixed_cocycle(basis)
        state = renorm5.start(phi)
        for _depth in range(4):
            state = renorm5.advance(state)
            for a in range(5):
                assert state.cocycle.values[a] == basis.letter_vectors[a]

    def test_linear_composition(self, periodic5):
        basis = fixed_space_basis(periodic5)
        phi = build_fixed_cocycle(basis)
        rows = ((2.0,),)  # 1 x 1, keeps dimension
        out = compose_linear(rows, phi)
        assert out.dim == 1
        assert out.values[0][0] == 2.0 * phi.values[0][0]

    def test_dense_image_matrix_shape(self):
        rows = dense_image_matrix(3)
        assert len(rows) == 2 and len(rows[0]) == 3


class TestProbe:
    def test_contracting_vector_probes_to_zero(self, ctx, periodic5,
                                               splitting5, renorm5):
        v4 = tuple(splitting5.basis_s[0])
        phi = StepCocycle.from_vector(v4)
        report = essential_value_probe(phi, periodic5, 8, renorm5)
        late = [p for p in report.pieces if p.level == 8]
        assert late
        worst = max(max(abs(float(x)) for x in p.value) for p in late)
        assert worst < 1e-6

    def test_corrected_extras_pattern(self, ctx, periodic4, splitting4,
                                      renorm4, gammas):
        from iet_lab.correction import correct_bv

        jumps = ((1.0,), (2.0,), (-3.0,))
        phi = StepCocycle(1, ((1,), (-1,), (2,), (0,)),
                          tuple((g, j) for g, j in zip(gammas, jumps)))
        phi = zero_mean_version(phi, periodic4.iet)
        res = correct_bv(phi, periodic4, splitting4, renormalizer=renorm4)
        report = essential_value_probe(res.corrected, periodic4, 6, renorm4)
        # pieces adjacent across a pulled jump differ by that jump vector
        by_key = {}
        for p in report.pieces:
            by_key.setdefault((p.level, p.letter), []).append(p)
        checked = 0
        state_jumps = {}
        for (lvl, letter), pieces in sorted(by_key.items()):
            pieces.sort(key=lambda p: p.piece_index)
            for p1, p2 in zip(pieces, pieces[1:]):
                delta = float(p2.value[0] - p1.value[0])
                assert any(abs(delta - j[0]) < 1e-9 for j in jumps)
                checked += 1
        assert checked >= 6

    def test_probe_measures_bounded_below(self, periodic5, renorm5):
        # tower masses stay bounded away from zero across depths
        basis = fixed_space_basis(periodic5)
        phi = build_fixed_cocycle(basis)
        report = essential_value_probe(phi, periodic5, 5, renorm5)
        per_level = {}
        for p in report.pieces:
            per_level.setdefault(p.level, []).append(float(p.measure))
        floor = min(per_level[0]) / 2
        assert floor > 0
        for level, measures in per_level.items():
            assert min(measures) > floor


    @pytest.mark.parametrize("n_max", [-1, -4])
    def test_negative_depth_rejected(self, periodic5, renorm5, n_max):
        phi = build_fixed_cocycle(fixed_space_basis(periodic5))
        with pytest.raises(DomainError, match=">= 0"):
            essential_value_probe(phi, periodic5, n_max, renorm5)


class TestClassification:
    def test_five_letter_table(self, ctx, periodic5, splitting5):
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        v2 = (-2, -1 - sq5, 2, 1 + sq5, 0)
        v3 = (-1, -2, 0, -1, 1)
        v4 = (-2, -1 + sq5, 2, 1 - sq5, 0)
        assert coboundary_classify(v4, splitting5, periodic5) == COBOUNDARY
        assert coboundary_classify(v2, splitting5, periodic5) == NOT_COBOUNDARY
        assert coboundary_classify(v3, splitting5, periodic5) \
            == CENTRAL_UNDETERMINED
        assert coboundary_classify((0, 0, 0, 0, 0), splitting5, periodic5) \
            == COBOUNDARY

    def test_mean_guard(self, periodic5, splitting5):
        with pytest.raises(NotZeroMean):
            coboundary_classify((1, 1, 1, 1, 1), splitting5, periodic5)

    def test_coboundary_bounded_dynamically(self, ctx, periodic5, splitting5):
        # bounded sums corroborate the growth classification
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        v4 = (-2, -1 + sq5, 2, 1 - sq5, 0)
        phi = StepCocycle.from_vector(v4)
        prof = deviation_sweep(periodic5.iet, [phi], 1_000_000, samples=3,
                               seed=5, log_power=0)
        norm_a = intmat.norm_col(periodic5.matrix)
        theta = float(mp.log(9 + 4 * sq5))
        c_est = 4.0
        bound = 2 * c_est * norm_a * float(max(abs(x) for x in v4)) \
            / (1 - 2.718281828 ** (-theta))
        assert max(prof.envelope[0]) <= bound

    def test_lattice_containment(self, ctx):
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        plus = StepCocycle.from_vector((-4, -2, 4, 2, 0))
        minus = StepCocycle.from_vector((0, -2 * sq5, 0, 2 * sq5, 0))
        rep1 = lattice_containment(plus, (1,), ctx)
        rep2 = lattice_containment(minus, (sq5,), ctx)
        rep3 = lattice_containment(minus, (1,), ctx)
        assert rep1.contained == (True,)
        assert rep2.contained == (True,)
        assert rep3.contained == (False,)


class TestSkewSimulate:
    def test_zero_cocycle_always_returns(self, ctx, periodic4):
        phi = StepCocycle.from_vector((0, 0, 0, 0))
        samples = kronecker_samples(ctx, 5, periodic4.iet.total, 1)
        stats = skew_simulate(periodic4.iet, phi, samples, 500,
                              eps_list=(0.5, 0.1))
        n_used = stats.sample_count
        assert stats.hits[0.1] == 500 * n_used
        assert stats.zero_returns == 500 * n_used

    def test_nonzero_mean_escapes(self, ctx, periodic4):
        phi = StepCocycle.from_vector((1, 1, 1, 1))
        samples = kronecker_samples(ctx, 3, periodic4.iet.total, 2)
        stats = skew_simulate(periodic4.iet, phi, samples, 300)
        assert min(stats.min_norms) >= 1.0
        assert stats.hits[0.5] == 0

    def test_recurrence_evidence_zero_mean(self, ctx, periodic4, splitting4):
        # zero-mean 2-dim cocycle over the grouped system: returns happen
        mp = ctx.mp
        v1 = tuple(splitting4.basis_s[0])
        v2 = tuple(splitting4.basis_s[1])
        phi = StepCocycle(2, tuple((a, b) for a, b in zip(v1, v2)))
        samples = kronecker_samples(ctx, 4, periodic4.iet.total, 3)
        stats_short = skew_simulate(periodic4.iet, phi, samples, 2000,
                                    eps_list=(0.25,))
        stats_long = skew_simulate(periodic4.iet, phi, samples, 20000,
                                   eps_list=(0.25,))
        assert stats_long.hits[0.25] > stats_short.hits[0.25] > 0

    def test_hits_monotone_in_eps(self, ctx, periodic4):
        phi = StepCocycle(1, ((0.3,), (-0.2,), (0.1,), (-0.15,)))
        phi = zero_mean_version(phi, periodic4.iet)
        samples = kronecker_samples(ctx, 4, periodic4.iet.total, 4)
        stats = skew_simulate(periodic4.iet, phi, samples, 3000,
                              eps_list=(0.5, 0.1, 0.02))
        assert stats.hits[0.5] >= stats.hits[0.1] >= stats.hits[0.02]

    def test_skips_start_just_right_of_jump(self, ctx, periodic4):
        gamma = ctx.real("0.21")
        phi = StepCocycle(1, ((1,), (-1,), (2,), (0,)), ((gamma, (1,)),))
        near = skew_simulate(periodic4.iet, phi, [gamma + ctx.real("1e-12")],
                             100)
        clear = skew_simulate(periodic4.iet, phi, [gamma + ctx.real("1e-6")],
                              100)
        assert (near.skipped_samples, near.sample_count) == (1, 0)
        assert (clear.skipped_samples, clear.sample_count) == (0, 1)

    def test_skips_start_in_left_guard_at_step_zero(self, ctx, periodic4):
        phi = StepCocycle.from_vector((1, -1, 2, 0))
        left = periodic4.iet.left[1]
        near = skew_simulate(periodic4.iet, phi, [left + ctx.real("1e-12")],
                             100)
        clear = skew_simulate(periodic4.iet, phi, [left + ctx.real("1e-6")],
                              100)
        assert (near.skipped_samples, near.sample_count) == (1, 0)
        assert (clear.skipped_samples, clear.sample_count) == (0, 1)

    def test_skipped_sample_adds_nothing(self, ctx, periodic4):
        # the 50th iterate lies 1e-12 right of a left endpoint: the 50
        # steps walked before the guard hit must not count
        iet = periodic4.iet
        back = ExactWalker.from_point(iet.inverse,
                                      iet.left[1] + ctx.real("1e-12"))
        back.run(50)
        x0 = back.point()
        phi = StepCocycle.from_vector((0, 0, 0, 0))
        stats = skew_simulate(iet, phi, [x0], 100, eps_list=(0.5,))
        assert (stats.skipped_samples, stats.sample_count) == (1, 0)
        assert stats.hits == {0.5: 0}
        assert stats.zero_returns == 0
        assert sum(stats.histogram) == 0


def scalar_bin(norm):
    return 0 if norm <= 1e-6 else min(9, int(6 + math.floor(math.log10(norm)))
                                      + 1)


def thirteen_passes(norms, eps_sorted):
    """(hits, histogram, zero returns) of one chunk of norms by one pass
    per bin floor, eps and zero: the rule the pruned counts replace."""
    above = [np.count_nonzero(norms >= f) for f in _BIN_FLOORS]
    histogram = (-np.diff([len(norms), *above, 0])).tolist()
    hits = {e: int(np.count_nonzero(norms < e)) for e in eps_sorted}
    return hits, histogram, int(np.count_nonzero(norms == 0.0))


def pruned_statistics(norms, eps_sorted):
    """``_skew_sample``'s statistics of one chunk of norms."""
    thresholds = _thresholds(eps_sorted)
    least, at_least = _at_least(norms, thresholds)
    assert least == norms.min()
    return _statistics(len(norms), at_least, thresholds, eps_sorted)


def skew_oracle(iet, cocycle, x0_list, n_steps, step_walk,
                eps_list=(0.5, 0.1, 0.02), seed=0):
    """Per-step ``skew_simulate``: one displacement update, norm, eps
    scan and decade bin per orbit step."""
    mirror = iet.mirror
    table = float_table(cocycle, iet)
    dim = cocycle.dim
    vals, consts = table.values, table.constants
    eps_sorted = sorted(set(eps_list), reverse=True)
    hits = {e: 0 for e in eps_sorted}
    histogram = [0] * 10
    min_norms = []
    skipped = 0
    zero_returns = 0
    for x0 in x0_list:
        disp = [0.0] * dim
        best = None
        s_hits = {e: 0 for e in eps_sorted}
        s_histogram = [0] * 10
        s_zero = 0
        try:
            for lo, xf in step_walk(mirror, float(x0), n_steps, [table]):
                if consts is not None:
                    for i in range(dim):
                        disp[i] += vals[i][lo] * xf + consts[i][lo]
                else:
                    for i in range(dim):
                        disp[i] += vals[i][lo]
                    for slot, gf, j in table.jumps:
                        if slot == lo and xf >= gf:
                            for i in range(dim):
                                disp[i] += j[i]
                norm = max(abs(v) for v in disp)
                if best is None or norm < best:
                    best = norm
                for e in eps_sorted:
                    if norm < e:
                        s_hits[e] += 1
                    else:
                        break
                if norm == 0.0:
                    s_zero += 1
                s_histogram[scalar_bin(norm)] += 1
        except NearBreakpoint:
            skipped += 1
            continue
        for e in eps_sorted:
            hits[e] += s_hits[e]
        histogram = [h + s for h, s in zip(histogram, s_histogram)]
        zero_returns += s_zero
        min_norms.append(best)
    return RecurrenceStats(n_steps, len(min_norms), skipped,
                           tuple(min_norms), hits, tuple(histogram),
                           zero_returns, seed)


class TestBlockSkew:
    """The block skew product gives the per-step loop's stats, ``==``."""

    @pytest.mark.parametrize("kind", ["step-two-jumps-one-slot", "pl"])
    @pytest.mark.parametrize("n", [1, 2, 100, QUARTER + 1, 2 * QUARTER + 5,
                                   FLOAT_BLOCK + 1])
    def test_matches_per_step_loop(self, ctx, periodic4, step_walk,
                                   lane_cocycles4, kind, n):
        iet = periodic4.iet
        phi = lane_cocycles4[kind]
        starts = kronecker_samples(ctx, 3, iet.total, 2)
        eps = (0.5, 0.1, 0.02, 1e-3)
        block = skew_simulate(iet, phi, starts, n, eps)
        assert block.sample_count == 3
        assert block == skew_oracle(iet, phi, starts, n, step_walk, eps)

    def test_guard_hits_skipped_alike(self, ctx, periodic4, step_walk,
                                      lane_cocycles4, guard_hit_starts):
        iet = periodic4.iet
        starts = list(guard_hit_starts.values())
        starts += kronecker_samples(ctx, 2, iet.total, 8)
        for phi in lane_cocycles4.values():
            block = skew_simulate(iet, phi, starts, 2 * FLOAT_BLOCK + 5)
            assert (block.skipped_samples, block.sample_count) == \
                (len(guard_hit_starts), 2)
            assert block == skew_oracle(iet, phi, starts,
                                        2 * FLOAT_BLOCK + 5, step_walk)

    def test_eps_on_attained_norms(self, ctx, periodic5, step_walk):
        # integer sums: norms land exactly on the eps values, and an
        # unsorted list with a value above every norm
        iet = periodic5.iet
        phi = build_fixed_cocycle(fixed_space_basis(periodic5))
        starts = kronecker_samples(ctx, 4, iet.total, 0)
        eps = (1.0, 3.0, 0.0, 2.0, 1e9, 0.5)
        block = skew_simulate(iet, phi, starts, 3000, eps)
        # norm < eps is strict: a norm of 1 counts for 2 but not for 1
        assert block.hits[2.0] > block.hits[1.0] == block.zero_returns > 0
        assert block.hits[0.0] == 0
        assert block == skew_oracle(iet, phi, starts, 3000, step_walk, eps)

    def test_decade_bins_match_log10_rule(self):
        """The histogram counts each norm in its ``scalar_bin``: 64 ulps
        either side of every power of ten, every bin floor and 1e-6 and
        one ulp either side, 0.0 and norms from 1e2 up."""
        norms = [0.0, 1e-6, 1e2, 1e5, 1e300]
        for k in range(-6, 4):
            x = up = 10.0 ** k
            for _ in range(64):
                x = math.nextafter(x, 0.0)
                up = math.nextafter(up, math.inf)
                norms += [x, up]
            norms.append(10.0 ** k)
        for edge in [1e-6, *_BIN_FLOORS.tolist()]:
            norms += [math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, math.inf)]
        for n in norms:  # each norm alone: one count, in its bin
            assert pruned_statistics(np.array([n]), ())[1] == \
                [int(k == scalar_bin(n)) for k in range(10)]
        want = np.bincount([scalar_bin(n) for n in norms], minlength=10)
        assert pruned_statistics(np.array(norms), ())[1] == want.tolist()
        assert thirteen_passes(np.array(norms), ())[1] == want.tolist()

    @pytest.mark.parametrize("norms, eps", [
        ([0.0] * 5, (0.5, 0.1)),
        ([100.0, 1e3, 1e300, 100.0], (0.5, 1e9)),
        ([f for edge in _BIN_FLOORS.tolist()
          for f in (edge, math.nextafter(edge, 0.0))], (0.5, 0.1, 0.02)),
        ([0.0, 1.0, 2.0, 2.0, 3.0, 0.0], (3.0, 2.0, 1.0, 0.5)),
        ([0.0, 0.25, 1.5, 0.0], (0.0, 0.25)),
        ([0.37], (0.5, 0.1, 0.02)),
        ([5e-324, 0.0, 1e-300, 2.0], (1e-300, 0.0)),
    ], ids=["all-zeros", "all-at-least-100", "floors-and-ulp-below",
            "eps-on-norms", "eps-zero", "one-norm", "tiny-norms"])
    def test_pruned_counts_match_thirteen_passes(self, norms, eps):
        """Counting only the thresholds inside (least, greatest] and above
        the least positive norm gives the per-threshold passes' hits,
        histogram and zero returns, ``==``."""
        eps_sorted = sorted(set(eps), reverse=True)
        norms = np.array(norms)
        assert pruned_statistics(norms, eps_sorted) == \
            thirteen_passes(norms, eps_sorted)

    def test_non_finite_last_norm_is_an_error(self, ctx, periodic5,
                                              monkeypatch):
        """The last norm of a chunk decides: inf there raises DomainError
        before any statistic is counted."""
        iet = periodic5.iet
        phi = build_fixed_cocycle(fixed_space_basis(periodic5))
        starts = kronecker_samples(ctx, 1, iet.total, 0)
        calls, at_least = [], ergodicity_module._at_least
        monkeypatch.setattr(ergodicity_module, "_at_least",
                            lambda *args: calls.append(args)
                            or at_least(*args))
        with pytest.raises(DomainError, match="overflow"):
            skew_simulate(iet, StepCocycle.from_vector(
                (1e308, 1e308, 1e308, 1e308, 1e308)), starts, 100)
        assert calls == []
        assert skew_simulate(iet, phi, starts, 100).sample_count == 1
        assert calls

    @pytest.mark.parametrize("values", [(1e308, 1e308, 1e308, 1e308),
                                        (1e308, -1e308, 1e308, -1e308)],
                             ids=["inf", "nan"])
    def test_overflow_is_an_error(self, ctx, periodic4, values):
        phi = StepCocycle.from_vector(values)
        starts = kronecker_samples(ctx, 2, periodic4.iet.total, 0)
        with pytest.raises(DomainError, match="overflow"):
            skew_simulate(periodic4.iet, phi, starts, 100)


class TestSpecialFlow:
    @pytest.fixture()
    def roof(self, ctx, periodic4):
        return PiecewiseLinearCocycle.constant_slope(
            (ctx.real("0.25"),),
            tuple((ctx.real(c),) for c in (1.0, 1.5, 1.25, 2.0)))

    def test_zero_time_identity(self, ctx, periodic4, roof):
        state = (ctx.real("0.3"), ctx.real("0.4"))
        out = special_flow_step(periodic4.iet, roof, state, 0)
        assert out == state

    def test_semigroup(self, ctx, periodic4, roof):
        state = (ctx.real("0.3"), ctx.real("0.2"))
        t1, t2 = ctx.real("1.7"), ctx.real("2.9")
        one = special_flow_step(periodic4.iet, roof, state, t1 + t2)
        two = special_flow_step(periodic4.iet, roof,
                                special_flow_step(periodic4.iet, roof, state, t1),
                                t2)
        assert abs(one[0] - two[0]) < ctx.eps_cmp * 16
        assert abs(one[1] - two[1]) < ctx.eps_cmp * 16

    def test_constant_roof_time_one_is_base_map(self, ctx, periodic4):
        roof = PiecewiseLinearCocycle.constant_slope(
            (ctx.real(0),), tuple((ctx.real(1),) for _ in range(4)))
        x = ctx.real("0.37")
        out = special_flow_step(periodic4.iet, roof, (x, ctx.real(0)), 1)
        step = ExactWalker.from_point(periodic4.iet, x)
        step.run(1)
        assert out[0] == step.point()
        assert out[1] == 0

    def test_backward_flow(self, ctx, periodic4, roof):
        state = (ctx.real("0.3"), ctx.real("0.2"))
        fwd = special_flow_step(periodic4.iet, roof, state, ctx.real("2.3"))
        back = special_flow_step(periodic4.iet, roof, fwd, ctx.real("-2.3"))
        assert abs(back[0] - state[0]) < ctx.eps_cmp * 16
        assert abs(back[1] - state[1]) < ctx.eps_cmp * 16
