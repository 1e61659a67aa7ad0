"""Spectra, splittings, and singularity combinatorics."""

import random
from fractions import Fraction

import pytest

from iet_lab import intmat
from iet_lab.errors import NotPositive, NotPrimitive, SpectralAmbiguity
from iet_lab.perms import make_symmetric_pair
from iet_lab.repro import GROUPED_MATRIX, FIVE_MATRIX, seven_letter_pair
from iet_lab.spectral import (INSIDE, MAX_FACTOR_DEGREE, ON_CIRCLE, OUTSIDE,
                               _classify_factor, _factor_charpoly,
                               _max_jordan_block, _poly_roots, analyze_matrix,
                               lyapunov_spectrum, nu_ratio,
                               reciprocal_reduction, singularity_data,
                               splitting)

GOLDEN_QUADRATIC = ((1, 1), (1, 0))            # x^2 - x - 1
CUBIC_WITH_QUADRATIC = ((2, 0, 2), (1, 2, 0), (0, 2, 3))  # (x-4)(x^2-3x+4)
PLASTIC_CUBIC = ((0, 1, 0), (0, 0, 1), (1, 1, 0))        # x^3 - x - 1
# the characteristic polynomials of the bundled 4-, 5- and 7-letter systems
BUNDLED_CHARPOLYS = ((1, -26, 56, -26, 1), (1, -129, 2110, -2110, 129, -1),
                     (1, -29, 137, -273, 273, -137, 29, -1))
# quintics with complex roots on which sympy's root isolation takes seconds
SLOW_QUINTICS = ((1, -7, 4, 9, 18, 8), (1, -6, -2, 3, -2, -12))
PALINDROMIC_SEXTIC = (1, -4, 1, 3, 1, -4, 1)
PALINDROMIC_QUARTIC = (1, -1, 5, -1, 1)
LISTED_MATRICES = (
    GOLDEN_QUADRATIC, CUBIC_WITH_QUADRATIC, PLASTIC_CUBIC, GROUPED_MATRIX,
    FIVE_MATRIX, ((2, 1), (1, 1)), ((0, 1), (1, 0)),
    ((4, 2, 1), (2, 4, 1), (0, 4, 3)), ((0, 3, 3), (4, 0, 3), (2, 3, 0)),
    ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
    ((2, 1, 1, 0), (1, 1, 0, 1), (0, 0, 2, 1), (0, 0, 1, 1)),
    ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)))


def _phi(mp):
    return (1 + mp.sqrt(5)) / 2


def _rho(mp):
    return mp.findroot(lambda t: t ** 3 - t - 1, 1.3)


class TestSpectrum:
    def test_grouped_ratio(self, ctx):
        spec = lyapunov_spectrum(GROUPED_MATRIX, ctx)
        assert abs(spec.ratio21 - ctx.mp.mpf("0.164")) < ctx.mp.mpf("5e-4")
        assert spec.zero_multiplicity == 0
        assert spec.max_jordan_block == 1

    def test_five_letter_closed_forms(self, ctx):
        mp = ctx.mp
        spec = lyapunov_spectrum(FIVE_MATRIX, ctx)
        expect = [mp.log(55 + 12 * mp.sqrt(21)), mp.log(9 + 4 * mp.sqrt(5)),
                  mp.mpf(0), -mp.log(9 + 4 * mp.sqrt(5)),
                  -mp.log(55 + 12 * mp.sqrt(21))]
        for got, want in zip(spec.exponents, expect):
            assert abs(got - want) < mp.mpf(2) ** -100
        assert spec.zero_multiplicity == 1

    def test_golden_matrix(self, ctx):
        mp = ctx.mp
        spec = lyapunov_spectrum([[2, 1], [1, 1]], ctx)
        want = mp.log((3 + mp.sqrt(5)) / 2)
        assert abs(spec.theta1 - want) < mp.mpf(2) ** -100
        assert abs(spec.exponents[1] + want) < mp.mpf(2) ** -100

    def test_symmetry_property(self, ctx):
        for matrix in (GROUPED_MATRIX, FIVE_MATRIX, ((2, 1), (1, 1))):
            spec = lyapunov_spectrum(matrix, ctx)
            tol = ctx.mp.mpf(2) ** -(ctx.bits // 4)
            rev = [-t for t in reversed(spec.exponents)]
            for a, b in zip(spec.exponents, rev):
                assert abs(a - b) < tol

    def test_zero_multiplicity_is_kernel_rank(self, ctx, periodic5):
        from iet_lab.rauzy import omega_matrix

        spec = lyapunov_spectrum(FIVE_MATRIX, ctx)
        om = omega_matrix(periodic5.pair)
        kernel_rank = 5 - intmat.rank_rational(om)
        assert spec.zero_multiplicity == kernel_rank

    def test_not_primitive(self, ctx):
        with pytest.raises(NotPrimitive):
            lyapunov_spectrum([[0, 1], [1, 0]], ctx)

    @pytest.mark.parametrize("matrix, block", [
        (((4, 2, 1), (2, 4, 1), (0, 4, 3)), 2),   # (x-7)(x-2)^2
        (((0, 3, 3), (4, 0, 3), (2, 3, 0)), 2),   # (x-6)(x+3)^2
        (((2, 1, 1), (1, 2, 1), (1, 1, 2)), 1),   # (x-4)(x-1)^2
    ], ids=["root-2-defective", "root-minus-3-defective",
            "root-1-diagonalizable"])
    def test_jordan_block_of_repeated_integer_root(self, ctx, matrix, block):
        assert lyapunov_spectrum(matrix, ctx).max_jordan_block == block


class TestRootPaths:
    """Spectral branches the bundled systems never reach."""

    @pytest.mark.parametrize("matrix, exponents", [
        (GOLDEN_QUADRATIC, lambda mp: [mp.log(_phi(mp)), -mp.log(_phi(mp))]),
        (CUBIC_WITH_QUADRATIC, lambda mp: [mp.log(4), mp.log(2), mp.log(2)]),
        # the complex pair of the plastic number rho has modulus rho^(-1/2)
        (PLASTIC_CUBIC, lambda mp: [mp.log(_rho(mp)), -mp.log(_rho(mp)) / 2,
                                    -mp.log(_rho(mp)) / 2]),
    ], ids=["golden-quadratic", "cubic-with-quadratic", "plastic-cubic"])
    def test_non_reciprocal_factor_spectrum(self, ctx, matrix, exponents):
        mp = ctx.mp
        want = exponents(mp)
        spec = lyapunov_spectrum(matrix, ctx)
        assert len(spec.exponents) == len(want)
        for got, expect in zip(spec.exponents, want):
            assert abs(got - expect) < mp.mpf(2) ** -100
        assert spec.zero_multiplicity == 0
        assert spec.max_jordan_block == 1

    @pytest.mark.parametrize("matrix, dims, theta_plus", [
        (GOLDEN_QUADRATIC, (1, 0, 1), lambda mp: mp.log(_phi(mp))),
        (CUBIC_WITH_QUADRATIC, (0, 0, 3), lambda mp: mp.log(2)),
    ], ids=["golden-quadratic", "cubic-with-quadratic"])
    def test_non_reciprocal_factor_splitting(self, ctx, matrix, dims,
                                             theta_plus):
        mp = ctx.mp
        split = splitting(matrix, None, ctx)
        assert split.dims == dims
        assert abs(split.theta_plus - theta_plus(mp)) < mp.mpf(2) ** -100
        # every basis vector spans an invariant subspace of the transpose
        at = intmat.mat_transpose(matrix)
        tol = mp.mpf(2) ** -(ctx.bits // 3)
        for part, basis in zip("scu", (split.basis_s, split.basis_c,
                                       split.basis_u)):
            for v in basis:
                image = [mp.fsum(at[i][j] * v[j] for j in range(len(v)))
                         for i in range(len(v))]
                back = split.project(image, part)
                assert max(abs(a - b) for a, b in zip(image, back)) < tol * 8

    @pytest.mark.parametrize("matrix, block", [
        (((2, 1, 1, 0), (1, 1, 0, 1), (0, 0, 2, 1), (0, 0, 1, 1)), 2),
        (((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)), 1),
    ], ids=["irrational-root-defective", "irrational-root-diagonalizable"])
    def test_jordan_block_of_repeated_irrational_root(self, ctx, matrix, block):
        # (x^2 - 3x + 1)^2: the chain runs in mpf at the refined root
        groups = analyze_matrix(matrix, ctx)
        assert {g.multiplicity for g in groups} == {2}
        assert _max_jordan_block(matrix, groups, ctx) == block

    @pytest.mark.parametrize("coeffs, placed", [
        # y-cubic y^3 - 4y^2 - 2y + 11: two roots in (-2, 2), one above 2,
        # found by certified root discs rather than the closed forms
        ((1, -4, 1, 3, 1, -4, 1), [(INSIDE, True), (ON_CIRCLE, False),
                                   (ON_CIRCLE, False), (OUTSIDE, True)]),
        # y-quadratic y^2 - y + 3 with complex roots: a quadruple off the circle
        ((1, -1, 5, -1, 1), [(INSIDE, False), (OUTSIDE, False)]),
    ], ids=["palindromic-sextic", "palindromic-quartic-complex-y"])
    def test_palindromic_factor_places(self, ctx, coeffs, placed):
        groups = _classify_factor(list(coeffs), 1, ctx)
        assert sorted((g.place, g.is_real) for g in groups) == placed
        mp = ctx.mp
        for g in groups:
            z = g.values[0]
            value = mp.polyval([mp.mpf(c) for c in coeffs], z)
            assert abs(value) < mp.mpf(2) ** -100
            if g.place == ON_CIRCLE:
                assert abs(abs(z) - 1) < mp.mpf(2) ** -100


def _sympy_factors(coeffs):
    import sympy

    _lead, factors = sympy.Poly(list(coeffs), sympy.Symbol("x")).factor_list()
    return [(tuple(int(c) for c in f.all_coeffs()), int(m))
            for f, m in factors]


def _corpus_matrices(count=320, seed=18):
    """Random non-negative integer matrices, d = 2..8, in four kinds:
    dense, sparse 0/1 (powers of x), two equal diagonal blocks (repeated
    factors) and repeated rows (singular)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        d = 2 + i % 7
        kind = i % 4
        if kind == 0:
            m = [[rng.randint(0, 3) for _ in range(d)] for _ in range(d)]
        elif kind == 1:
            m = [[int(rng.random() < 0.3) for _ in range(d)] for _ in range(d)]
        elif kind == 2:
            h = d // 2
            block = [[rng.randint(0, 2) for _ in range(h)] for _ in range(h)]
            m = [[block[r % h][c % h] if r // h == c // h < 2 else 0
                  for c in range(d)] for r in range(d)]
            m[d - 1][d - 1] += d % 2
        else:
            rows = [[rng.randint(0, 4) for _ in range(d)]
                    for _ in range(d - 2 or 1)]
            m = [list(rng.choice(rows)) for _ in range(d)]
        out.append(m)
    return out


class TestFactorOracle:
    """``_factor_charpoly`` against sympy's ``factor_list``, as a test oracle."""

    @pytest.mark.parametrize("coeffs", [
        *BUNDLED_CHARPOLYS, *SLOW_QUINTICS, PALINDROMIC_SEXTIC,
        PALINDROMIC_QUARTIC, *(intmat.charpoly(m) for m in LISTED_MATRICES)])
    def test_listed_polynomials(self, coeffs):
        assert _factor_charpoly(coeffs) == _sympy_factors(coeffs)

    def test_random_corpus(self):
        seen = {"power of x": 0, "(x-1)^3": 0, "repeated non-linear": 0}
        for m in _corpus_matrices():
            coeffs = intmat.charpoly(m)
            factors = _factor_charpoly(coeffs)
            assert factors == _sympy_factors(coeffs), m
            seen["power of x"] += any(f == (1, 0) for f, _k in factors)
            seen["(x-1)^3"] += ((1, -1), 3) in factors
            seen["repeated non-linear"] += any(len(f) > 2 and k > 1
                                               for f, k in factors)
        assert min(seen.values()) >= 5, seen

    def test_degree_limit(self):
        # 1 + diag(0..d-1): d distinct real eigenvalues, the search's worst case
        def ones_plus_diagonal(d):
            return [[1 + i * (i == j) for j in range(d)] for i in range(d)]

        top = intmat.charpoly(ones_plus_diagonal(MAX_FACTOR_DEGREE))
        assert _factor_charpoly(top) == _sympy_factors(top)
        with pytest.raises(SpectralAmbiguity, match="limited to degree"):
            _factor_charpoly(intmat.charpoly(
                ones_plus_diagonal(MAX_FACTOR_DEGREE + 1)))
        # the limit is on squarefree parts: x^20 (x - 1)^3 factors
        assert _factor_charpoly((1, -3, 3, -1) + (0,) * 20) == [
            ((1, -1), 3), ((1, 0), 20)]


class TestRootOracle:
    """Degree >= 3 roots of ``_poly_roots`` against sympy's exact isolation.

    ``Poly.intervals`` is the isolation behind ``all_roots``; refined to
    width 2^-102 it places every root far more cheaply than evaluating
    the ``all_roots`` objects, which takes seconds on the quintics.
    """

    @pytest.mark.parametrize("coeffs", [
        (1, 0, -1, -1), reciprocal_reduction(PALINDROMIC_SEXTIC),
        *SLOW_QUINTICS], ids=["plastic-cubic", "sextic-y-cubic",
                              "quintic-1", "quintic-2"])
    def test_roots_match_sympy(self, ctx, coeffs):
        import sympy

        mp = ctx.mp

        def mid(lo, hi):
            half = (lo + hi) / 2
            return ctx.real(Fraction(int(half.p), int(half.q)))

        want_reals, want_boxes = sympy.Poly(
            list(coeffs), sympy.Symbol("x")).intervals(
                all=True, eps=sympy.Rational(1, 2 ** 102))
        # a box is its lower-left and upper-right corner
        want_complexes = [mp.mpc(mid(sympy.re(lo), sympy.re(hi)),
                                 mid(sympy.im(lo), sympy.im(hi)))
                          for (lo, hi), _k in want_boxes if sympy.im(lo) > 0]
        reals, complexes = _poly_roots(list(coeffs), ctx)
        tol = mp.mpf(2) ** -100
        assert len(reals) == len(want_reals)
        assert len(complexes) == len(want_complexes)
        for got, ((lo, hi), _k) in zip(sorted(reals), want_reals):
            assert abs(got - mid(lo, hi)) < tol
        for want in want_complexes:
            assert min(abs(got - want) for got in complexes) < tol


class TestSplitting:
    def test_dimensions(self, splitting4, splitting5):
        assert splitting4.dims == (2, 0, 2)
        assert splitting5.dims == (2, 1, 2)
        assert splitting4.non_degenerate is True
        assert splitting5.non_degenerate is True

    def test_theta_plus(self, ctx, splitting5):
        mp = ctx.mp
        assert abs(splitting5.theta_plus - mp.log(9 + 4 * mp.sqrt(5))) \
            < mp.mpf(2) ** -100

    def test_invariance(self, ctx, periodic5, splitting5):
        mp = ctx.mp
        at = intmat.mat_transpose(periodic5.matrix)
        tol = mp.mpf(2) ** -(ctx.bits // 3)
        for part in ("s", "c", "u"):
            basis = {"s": splitting5.basis_s, "c": splitting5.basis_c,
                     "u": splitting5.basis_u}[part]
            for v in basis:
                image = [mp.fsum(at[i][j] * v[j] for j in range(5))
                         for i in range(5)]
                back = splitting5.project(image, part)
                err = max(abs(a - b) for a, b in zip(image, back))
                assert err < tol * max(1, max(abs(x) for x in image))

    def test_five_letter_eigvector_placement(self, ctx, splitting5):
        mp = ctx.mp
        sq5 = mp.sqrt(5)
        tol = mp.mpf(2) ** -(ctx.bits // 3)
        v2 = (-2, -1 - sq5, 2, 1 + sq5, 0)
        v3 = (-1, -2, 0, -1, 1)
        v4 = (-2, -1 + sq5, 2, 1 - sq5, 0)
        for vec, part in ((v2, "u"), (v3, "c"), (v4, "s")):
            proj = splitting5.project(vec, part)
            err = max(abs(a - b) for a, b in zip(vec, proj))
            assert err < tol * 8

    def test_unstable_contains_leading_direction(self, splitting4):
        assert len(splitting4.basis_u) >= 1

    def test_annihilator(self, ctx, periodic5, splitting5):
        mp = ctx.mp
        tol = mp.mpf(2) ** -(ctx.bits // 3)
        for v in (*splitting5.basis_s, *splitting5.basis_c):
            ip = abs(mp.fsum(a * b for a, b in zip(v, periodic5.lengths)))
            assert ip < tol

    def test_second_direction_growth_rate(self, periodic5):
        # empirical growth of the transpose on a mixed contracted+expanding
        # zero-mean vector follows the second exponent; over 200 steps the
        # rounding-level leading-direction contamination grows by
        # (rho1/rho2)^200 ~ 2^523, so this check needs a wide mantissa
        from iet_lab.precision import PrecisionContext

        wide = PrecisionContext(768)
        mp = wide.mp
        sq5 = mp.sqrt(5)
        v = [a + b for a, b in zip((-2, -1 - sq5, 2, 1 + sq5, 0),
                                   (-2, -1 + sq5, 2, 1 - sq5, 0))]
        at = intmat.mat_transpose(periodic5.matrix)
        cur = list(v)
        norms = []
        for _n in range(200):
            cur = [mp.fsum(at[i][j] * cur[j] for j in range(5))
                   for i in range(5)]
            norms.append(max(abs(x) for x in cur))
        slope = (mp.log(norms[-1]) - mp.log(norms[99])) / 100
        theta2 = mp.log(9 + 4 * sq5)
        assert abs(slope - theta2) < mp.mpf("0.05")


class TestSingularities:
    def test_symmetric_pairs(self):
        for d, kappa, genus in ((2, 1, 1), (4, 1, 2), (5, 2, 2)):
            sd = singularity_data(make_symmetric_pair(d))
            assert (sd.kappa, sd.genus) == (kappa, genus)

    def test_seven_letter(self):
        sd = singularity_data(seven_letter_pair())
        assert sd.kappa + 2 * sd.genus == 8

    def test_marker_vectors_sum_zero(self):
        for pair in (make_symmetric_pair(5), seven_letter_pair(),
                     make_symmetric_pair(4)):
            sd = singularity_data(pair)
            total = [0] * pair.d
            for b in sd.b_vectors.values():
                total = [t + x for t, x in zip(total, b)]
            assert all(t == 0 for t in total)

    def test_marker_vectors_span_kernel(self):
        from iet_lab.rauzy import omega_matrix

        for pair in (make_symmetric_pair(5), seven_letter_pair()):
            sd = singularity_data(pair)
            om = omega_matrix(pair)
            bs = [sd.b_vectors[o] for o in sd.orbits_without_zero]
            assert intmat.rank_rational(bs) == len(bs)
            kernel_rank = pair.d - intmat.rank_rational(om)
            assert len(bs) == kernel_rank
            for b in bs:
                assert all(x == 0 for x in intmat.mat_vec(om, b))

    def test_annihilation_of_hyperplane(self, ctx, periodic5, splitting5):
        # vectors in the stable+unstable span pair to zero with markers
        mp = ctx.mp
        sd = singularity_data(periodic5.pair)
        tol = mp.mpf(2) ** -(ctx.bits // 3)
        for v in (*splitting5.basis_s, *splitting5.basis_u):
            for orbit in sd.orbits_without_zero:
                b = sd.b_vectors[orbit]
                ip = abs(mp.fsum(x * y for x, y in zip(v, b)))
                assert ip < tol * 8


class TestNuRatio:
    def test_all_ones(self):
        assert nu_ratio(((1, 1), (1, 1))) == 1

    def test_golden(self):
        assert nu_ratio(((2, 1), (1, 1))) == 2

    def test_requires_positive(self):
        with pytest.raises(NotPositive):
            nu_ratio(GROUPED_MATRIX)  # has a zero entry

    def test_power_monotone(self):
        sq = intmat.matpow(GROUPED_MATRIX, 2)
        fourth = intmat.matpow(GROUPED_MATRIX, 4)
        assert nu_ratio(fourth) <= nu_ratio(sq)
        eighth = intmat.matpow(GROUPED_MATRIX, 8)
        assert nu_ratio(eighth) <= nu_ratio(sq)
