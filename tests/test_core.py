"""Foundational types: permutation pairs, exact matrices, precision."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet_lab import intmat
from iet_lab.errors import (DegenerateAlphabet, DimensionError,
                            DomainError, InvalidPermutation)
from iet_lab.perms import make_pair, make_symmetric_pair
from iet_lab.precision import PrecisionContext, RealVector
from iet_lab.rauzy import _lattice


class TestPermutationPair:
    def test_symmetric_two(self):
        pair = make_symmetric_pair(2)
        assert pair.position_map() == (2, 1)
        assert pair.irreducible

    def test_symmetric_four(self):
        assert make_symmetric_pair(4).position_map() == (4, 3, 2, 1)

    def test_degenerate(self):
        with pytest.raises(DegenerateAlphabet):
            make_symmetric_pair(1)

    def test_seven_letter_irreducible(self):
        pair = make_pair(range(1, 8), [6, 7, 4, 5, 3, 1, 2])
        assert pair.irreducible

    def test_identity_reducible(self):
        pair = make_pair([1, 2, 3], [1, 2, 3])
        assert not pair.irreducible

    def test_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            make_pair([1, 1, 2], [1, 2, 3])

    def test_round_trip(self):
        pair = make_pair([2, 1, 3], [3, 1, 2])
        assert pair.pi0 == (2, 1, 3)
        assert pair.pi1 == (3, 1, 2)
        assert pair == make_pair(pair.pi0, pair.pi1)

    @given(st.integers(min_value=2, max_value=12))
    def test_symmetric_always_irreducible(self, d):
        assert make_symmetric_pair(d).irreducible

    @given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    def test_json_round_trip(self, p0, p1):
        pair = make_pair(p0, p1)
        again = make_pair(pair.to_json()["pi0"], pair.to_json()["pi1"])
        assert again == pair


class TestIntMatrix:
    def test_matpow_zero_is_identity(self):
        a = intmat.freeze([[2, 1], [1, 1]])
        assert intmat.matpow(a, 0) == intmat.identity(2)

    def test_matpow_square(self):
        a = intmat.freeze([[2, 1], [1, 1]])
        assert intmat.matpow(a, 2) == ((5, 3), (3, 2))

    @staticmethod
    def repeated_product(a, n):
        out = intmat.identity(len(a))
        for _ in range(n):
            out = intmat.matmul(out, a)
        return out

    @pytest.mark.parametrize("name", ["periodic4", "periodic5", "periodic7"])
    @pytest.mark.parametrize("which", ["matrix", "step_inverse"])
    def test_matpow_is_repeated_product(self, request, name, which):
        a = getattr(request.getfixturevalue(name), which)
        for n in range(13):
            assert intmat.matpow(a, n) == self.repeated_product(a, n)

    @pytest.mark.parametrize("a", [((-3,),), ((2, 1, 0), (0, 3, 1), (1, -1, 2))],
                             ids=["1x1", "det15"])
    def test_matpow_small_and_singular_bases(self, a):
        assert intmat.det(a) not in (1, -1)
        for n in range(13):
            assert intmat.matpow(a, n) == self.repeated_product(a, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 12, 31, 64, 100])
    def test_matpow_products(self, monkeypatch, n):
        """Squaring from the base: no product against the identity."""
        a = intmat.freeze([[2, 1], [1, 1]])
        calls = []
        matmul = intmat.matmul

        def spy(x, y):
            calls.append(1)
            return matmul(x, y)

        monkeypatch.setattr(intmat, "matmul", spy)
        intmat.matpow(a, n)
        expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert len(calls) == expected

    def test_matpow_one_freezes_rows(self):
        rows = [[2, 1], [1, 1]]
        out = intmat.matpow(rows, 1)
        assert type(out) is tuple and all(type(r) is tuple for r in out)
        assert out == intmat.freeze(rows)

    def test_matpow_negative_raises(self):
        with pytest.raises(DimensionError):
            intmat.matpow(((2, 1), (1, 1)), -1)

    @staticmethod
    def triple_loop(a, b):
        """The textbook product, entry by entry, apart from ``matmul``."""
        out = [[0] * len(b[0]) for _ in a]
        for i in range(len(a)):
            for j in range(len(b[0])):
                for t in range(len(b)):
                    out[i][j] += a[i][t] * b[t][j]
        return tuple(tuple(row) for row in out)

    @staticmethod
    def matrices(rows, cols):
        entry = st.integers(-2 ** 80, 2 ** 80)
        return st.lists(st.lists(entry, min_size=cols, max_size=cols).map(tuple),
                        min_size=rows, max_size=rows).map(tuple)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_matmul_is_the_triple_loop(self, data, d, k, m):
        a = data.draw(self.matrices(d, k))
        b = data.draw(self.matrices(k, m))
        out = intmat.matmul(a, b)
        assert out == self.triple_loop(a, b)
        assert type(out) is tuple and all(type(r) is tuple for r in out)
        assert all(type(x) is int for row in out for x in row)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_matmul_refuses_a_k_mismatch(self, data, d, k, m):
        a = data.draw(self.matrices(d, k))
        b = data.draw(self.matrices(k + data.draw(st.integers(1, 3)), m))
        with pytest.raises(DimensionError):
            intmat.matmul(a, b)

    @staticmethod
    def generator_mat_vec(a, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in a)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6))
    def test_mat_vec_ints(self, data, d, k):
        a = data.draw(self.matrices(d, k))
        v = data.draw(self.matrices(1, k))[0]
        assert intmat.mat_vec(a, v) == self.generator_mat_vec(a, v)
        assert intmat.mat_vec(a, v) == tuple(
            row[0] for row in self.triple_loop(a, tuple((x,) for x in v)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([64, 128, 256]))
    def test_mat_vec_context_reals_bit_identical(self, data, d, k, bits):
        ctx = PrecisionContext(bits)
        a = data.draw(self.matrices(d, k))
        v = [ctx.real(Fraction(n, q)) for n, q in data.draw(st.lists(
            st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 9)),
            min_size=k, max_size=k))]
        out = intmat.mat_vec(a, v)
        expect = self.generator_mat_vec(a, v)
        assert [x._mpf_ for x in out] == [x._mpf_ for x in expect]

    def test_dimension_mismatch(self):
        a = intmat.identity(4)
        b = intmat.identity(5)
        with pytest.raises(DimensionError):
            intmat.matmul(a, b)

    @settings(max_examples=40)
    @given(st.integers(2, 4), st.data())
    def test_associativity_exact(self, d, data):
        def rand_matrix():
            return intmat.freeze([[data.draw(st.integers(-50, 50))
                                   for _ in range(d)] for _ in range(d)])

        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        assert intmat.matmul(intmat.matmul(a, b), c) \
            == intmat.matmul(a, intmat.matmul(b, c))

    def test_charpoly_known(self):
        assert intmat.charpoly(((2, 1), (1, 1))) == (1, -3, 1)
        assert intmat.charpoly(((10, 24, 18, 7), (4, 11, 8, 2),
                                (1, 2, 2, 0), (3, 7, 5, 3))) \
            == (1, -26, 56, -26, 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_charpoly_matches_sympy(self, d, data):
        import sympy

        rows = [[data.draw(st.integers(-9, 9)) for _ in range(d)]
                for _ in range(d)]
        mine = intmat.charpoly(intmat.freeze(rows))
        theirs = sympy.Matrix(rows).charpoly().all_coeffs()
        assert list(mine) == [int(c) for c in theirs]

    def test_det_and_inverse(self):
        a = intmat.freeze([[2, 1], [1, 1]])
        assert intmat.det(a) == 1
        inv = intmat.inverse_unimodular(a)
        assert intmat.matmul(a, inv) == intmat.identity(2)

    def test_inverse_requires_unimodular(self):
        with pytest.raises(DimensionError):
            intmat.inverse_unimodular(((2, 0), (0, 2)))

    @settings(max_examples=30)
    @given(st.integers(2, 4), st.data())
    def test_smith_normal_form(self, d, data):
        rows = [[data.draw(st.integers(-6, 6)) for _ in range(d)]
                for _ in range(d)]
        a = intmat.freeze(rows)
        dd, u, v = intmat.smith_normal_form(a)
        assert intmat.matmul(intmat.matmul(u, a), v) == dd
        assert intmat.det(u) in (1, -1)
        assert intmat.det(v) in (1, -1)
        diag = [dd[i][i] for i in range(d)]
        for i in range(d - 1):
            if diag[i] and diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
        for i in range(d):
            for j in range(d):
                if i != j:
                    assert dd[i][j] == 0

    @settings(max_examples=25)
    @given(st.integers(2, 4), st.data())
    def test_integer_kernel(self, d, data):
        rows = [[data.draw(st.integers(-4, 4)) for _ in range(d)]
                for _ in range(d)]
        a = intmat.freeze(rows)
        for vec in intmat.integer_kernel(a):
            assert all(x == 0 for x in intmat.mat_vec(a, vec))
            assert any(x != 0 for x in vec)

    def test_positive_power(self):
        assert intmat.positive_power(((2, 1), (1, 1))) == 1
        with pytest.raises(Exception):
            intmat.positive_power(((0, 1), (1, 0)))

    def test_rank(self):
        assert intmat.rank_rational([[1, 2], [2, 4]]) == 1
        assert intmat.rank_rational([[1, 0], [0, 1]]) == 2

    def test_serialization(self):
        a = intmat.freeze([[10, -3], [7, 2]])
        assert intmat.matrix_from_strings(intmat.matrix_to_strings(a)) == a

    def test_freeze_takes_integral_values(self):
        import numpy as np

        a = intmat.freeze([[np.int64(10), "-3"], [7.0, 2]])
        assert a == ((10, -3), (7, 2))
        assert all(type(x) is int for row in a for x in row)

    @pytest.mark.parametrize("entry", [True, 1.5, float("nan"), float("inf"),
                                       Fraction(1, 2)])
    def test_freeze_refuses_non_integers(self, entry):
        # int() would truncate these to a different matrix
        with pytest.raises(DomainError):
            intmat.freeze([[entry, 1], [1, 0]])


def _random_square(rng, d):
    """Random d x d integers; a third are singular, a third need row swaps."""
    rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    kind = rng.randrange(3)
    if kind == 1 and d > 1:
        i, j = rng.sample(range(d), 2)
        k = rng.randint(-3, 3)
        rows[i] = [k * x for x in rows[j]]
    elif kind == 2:
        for i in range(d - 1):
            rows[i][0] = 0
        rows[rng.randrange(d)][min(1, d - 1)] = 0
    return rows


def _random_unimodular(rng, d, sign):
    """Product of elementary integer matrices with determinant ``sign``."""
    u = [list(row) for row in intmat.identity(d)]
    for _ in range(rng.randint(3, 15)):
        i, j = rng.sample(range(d), 2)
        if rng.random() < 0.25:
            u[i], u[j] = u[j], u[i]
            u[0] = [-x for x in u[0]]
        else:
            k = rng.randint(-3, 3)
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    if sign < 0:
        u[-1] = [-x for x in u[-1]]
    return intmat.freeze(u)


class TestElimination:
    """det, inverse and rank share one fraction-free elimination."""

    def test_det_matches_sympy(self):
        import sympy

        rng = random.Random(7)
        swaps = [((0, 1), (1, 0)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                 ((0, 0, 2), (0, 3, 0), (5, 0, 0)), ((0, 2), (0, 3)), ((0,),)]
        cases = swaps + [_random_square(rng, d) for d in range(1, 8)
                         for _ in range(25)]
        dets = []
        for rows in cases:
            want = int(sympy.Matrix(rows).det())
            assert intmat.det(intmat.freeze(rows)) == want, rows
            dets.append(want)
        assert dets[:5] == [-1, 1, -30, 0, 0]
        assert dets.count(0) > 40 and sum(x != 0 for x in dets) > 80

    def test_inverse_matches_sympy(self):
        import sympy

        rng = random.Random(11)
        for d in range(2, 8):
            for sign in (1, -1):
                for _ in range(6):
                    u = _random_unimodular(rng, d, sign)
                    assert intmat.det(u) == sign
                    want = sympy.Matrix(u).inv()
                    assert intmat.inverse_unimodular(u) == tuple(
                        tuple(int(x) for x in want.row(i)) for i in range(d))

    def test_inverse_of_bundled_powers(self, periodic4, periodic5, periodic7):
        for periodic in (periodic4, periodic5, periodic7):
            for a in (periodic.step_matrix, periodic.matrix):
                eye = intmat.identity(len(a))
                for n in range(9):
                    a_n = intmat.matpow(a, n)
                    inv = intmat.inverse_unimodular(a_n)
                    assert intmat.matmul(a_n, inv) == eye
                    assert intmat.matmul(inv, a_n) == eye

    @pytest.mark.parametrize("rows, det", [
        (((2, 0), (0, 2)), 4), (((2, 1), (1, 2)), 3), (((1, 2), (3, 4)), -2),
        (((0, 1), (0, 1)), 0), (((1, 2, 3), (4, 5, 6), (7, 8, 9)), 0),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 2)])
    def test_inverse_rejects_non_unimodular(self, rows, det):
        with pytest.raises(DimensionError,
                           match=rf"not unimodular \(det = {det}\)"):
            intmat.inverse_unimodular(rows)

    def test_rank_matches_sympy(self):
        import sympy

        rng = random.Random(13)
        cases = [[], [[], []], [[0, 0, 0]], [[0], [0]], [[0, 0, 5], [0, 0, 7]],
                 [[0, 1], [0, 2], [3, 0]]]
        for _ in range(150):
            r, c, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            cases.append([[sum(x * y for x, y in zip(row, col))
                           for col in zip(*right)] if k else [0] * c
                          for row in left])
        deficient = 0
        for rows in cases:
            want = sympy.Matrix(rows).rank() if rows and rows[0] else 0
            assert intmat.rank_rational(rows) == want, rows
            deficient += 0 < want < min(len(rows), len(rows[0]))
        assert deficient > 30

    def test_rank_wants_integers(self):
        with pytest.raises(TypeError):
            intmat.rank_rational([[Fraction(1, 2), 1], [1, 2]])


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.bits == 128
        assert ctx.eps_cmp == ctx.mp.mpf(2) ** -64

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            PrecisionContext(32)

    def test_contexts_are_independent(self):
        a = PrecisionContext(64)
        b = PrecisionContext(256)
        sa = a.mp.sqrt(2)
        sb = b.mp.sqrt(2)
        assert a.mp.prec == 64 and b.mp.prec == 256
        assert abs(float(sa - sb)) < 1e-15

    def test_vector_finite(self):
        ctx = PrecisionContext(64)
        with pytest.raises(Exception):
            RealVector((ctx.mp.inf,), ctx)

    def test_real_accepts_fraction(self):
        ctx = PrecisionContext(64)
        assert ctx.real(Fraction(1, 4)) == ctx.mp.mpf("0.25")

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_int_form_is_exact(self, bits):
        ctx = PrecisionContext(bits)
        rng = random.Random(bits)
        vec = ctx.vector([0, 3, "-2.5e-30", ctx.mp.sqrt(2) * 2 ** 70,
                          ctx.mp.pi / 7, Fraction(-1, 3)])
        mantissas, exp = vec.int_form
        for v, m in zip(vec.values, mantissas):
            sign, man, e, _bc = v._mpf_  # the raw form: (-1)**sign man 2**e
            assert Fraction(m) * Fraction(2) ** exp \
                == (-1) ** sign * man * Fraction(2) ** e
        for _ in range(200):
            coeffs = [rng.randint(-2 ** 80, 2 ** 80) for _ in vec.values]
            den = rng.choice((1, 3, 1009, 2 ** 40 + 1))
            exact = sum(c * Fraction(m) * Fraction(2) ** exp
                        for c, m in zip(coeffs, mantissas))
            n = vec.int_dot(coeffs)
            assert Fraction(n) * Fraction(2) ** exp == exact
            assert vec.exact_float(n, den) == float(exact / den)


class TestLattice:
    @pytest.mark.parametrize("name", ["periodic4", "periodic5", "periodic7"])
    def test_lattice_is_per_letter_sums(self, request, name):
        """``_lattice`` against sums over the letters ranked before each
        one, for random integer widths, as tuples and as lists."""
        pair = request.getfixturevalue(name).pair
        d = pair.d
        rng = random.Random(d)

        def before(pi, a, rows):
            return tuple(sum(rows[c][k] for c in range(d) if pi[c] < pi[a])
                         for k in range(d))

        for trial in range(20):
            rows = tuple(tuple(rng.randint(-10 ** 12, 10 ** 12)
                               for _ in range(d)) for _ in range(d))
            lat = _lattice(pair, rows if trial % 2 else list(map(list, rows)))
            assert lat.widths == rows
            assert lat.lefts == tuple(before(pair.pi0, a, rows)
                                      for a in range(d))
            assert lat.image_lefts == tuple(before(pair.pi1, a, rows)
                                            for a in range(d))
            assert lat.total == tuple(sum(col) for col in zip(*rows))
