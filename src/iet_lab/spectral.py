"""Spectral analysis of loop-product matrices.

The route to eigenvalues is deliberately exact-first: the integer
characteristic polynomial is computed exactly, factored over the
rationals, and each irreducible factor is classified against the unit
circle before any floating root extraction happens.  A factor can only
carry unit-modulus roots when it equals its own reciprocal, in which
case the substitution y = x + 1/x reduces the classification to real
roots of an exact integer polynomial compared against +-2.  Everything
else is certifiably off the circle and safe for numeric enclosures.

Factoring and roots share one certified routine, ``_root_discs``:
mpmath root approximations, each with an isolating disc from its
Weierstrass correction (Smith's theorem), checked in exact integers.
A squarefree part of the characteristic polynomial (Yun's
decomposition) splits by recombining conjugation-closed sets of those
roots into integer factors, each confirmed by exact division.  The
search grows as 2^n in the number n of real roots, so squarefree parts
of degree above ``MAX_FACTOR_DEGREE`` = 16 raise SpectralAmbiguity
(degree 16 takes about 0.1 s at worst).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import isqrt

import numpy as np
from mpmath.ctx_mp import MPContext

from . import intmat
from .errors import NotPositive, ReduciblePair, SpectralAmbiguity
from .intmat import IntMatrix
from .perms import PermutationPair
from .precision import PrecisionContext, RealVector

# ---------------------------------------------------------------------------
# integer polynomial helpers


def poly_is_reciprocal(coeffs) -> bool:
    return list(coeffs) == list(reversed(coeffs))


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _poly_scale(a, c):
    return [c * x for x in a]


def _poly_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_trim(a) -> list:
    """Drop leading zero coefficients (an empty list stays empty)."""
    i = 0
    while i < len(a) - 1 and a[i] == 0:
        i += 1
    return list(a[i:])


def _poly_derivative(a) -> list:
    n = len(a) - 1
    return [c * (n - i) for i, c in enumerate(a[:-1])] or [0]


def _poly_divmod(a, b) -> tuple:
    """Quotient and remainder over Q, in Fractions."""
    rem = [Fraction(x) for x in a]
    quot = []
    while len(rem) >= len(b):
        c = rem[0] / b[0]
        quot.append(c)
        pad = list(b[1:]) + [0] * (len(rem) - len(b))
        rem = [x - c * y for x, y in zip(rem[1:], pad)]
    return quot or [Fraction(0)], _poly_trim(rem) or [Fraction(0)]


def _poly_gcd(a, b) -> list:
    """Monic greatest common divisor over Q."""
    while any(b):
        a, b = b, _poly_divmod(a, b)[1]
    return [Fraction(x) / a[0] for x in a]


def _squarefree_parts(f) -> list:
    """Yun's squarefree decomposition of a monic integer polynomial.

    Returns (part, i) pairs with f = prod part^i, each part monic,
    squarefree, of positive degree and prime to the others.  It runs
    over Q in Fractions; by Gauss's lemma the parts of a monic integer
    polynomial have integer coefficients.
    """
    df = _poly_derivative(f)
    g = _poly_gcd(f, df)
    b = _poly_divmod(f, g)[0]
    d = _poly_trim(_poly_add(_poly_divmod(df, g)[0],
                             _poly_scale(_poly_derivative(b), -1)))
    parts, i = [], 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        b = _poly_divmod(b, a)[0]
        d = _poly_trim(_poly_add(_poly_divmod(d, a)[0],
                                 _poly_scale(_poly_derivative(b), -1)))
        if len(a) > 1:
            parts.append((tuple(int(x) for x in a), i))
        i += 1
    return parts


def reciprocal_reduction(coeffs) -> list:
    """For palindromic p of even degree 2m, the exact q with p = x^m q(x + 1/x).

    Uses the recursion t_k for x^k + x^-k: t_0 = 2, t_1 = y,
    t_{k+1} = y t_k - t_{k-1}.
    """
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    if n % 2 != 0 or not poly_is_reciprocal(coeffs):
        raise ValueError("need a palindromic polynomial of even degree")
    m = n // 2
    t_prev, t_cur = [2], [1, 0]  # t_0, t_1
    ts = {0: t_prev, 1: t_cur}
    for k in range(2, m + 1):
        t_next = _poly_add(t_cur + [0], _poly_scale(t_prev, -1))
        ts[k] = t_next
        t_prev, t_cur = t_cur, t_next
    q = [coeffs[m]]
    for k in range(m):
        q = _poly_add(q, _poly_scale(ts[m - k], coeffs[k]))
    return q


# ---------------------------------------------------------------------------
# root classification

INSIDE, ON_CIRCLE, OUTSIDE = -1, 0, 1


@dataclass(frozen=True)
class RootGroup:
    """One eigenvalue (or conjugate pair) with certified placement.

    ``values`` holds one representative per root of the group: a single
    real for a real eigenvalue, or z with Im z > 0 for a conjugate pair
    (the conjugate is implied).  ``count`` is the total number of roots
    represented including conjugates, and ``multiplicity`` the algebraic
    multiplicity of each.
    """

    values: tuple
    is_real: bool
    place: int
    multiplicity: int
    radius: object
    factor: tuple


@dataclass(frozen=True)
class RootDiscs:
    """Isolating discs of all roots of a squarefree integer polynomial.

    Every number is an integer over 2^exp.  ``reals`` holds (a, r): one
    real root within r of a.  ``pairs`` holds (a, b, r) with b > r: one
    root of a conjugate pair within r of a + ib, so its conjugate lies
    within r of a - ib.  No two discs meet.
    """

    exp: int
    reals: tuple
    pairs: tuple


def _root_discs(coeffs, bits: int) -> RootDiscs:
    """Certified root discs of a squarefree integer polynomial.

    The centres are mpmath ``polyroots`` approximations at ``bits``
    bits, rounded to Gaussian integers over 2^bits.  Each centre z_i
    gets the Weierstrass correction W_i = p(z_i) / (lc prod_{j != i}
    (z_i - z_j)) and the disc of radius n |W_i|.  By Smith's theorem the
    discs cover every root, and a disc that meets no other holds exactly
    one.  From the centres on everything is exact integer arithmetic
    with radii rounded up, so no rounding can break the certificate.  A
    disc that clears the real axis holds a non-real root; one that meets
    it holds a real root when its mirror image meets no other disc.
    ``polyroots`` starts from numpy's float roots.  Discs that fail are
    computed once more at twice the bits from mpmath's own start; if
    those fail too, SpectralAmbiguity is raised.
    """
    for prec, seeded in ((bits, True), (2 * bits, False)):
        discs = _try_root_discs(coeffs, prec, seeded)
        if discs is not None:
            return discs
    raise SpectralAmbiguity(
        f"root discs of a degree-{len(coeffs) - 1} polynomial do not "
        f"separate at {2 * bits} bits")


def _try_root_discs(coeffs, bits: int, seeded: bool) -> RootDiscs | None:
    n = len(coeffs) - 1
    mp = MPContext()
    mp.prec = bits
    # polyroots stops on absolute corrections below 2^-bits, so its
    # extra bits cover the largest root (Cauchy: below 1 + max |c|)
    size = max(abs(c) for c in coeffs).bit_length()
    start = None
    if seeded and size < 1000:  # coefficients within float range
        with np.errstate(all="ignore"):
            start = [complex(z) for z in np.roots([float(c) for c in coeffs])]
        if not all(cmath.isfinite(z) for z in start):
            start = None
    try:
        approx = mp.polyroots(coeffs, maxsteps=50 + 10 * n,
                              extraprec=size + 2 * n + 10, roots_init=start)
    except mp.NoConvergence:
        return None
    zs = [(int(mp.ldexp(mp.re(z), bits)), int(mp.ldexp(mp.im(z), bits)))
          for z in approx]
    radii = []
    for i, (a, b) in enumerate(zs):
        # p(z_i) 2^(n bits) by Horner, lc prod (z_i - z_j) 2^((n-1) bits)
        vr, vi = coeffs[0], 0
        for j, c in enumerate(coeffs[1:], 1):
            vr, vi = vr * a - vi * b + (c << (bits * j)), vr * b + vi * a
        qr, qi = coeffs[0], 0
        for k, (c, d) in enumerate(zs):
            if k != i:
                dr, di = a - c, b - d
                qr, qi = qr * dr - qi * di, qr * di + qi * dr
        norm_q = qr * qr + qi * qi
        if norm_q == 0:
            return None
        # n |W_i| 2^bits = n |p| / |q|, rounded up
        radii.append(isqrt(-(-(n * n * (vr * vr + vi * vi)) // norm_q)) + 1)

    def apart(i, j, b):
        """Disc j misses disc i with its centre's imaginary part set to b."""
        r = radii[i] + radii[j]
        return (zs[i][0] - zs[j][0]) ** 2 + (b - zs[j][1]) ** 2 > r * r

    if not all(apart(i, j, zs[i][1])
               for i in range(n) for j in range(i + 1, n)):
        return None
    reals, pairs, lower = [], [], 0
    for i, ((a, b), r) in enumerate(zip(zs, radii)):
        if b > r:
            pairs.append((a, b, r))
        elif b < -r:
            lower += 1
        elif all(apart(i, j, -b) for j in range(n) if j != i):
            reals.append((a, r))
        else:
            return None
    if lower != len(pairs):
        return None
    return RootDiscs(bits, tuple(sorted(reals)), tuple(sorted(pairs)))


def _poly_roots(coeffs, ctx: PrecisionContext, clear: int | None = None):
    """All roots of an irreducible integer polynomial at ctx precision.

    Returns (reals, complexes): the complex roots come one per conjugate
    pair, the one with Im > 0.  Degrees 1 and 2 are solved in closed
    form from exact rationals; higher degrees read the centres of
    ``_root_discs`` at 40 bits beyond the context.  There, with
    ``clear``, a real root whose disc meets +-clear raises
    SpectralAmbiguity, so that |root| can be compared with clear.
    """
    mp = ctx.mp
    deg = len(coeffs) - 1
    if deg == 1:
        return [ctx.real(Fraction(-coeffs[1], coeffs[0]))], []
    if deg == 2:
        b = Fraction(coeffs[1], coeffs[0])
        c = Fraction(coeffs[2], coeffs[0])
        disc = b * b - 4 * c
        bb = ctx.real(b)
        if disc >= 0:
            s = mp.sqrt(ctx.real(disc))
            return [(-bb + s) / 2, (-bb - s) / 2], []
        s = mp.sqrt(-ctx.real(disc))
        return [], [mp.mpc(-bb / 2, s / 2)]
    discs = _root_discs(coeffs, ctx.bits + 40)
    e = discs.exp
    if clear is not None and any(abs(abs(a) - (clear << e)) <= r
                                 for a, r in discs.reals):
        raise SpectralAmbiguity(f"a real root disc meets +-{clear}")
    return ([mp.ldexp(mp.mpf(a), -e) for a, _r in discs.reals],
            [mp.mpc(mp.ldexp(mp.mpf(a), -e), mp.ldexp(mp.mpf(b), -e))
             for a, b, _r in discs.pairs])


def _classify_factor(coeffs, multiplicity: int, ctx: PrecisionContext) -> list:
    """Root groups of one irreducible monic integer factor."""
    deg = len(coeffs) - 1
    radius = ctx.mp.mpf(2) ** (-(ctx.bits - 8))
    groups = []
    if deg == 1:
        r = Fraction(-coeffs[1], coeffs[0])
        place = INSIDE if abs(r) < 1 else (ON_CIRCLE if abs(r) == 1 else OUTSIDE)
        groups.append(RootGroup((ctx.real(r),), True, place, multiplicity,
                                ctx.mp.mpf(0), tuple(coeffs)))
        return groups
    if poly_is_reciprocal(coeffs) and deg % 2 == 0:
        # unit-circle membership decided exactly through y = x + 1/x
        work = ctx.spawn(64)
        mp = work.mp
        y_reals, y_complexes = _poly_roots(reciprocal_reduction(coeffs), work,
                                            clear=2)
        for y in y_reals:
            if abs(y) < 2:
                # conjugate pair on the circle
                im = mp.sqrt(4 - y * y) / 2
                z = ctx.mp.mpc(ctx.real(y / 2), ctx.real(im))
                groups.append(RootGroup((z,), False, ON_CIRCLE,
                                        multiplicity, radius, tuple(coeffs)))
            else:
                s = mp.sqrt(y * y - 4)
                r_out = (y + s) / 2 if y > 0 else (y - s) / 2
                r_in = 1 / r_out
                groups.append(RootGroup((ctx.real(r_out),), True, OUTSIDE,
                                        multiplicity, radius, tuple(coeffs)))
                groups.append(RootGroup((ctx.real(r_in),), True, INSIDE,
                                        multiplicity, radius, tuple(coeffs)))
        for y in y_complexes:
            # complex y: quadruple {z, conj z, 1/z, 1/conj z} off the circle
            s = mp.sqrt(y * y - 4)
            z1 = (y + s) / 2
            if abs(z1) < 1:
                z1 = (y - s) / 2
            z2 = 1 / z1
            for z in (z1, z2):
                zz = ctx.mp.mpc(ctx.real(z.real), ctx.real(abs(z.imag)))
                place = OUTSIDE if abs(z) > 1 else INSIDE
                groups.append(RootGroup((zz,), False, place,
                                        multiplicity, radius, tuple(coeffs)))
        return groups
    # non-reciprocal irreducible factor: no unit-circle roots possible
    reals, complexes = _poly_roots(coeffs, ctx)
    guard = ctx.mp.mpf(2) ** (-(ctx.bits // 2))
    for r in reals:
        margin = abs(abs(r) - 1)
        if margin < guard:
            raise SpectralAmbiguity(
                "real root enclosure too close to |z| = 1", (r, guard))
        place = OUTSIDE if abs(r) > 1 else INSIDE
        groups.append(RootGroup((r,), True, place, multiplicity, radius,
                                tuple(coeffs)))
    for z in complexes:
        margin = abs(abs(z) - 1)
        if margin < guard:
            raise SpectralAmbiguity(
                "complex root enclosure too close to |z| = 1", (z, guard))
        place = OUTSIDE if abs(z) > 1 else INSIDE
        groups.append(RootGroup((z,), False, place, multiplicity, radius,
                                tuple(coeffs)))
    return groups


MAX_FACTOR_DEGREE = 16


def _factor_charpoly(coeffs) -> list:
    """Irreducible monic integer factors of a monic integer polynomial.

    Returns (factor, multiplicity) pairs in sympy's ``factor_list``
    order: by length, then multiplicity, then coefficients.  The power
    of x comes off first, then Yun's squarefree decomposition, and
    ``_split_squarefree`` splits each part.
    """
    core = [int(c) for c in coeffs]
    if core[0] != 1:
        raise SpectralAmbiguity("factoring needs a monic polynomial")
    k = 0
    while core[-1] == 0:
        core.pop()
        k += 1
    out = [((1, 0), k)] if k else []
    for part, mult in _squarefree_parts(core):
        out.extend((fac, mult) for fac in _split_squarefree(part))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[1], fm[0]))


def _split_squarefree(f) -> list:
    """Irreducible factors of a squarefree monic integer polynomial.

    Every factor is the product of x - z over a conjugation-closed
    subset of the roots: the recombination step of Zassenhaus and van
    Hoeij, on certified complex discs instead of p-adic roots.  Subsets
    are tried by increasing size, so the first factor found is
    irreducible; the quotient is split again from its own discs, from
    that size on.  What is left once no subset of at most half its
    degree divides it is irreducible.  Degrees above
    ``MAX_FACTOR_DEGREE`` raise SpectralAmbiguity.
    """
    n = len(f) - 1
    if n > MAX_FACTOR_DEGREE:
        raise SpectralAmbiguity(
            f"characteristic polynomial has a squarefree part of degree {n}; "
            f"factoring is limited to degree {MAX_FACTOR_DEGREE}")
    # bits for coefficient enclosures far narrower than 1: over the test
    # corpus, up to degree 16, the widest half-width is about 1e-21
    bits = 64 + 2 * n + 2 * max(abs(c) for c in f).bit_length()
    factors, size = [], 1
    while 2 * size < len(f):
        found = _recombine(f, _root_discs(f, bits), size)
        if found is None:
            break
        factor, f = found
        factors.append(factor)
        size = len(factor) - 1
    return factors + [tuple(f)]


def _integers_within(centre: int, radius: int, shift: int) -> tuple:
    """(lo, hi): the integers N with |N 2^shift - centre| <= radius."""
    return -((radius - centre) >> shift), (centre + radius) >> shift


def _recombine(f, discs: RootDiscs, smallest: int):
    """Search the conjugation-closed root subsets of sizes smallest..deg/2.

    Over the disc centres, each subset's factor is an exact integer
    polynomial in X = 2^e x, its m-th coefficient over 2^(e m).  Moving
    every root within its radius moves that coefficient by at most
    e_m(|z| + r) - e_m(|z|), bounded by the integer polynomials over
    the upper and lower bounds of |z|.  The trace (m = 1, radius the sum
    of the radii) prunes first; an enclosure that holds no integer rules
    the subset out, and exact division confirms a candidate.
    """
    e = discs.exp
    # one unit per real root or conjugate pair: (centre factor, trace,
    # trace radius, factor over |z| from below, and from above)
    reals = [((1, -a), a, r, (1, abs(a)), (1, abs(a) + r))
             for a, r in discs.reals]
    pairs = []
    for a, b, r in discs.pairs:
        low = isqrt(a * a + b * b)
        up = low + 1 + r
        pairs.append(((1, -2 * a, a * a + b * b), 2 * a, 2 * r,
                      (1, 2 * low, low * low), (1, 2 * up, up * up)))
    for size in range(smallest, (len(f) - 1) // 2 + 1):
        for k in range(min(size // 2, len(pairs)) + 1):
            for chosen in combinations(pairs, k):
                for rest in combinations(reals, size - 2 * k):
                    subset = chosen + rest
                    lo, hi = _integers_within(sum(u[1] for u in subset),
                                              sum(u[2] for u in subset), e)
                    if lo > hi:
                        continue
                    found = _candidate(f, subset, e)
                    if found is not None:
                        return found
    return None


def _candidate(f, subset, e: int):
    """(factor, quotient) when the subset's factor divides f, None when
    the subset is ruled out.  An enclosure that holds two integers
    decides nothing and raises SpectralAmbiguity."""
    centre = low = up = (1,)
    for poly, _trace, _radius, low_poly, up_poly in subset:
        centre = _poly_mul(centre, poly)
        low = _poly_mul(low, low_poly)
        up = _poly_mul(up, up_poly)
    factor = [1]
    for m in range(1, len(centre)):
        lo, hi = _integers_within(centre[m], up[m] - low[m], e * m)
        if lo > hi:
            return None
        if lo < hi:
            raise SpectralAmbiguity(
                f"a factor coefficient enclosure holds {hi - lo + 1} integers")
        factor.append(lo)
    quot, rem = _poly_divmod(f, factor)
    if any(rem):
        return None
    return tuple(factor), tuple(int(q) for q in quot)


def analyze_matrix(matrix: IntMatrix, ctx: PrecisionContext) -> list:
    """Certified root groups of the characteristic polynomial."""
    coeffs = intmat.charpoly(matrix)
    groups = []
    for fac, mult in _factor_charpoly(coeffs):
        groups.extend(_classify_factor(list(fac), mult, ctx))
    return groups


# ---------------------------------------------------------------------------
# Lyapunov spectrum


@dataclass(frozen=True)
class LyapunovSpectrum:
    """All d values log|eigenvalue|, sorted descending, with enclosures."""

    exponents: tuple
    radii: tuple
    zero_multiplicity: int
    max_jordan_block: int
    ctx: PrecisionContext = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def theta1(self):
        return self.exponents[0]

    @property
    def theta2(self):
        return self.exponents[1]

    @property
    def ratio21(self):
        return self.theta2 / self.theta1

    def to_json(self) -> dict:
        return {"exponents": [self.ctx.str_of(t) for t in self.exponents],
                "enclosure_radii": [self.ctx.str_of(r, 8) for r in self.radii],
                "zero_multiplicity": self.zero_multiplicity,
                "max_jordan_block": self.max_jordan_block}


def _max_jordan_block(matrix: IntMatrix, groups, ctx: PrecisionContext) -> int:
    """Largest Jordan block: the length of the rank chain of (A - z I)^k.

    The chain of a repeated root stops once the nullity reaches the
    algebraic multiplicity.  An integer root (factors are monic) runs it
    in exact integers, any other root in mpf/mpc with 96 extra bits.
    """
    d = len(matrix)
    m_max = 1
    for g in groups:
        if g.multiplicity <= 1:
            continue
        if g.is_real and len(g.factor) == 2:
            r = -g.factor[1]
            shifted = tuple(tuple(x - r * (i == j) for j, x in enumerate(row))
                            for i, row in enumerate(matrix))
            rank, mul = intmat.rank_rational, intmat.matmul
        else:
            work = ctx.spawn(96)
            z = _refine_root(g.factor, g.values[0], work)
            shifted = _shifted(matrix, z, work)
            rank = lambda rows: _full_pivot(rows, work)[0]
            mul = lambda a, b: _matmul(a, b, work)
        power, block = shifted, 1
        while d - rank(power) < g.multiplicity:
            if block == d:
                raise SpectralAmbiguity("Jordan chain did not stabilize",
                                        (g.values[0], g.multiplicity))
            power = mul(power, shifted)
            block += 1
        m_max = max(m_max, block)
    return m_max


def _analyze_primitive(matrix: IntMatrix, ctx: PrecisionContext) -> tuple:
    """(frozen matrix, root groups) of a primitive matrix."""
    matrix = intmat.freeze(matrix)
    intmat.positive_power(matrix)  # raises NotPrimitive when appropriate
    return matrix, analyze_matrix(matrix, ctx)


def lyapunov_spectrum(matrix: IntMatrix, ctx: PrecisionContext | None = None
                      ) -> LyapunovSpectrum:
    """Certified log-moduli of all eigenvalues of a primitive matrix."""
    ctx = ctx or PrecisionContext()
    return _spectrum_of(*_analyze_primitive(matrix, ctx), ctx)


def _spectrum_of(matrix: IntMatrix, groups, ctx: PrecisionContext
                 ) -> LyapunovSpectrum:
    entries = []
    zero_mult = 0
    for g in groups:
        radius = g.radius
        count = 1 if g.is_real else 2
        for _ in range(g.multiplicity):
            if g.place == ON_CIRCLE:
                zero_mult += count
                for _ in range(count):
                    entries.append((ctx.mp.mpf(0), ctx.mp.mpf(0)))
            else:
                mod = abs(g.values[0])
                expo = ctx.mp.log(mod)
                for _ in range(count):
                    entries.append((ctx.real(expo), radius))
    entries.sort(key=lambda t: t[0], reverse=True)
    m_jordan = _max_jordan_block(matrix, groups, ctx)
    return LyapunovSpectrum(tuple(e for e, _ in entries),
                            tuple(r for _, r in entries),
                            zero_mult, m_jordan, ctx)


# ---------------------------------------------------------------------------
# invariant splitting of the transpose


def gauss_jordan_solve(rows, rhs, singular: Exception) -> list:
    """Solve rows . x = rhs for a small dense square system of reals.

    Partial pivoting on the largest magnitude; raises ``singular`` when
    a pivot column is exactly zero.
    """
    k = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) == 0:
            raise singular
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


@dataclass(frozen=True)
class Splitting:
    """Generalized eigenspace bases of the transpose, split at |z| = 1.

    Vectors are real; complex conjugate pairs contribute their real and
    imaginary parts.  ``theta_plus`` is the smallest expansion rate on
    the unstable part, the decay rate of its inverse.
    """

    basis_s: tuple
    basis_c: tuple
    basis_u: tuple
    theta_plus: object
    non_degenerate: bool | None
    ctx: PrecisionContext = field(repr=False)

    def __post_init__(self):
        cols = [list(v) for v in (*self.basis_s, *self.basis_c, *self.basis_u)]
        d = len(cols[0]) if cols else 0
        if len(cols) != d:
            raise SpectralAmbiguity(
                f"splitting dimensions {len(cols)} do not fill ambient {d}")
        object.__setattr__(self, "_basis_cols", cols)

    @property
    def dims(self) -> tuple:
        return (len(self.basis_s), len(self.basis_c), len(self.basis_u))

    def _solve(self, vec):
        cols = self._basis_cols
        rows = [[col[i] for col in cols] for i in range(len(cols))]
        return gauss_jordan_solve(rows, [self.ctx.real(v) for v in vec],
                                  SpectralAmbiguity("splitting basis is singular"))

    def components(self, vec) -> tuple:
        """Coefficients of vec in the (s | c | u) basis, as three lists."""
        x = self._solve(vec)
        ns, nc = len(self.basis_s), len(self.basis_c)
        return x[:ns], x[ns:ns + nc], x[ns + nc:]

    def project(self, vec, part: str) -> RealVector:
        """Component of vec inside one of the three invariant subspaces."""
        cs, cc, cu = self.components(vec)
        coeffs = {"s": cs, "c": cc, "u": cu}[part]
        basis = {"s": self.basis_s, "c": self.basis_c, "u": self.basis_u}[part]
        d = len(self._basis_cols)
        mp = self.ctx.mp
        out = [mp.fsum(c * b[i] for c, b in zip(coeffs, basis))
               for i in range(d)]
        return RealVector(tuple(out), self.ctx)

    def unstable_map(self, matrix_t) -> list:
        """Matrix of the transpose action on the unstable basis (k x k)."""
        mp = self.ctx.mp
        k = len(self.basis_u)
        cols = []
        for b in self.basis_u:
            image = [mp.fsum(matrix_t[i][j] * b[j] for j in range(len(b)))
                     for i in range(len(b))]
            _cs, _cc, cu = self.components(image)
            cols.append(cu)
        return [[cols[j][i] for j in range(k)] for i in range(k)]


def splitting(matrix: IntMatrix, lengths, ctx: PrecisionContext | None = None,
              kappa: int | None = None) -> Splitting:
    """Stable / central / unstable splitting for the transpose matrix.

    ``lengths`` (the leading right eigenvector) is used for the
    annihilator sanity check on the stable and central parts.
    """
    ctx = ctx or (lengths.ctx if isinstance(lengths, RealVector) else PrecisionContext())
    return _splitting_of(*_analyze_primitive(matrix, ctx), lengths, ctx, kappa)


def spectrum_and_splitting(matrix: IntMatrix, lengths, ctx: PrecisionContext,
                           pair: PermutationPair | None = None) -> tuple:
    """(spectrum, singularity data or None, splitting) of a primitive
    matrix from one analysis of its characteristic polynomial; the
    splitting's non-degeneracy is judged by the pair's kappa."""
    matrix, groups = _analyze_primitive(matrix, ctx)
    spec = _spectrum_of(matrix, groups, ctx)
    sdata = None if pair is None else singularity_data(pair)
    split = _splitting_of(matrix, groups, lengths, ctx,
                          None if sdata is None else sdata.kappa)
    return spec, sdata, split


def _splitting_of(matrix: IntMatrix, groups, lengths, ctx: PrecisionContext,
                  kappa: int | None) -> Splitting:
    at = intmat.mat_transpose(matrix)
    work = ctx.spawn(96)
    buckets = {INSIDE: [], ON_CIRCLE: [], OUTSIDE: []}
    theta_plus = None
    for g in groups:
        vecs = _generalized_real_basis(at, g, work, ctx)
        buckets[g.place].extend(vecs)
        if g.place == OUTSIDE:
            rate = ctx.mp.log(abs(g.values[0]))
            theta_plus = rate if theta_plus is None else min(theta_plus, rate)
    non_deg = None
    if kappa is not None:
        non_deg = (len(buckets[ON_CIRCLE]) == kappa - 1)
    split = Splitting(tuple(buckets[INSIDE]), tuple(buckets[ON_CIRCLE]),
                      tuple(buckets[OUTSIDE]), theta_plus, non_deg, ctx)
    if lengths is not None:
        tol = ctx.mp.mpf(2) ** (-(ctx.bits // 3))
        for v in (*split.basis_s, *split.basis_c):
            ip = abs(ctx.mp.fsum(a * b for a, b in zip(v, lengths)))
            if ip > tol * max(1, v.norm_max()):
                raise SpectralAmbiguity(
                    "stable/central vector fails the annihilator check", (ip, tol))
    return split


def _refine_root(factor, z, work):
    """Polish a simple root of an exact integer polynomial by Newton.

    The input approximation carries the base precision; a few Newton
    steps lift it to the working precision (quadratic convergence,
    simple roots only, which irreducible factors guarantee).
    """
    mp = work.mp
    coeffs = [mp.mpf(c) for c in factor]
    deriv = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]

    def horner(cs, t):
        acc = cs[0]
        for c in cs[1:]:
            acc = acc * t + c
        return acc

    zz = mp.mpc(z) if mp.im(z) != 0 else mp.mpf(mp.re(z))
    for _ in range(1 + work.bits.bit_length()):
        num = horner(coeffs, zz)
        den = horner(deriv, zz)
        if den == 0:
            break
        step = num / den
        zz = zz - step
        if abs(step) < mp.mpf(2) ** (-(work.bits - 8)) * max(1, abs(zz)):
            break
    return zz


def _shifted(rows, z, work):
    """rows - z I in the working context: mpf for real z, mpc otherwise."""
    num = work.mp.mpc if isinstance(z, work.mp.mpc) else work.mp.mpf
    return [[num(x) - (z if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _matmul(a, b, work):
    mp = work.mp
    d = len(a)
    return [[mp.fsum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def _generalized_real_basis(at, group: RootGroup, work, ctx) -> list:
    """Real basis of the generalized eigenspace for one root group."""
    z = _refine_root(group.factor, group.values[0], work)
    shifted = _shifted(at, z, work)
    power = shifted
    for _ in range(group.multiplicity - 1):
        power = _matmul(power, shifted, work)
    null = _null_space(power, work, expected=group.multiplicity)
    out = []
    for v in null:
        if group.is_real:
            out.append(_normalized_real(v, ctx))
        else:
            out.append(_normalized_real([x.real for x in v], ctx))
            out.append(_normalized_real([x.imag for x in v], ctx))
    return out


def _normalized_real(vals, ctx) -> RealVector:
    top = max(abs(v) for v in vals)
    if top == 0:
        raise SpectralAmbiguity("zero vector in eigenspace basis")
    lead = next(v for v in vals if abs(v) == top)
    return RealVector(tuple(ctx.real(v / lead) for v in vals), ctx)


def _full_pivot(rows, work):
    """Full-pivot Gauss-Jordan of a square matrix with a precision margin.

    Pivots below scale * 2^(-2 bits / 3) count as zero.  Returns
    (rank, reduced, col_order): row r < rank of ``reduced`` has a 1 in
    column col_order[r] and zeros in the other pivot columns.
    """
    mp = work.mp
    m = [list(r) for r in rows]
    n = len(m)
    scale = max((abs(x) for row in m for x in row), default=mp.mpf(1))
    threshold = scale * mp.mpf(2) ** (-(work.bits * 2 // 3))
    col_order = list(range(n))
    rank = 0
    for _ in range(n):
        piv_val, piv_r, piv_c = None, None, None
        for i in range(rank, n):
            for jj in range(rank, n):
                v = abs(m[i][col_order[jj]])
                if piv_val is None or v > piv_val:
                    piv_val, piv_r, piv_c = v, i, jj
        if not piv_val or piv_val < threshold:
            break
        m[rank], m[piv_r] = m[piv_r], m[rank]
        col_order[rank], col_order[piv_c] = col_order[piv_c], col_order[rank]
        pc = col_order[rank]
        pv = m[rank][pc]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][pc] != 0:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank, m, col_order


def _null_space(rows, work, expected: int) -> list:
    """Null-space basis read off the full-pivot reduction."""
    mp = work.mp
    rank, m, col_order = _full_pivot(rows, work)
    n = len(m)
    if n - rank != expected:
        raise SpectralAmbiguity(
            f"nullity {n - rank} differs from algebraic multiplicity {expected}")
    basis = []
    for fc in col_order[rank:]:
        vec = [mp.mpf(0)] * n
        vec[fc] = mp.mpf(1)
        for r in range(rank):
            vec[col_order[r]] = -m[r][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# singularity combinatorics


@dataclass(frozen=True)
class SingularityData:
    """Orbit structure of the endpoint-matching permutation.

    ``sigma`` acts on {0..d}; its orbits correspond to the singularities
    of the suspended surface.  Each orbit carries an integer marker
    vector; the markers over orbits avoiding 0 span the kernel of the
    intersection matrix.
    """

    sigma: tuple
    orbits: tuple
    orbits_without_zero: tuple
    b_vectors: dict
    kappa: int
    genus: int

    def to_json(self) -> dict:
        return {"sigma": list(self.sigma),
                "orbits": [sorted(o) for o in self.orbits],
                "kappa": self.kappa,
                "genus": self.genus}


def singularity_data(pair: PermutationPair) -> SingularityData:
    if not pair.irreducible:
        raise ReduciblePair("singularity data needs an irreducible pair")
    d = pair.d
    pm = pair.position_map()  # positions 1..d
    p = {0: 0, d + 1: d + 1}
    for j in range(1, d + 1):
        p[j] = pm[j - 1]
    p_inv = {v: k for k, v in p.items()}
    sigma = tuple(p_inv[p[j] + 1] - 1 for j in range(0, d + 1))
    seen = [False] * (d + 1)
    orbits = []
    for start in range(d + 1):
        if seen[start]:
            continue
        orbit = []
        j = start
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = sigma[j]
        orbits.append(frozenset(orbit))
    b_vectors = {}
    for orbit in orbits:
        vec = tuple((1 if pair.pi0[a] in orbit else 0)
                    - (1 if pair.pi0[a] - 1 in orbit else 0)
                    for a in range(d))
        b_vectors[orbit] = vec
    kappa = len(orbits)
    if (d - kappa + 1) % 2 != 0:
        raise ReduciblePair(f"inconsistent orbit count {kappa} for d = {d}")
    genus = (d - kappa + 1) // 2
    return SingularityData(sigma, tuple(orbits),
                           tuple(o for o in orbits if 0 not in o),
                           b_vectors, kappa, genus)


def nu_ratio(matrix: IntMatrix) -> Fraction:
    """Largest within-row entry ratio of a strictly positive matrix."""
    matrix = intmat.freeze(matrix)
    if any(x <= 0 for row in matrix for x in row):
        raise NotPositive("nu ratio requires strictly positive entries")
    return max(Fraction(max(row), min(row)) for row in matrix)
