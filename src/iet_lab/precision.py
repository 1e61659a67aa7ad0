"""Arbitrary-precision context and tagged real vectors.

Every real computation in the library runs through an explicit
:class:`PrecisionContext`; there is no global precision state.  Each
context owns a private mpmath context, so two PrecisionContexts with
different mantissa sizes can coexist in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, round_nearest

from .errors import DomainError

DEFAULT_BITS = 128


class PrecisionContext:
    """Mantissa size plus the comparison tolerance derived from it.

    ``eps_cmp`` is 2**(-bits/2).  It judges what working precision
    cannot settle (README, "Numerical policy"): near-tied induction
    steps, jumps placed next to an endpoint, Keane scans and the
    zero-mean checks.  Orbits never consult it: the exact walker
    locates every point by exact signs.
    """

    __slots__ = ("bits", "mp", "eps_cmp", "_half_digits")

    def __init__(self, bits: int = DEFAULT_BITS):
        if bits < 64:
            raise ValueError("mantissa_bits must be at least 64")
        self.bits = int(bits)
        self.mp = MPContext()
        self.mp.prec = self.bits
        self.eps_cmp = self.mp.mpf(2) ** (-self.bits // 2)
        self._half_digits = max(17, int(self.bits * 0.3010) + 2)

    def real(self, x):
        """Convert ``x`` (int, str, float, Fraction, mpf) to this context's mpf."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def vector(self, xs: Iterable) -> "RealVector":
        return RealVector(tuple(self.real(x) for x in xs), self)

    def dot_int(self, coeffs: Sequence[int], values: Sequence):
        """Integer-weighted sum of mpf values at working precision: each
        product ``c * v`` is rounded, then fsum adds the rounded terms.
        Exact signs and floats of such sums come from
        ``RealVector.int_dot`` instead."""
        return self.mp.fsum(c * v for c, v in zip(coeffs, values) if c)

    def str_of(self, x, digits: int | None = None) -> str:
        """Decimal-string rendering at full context precision by default."""
        return self.mp.nstr(self.real(x), digits or self._half_digits,
                            strip_zeros=False)

    def spawn(self, extra_bits: int = 64) -> "PrecisionContext":
        """Fresh context with a widened mantissa, for internal refinement."""
        return PrecisionContext(self.bits + extra_bits)

    def __repr__(self):
        return f"PrecisionContext(bits={self.bits})"

    def __eq__(self, other):
        return isinstance(other, PrecisionContext) and self.bits == other.bits

    def __hash__(self):
        return hash(("PrecisionContext", self.bits))


@dataclass(frozen=True)
class RealVector:
    """Finite tuple of arbitrary-precision reals tagged with its context."""

    values: tuple
    ctx: PrecisionContext = field(repr=False)

    def __post_init__(self):
        for v in self.values:
            if not self.ctx.mp.isfinite(v):
                raise DomainError(f"non-finite vector entry {v!r}")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @cached_property
    def int_form(self) -> tuple:
        """(mantissas, exp) with ``values[j] == mantissas[j] * 2**exp``
        exactly, one exponent for all: every mpf is a dyadic rational, so
        (c . values) / den is the exact rational
        ``int_dot(c) * 2**exp / den``."""
        pairs = [v.man_exp for v in self.values]  # |mantissa|, exponent
        exp = min((e for m, e in pairs if m), default=0)
        return tuple(-m << (e - exp) if v < 0 else m << (e - exp)
                     for v, (m, e) in zip(self.values, pairs)), exp

    def int_dot(self, coeffs: Sequence[int]) -> int:
        """(coeffs . values) / 2**exp, exactly, as one Python int."""
        return sum(map(mul, coeffs, self.int_form[0]))

    def exact_float(self, n: int, den: int = 1) -> float:
        """The float nearest to ``n * 2**exp / den`` (``n`` from
        ``int_dot``): one int/int division, which rounds correctly."""
        exp = self.int_form[1]
        return (n << exp) / den if exp >= 0 else n / (den << -exp)

    def fraction(self, n: int, den: int = 1) -> Fraction:
        """``n * 2**exp / den`` as an exact rational."""
        exp = self.int_form[1]
        return (Fraction(n << exp, den) if exp >= 0
                else Fraction(n, den << -exp))

    def exact_real(self, n: int, den: int = 1):
        """The context real nearest to ``n * 2**exp / den``, rounded once."""
        q = self.fraction(n, den)
        return self.ctx.mp.make_mpf(from_rational(
            q.numerator, q.denominator, self.ctx.bits, round_nearest))

    def ceil_num(self, x, den: int = 1) -> int:
        """The least n with ``n * 2**exp / den >= x``: an integer n is at
        or right of x exactly when n >= ceil_num(x, den)."""
        return math.ceil(as_fraction(x) * den / self.fraction(1))

    def with_point(self, x) -> "RealVector":
        """These values and then x: a point x + (c . values) / den is
        ``int_dot((*c, den))`` over den * 2**-exp, and a row of len(self)
        coefficients dots the values alone."""
        return RealVector(self.values + (self.ctx.real(x),), self.ctx)

    def norm_max(self):
        return max(abs(v) for v in self.values)

    def total(self):
        return self.ctx.mp.fsum(self.values)

    def as_strings(self) -> list:
        return [self.ctx.str_of(v) for v in self.values]


def as_fraction(x) -> Fraction:
    """An int, float or context real as the exact rational it stores."""
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    man, exp = x.man_exp  # |mantissa|, exponent
    q = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -q if x < 0 else q


def geometric_checkpoints(n_max: int, ratio: float) -> list:
    """Orbit lengths 1, then each the larger of one more and the rounded
    ``ratio`` times the last, up to n_max, and n_max itself."""
    if n_max < 1:
        raise DomainError("orbit length must be >= 1")
    out = []
    n = 1
    while n <= n_max:
        out.append(n)
        n = max(n + 1, int(round(n * ratio)))
    if out[-1] != n_max:
        out.append(n_max)
    return out


def least_squares_slope(points) -> float:
    """Slope of the least-squares line through the (x, y) points; 0.0
    for fewer than three points or a single x."""
    if len(points) < 3:
        return 0.0
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0


def kronecker_samples(ctx: PrecisionContext, count: int, total, seed: int = 0):
    """Deterministic low-discrepancy sample points in [0, total).

    Golden-ratio Kronecker sequence offset by the seed; reproducible and
    evenly spread, which keeps sweep statistics stable across runs.
    """
    mp = ctx.mp
    g = (mp.sqrt(5) - 1) / 2
    offset = mp.mpf(seed % 997) / 997 + mp.mpf("0.0112358")
    out = []
    for j in range(count):
        t = mp.frac(offset + j * g)
        out.append(t * total)
    return out
