"""Circle rotations: continued fractions, variation-bounded sums,
two-dimensional products, and the three-distance cross-check.

The heavy lifting runs on a dyadic grid: the rotation number is
replaced by its closest 53-bit dyadic rational, positions become exact
integer residues mod 2^53 (vectorized in uint64 without overflow via a
split-multiply), and integer-valued step functions produce exactly
summable walks.  The continued fraction of the dyadic representative is
computed exactly, so every convergent-denominator statement tested here
is a theorem about the simulated rotation, not a float approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, RationalInput
from .precision import PrecisionContext

GRID_BITS = 53
GRID = 1 << GRID_BITS
_MASK = np.uint64(GRID - 1)
_SPLIT = 26  # low bits; high part then fits 27 bits
# (orbit step, sample) entries walked at once by denjoy_koksma_check,
# a 2 MB uint64 block of positions (one orbit step when samples exceed it).
_DK_BLOCK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergent denominators of a real number."""

    alpha: object
    quotients: tuple
    denominators: tuple
    numerators: tuple
    bpq_bound: int
    is_bpq: bool

    def to_json(self, ctx=None) -> dict:
        return {"quotients": list(self.quotients),
                "denominators": list(self.denominators),
                "bpq_bound": self.bpq_bound,
                "is_bpq": self.is_bpq}


def continued_fraction(alpha, depth: int, ctx: PrecisionContext | None = None,
                       bpq_bound: int = 100) -> ContinuedFraction:
    """Partial quotients a_1..a_depth of a number in (0, 1).

    Rational inputs (exactly representable at working precision before
    the requested depth) raise RationalInput.  Denominators follow
    q_{n+1} = a_{n+1} q_n + q_{n-1} starting from q_0 = 1.
    """
    ctx = ctx or PrecisionContext()
    mp = ctx.mp
    x = ctx.real(alpha)
    if not 0 < x < 1:
        raise DomainError("expansion is implemented for numbers in (0, 1)")
    quots = []
    cutoff = mp.mpf(2) ** (-(ctx.bits * 3 // 4))
    cur = x
    for _ in range(depth):
        inv = 1 / cur
        a = int(mp.floor(inv))
        frac = inv - a
        if frac < cutoff or a > 2 ** (ctx.bits // 2):
            raise RationalInput(
                "number is rational at working precision before the depth")
        quots.append(a)
        cur = frac
    q_prev, q_cur = 0, 1
    p_prev, p_cur = 1, 0
    dens = []
    nums = []
    for a in quots:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        dens.append(q_cur)
        nums.append(p_cur)
    return ContinuedFraction(x, tuple(quots), tuple(dens), tuple(nums),
                             bpq_bound, max(quots) <= bpq_bound)


def exact_dyadic_cf(numerator: int, denominator: int) -> tuple:
    """Exact continued fraction of a positive rational < 1."""
    quots = []
    a, b = denominator, numerator
    while b:
        quots.append(a // b)
        a, b = b, a % b
    return tuple(quots)


def dyadic_rotation(alpha) -> int:
    """Closest 53-bit dyadic residue of a rotation number in (0, 1)."""
    a = float(alpha)
    if not 0 < a < 1:
        raise DomainError("rotation number must be in (0, 1)")
    return int(round(a * GRID))


def _grid_positions(x0: int, step: int, count: int) -> np.ndarray:
    """Exact residues (x0 + j*step) mod 2^53 for j = 0..count-1.

    The multiply is split so every intermediate fits in uint64: the
    split guarantees j * step_high < 2^51 for j < 2^24.
    """
    if count >= 1 << 24:
        raise DomainError("grid walk limited to 2^24 points per block")
    j = np.arange(count, dtype=np.uint64)
    hi = np.uint64(step >> _SPLIT)
    lo = np.uint64(step & ((1 << _SPLIT) - 1))
    pos = (((j * hi) << np.uint64(_SPLIT)) + j * lo + np.uint64(x0)) & _MASK
    return pos


@dataclass(frozen=True)
class CircleStep:
    """Integer-valued step function on the dyadic circle.

    Breakpoints are grid residues; value[i] holds on
    [breakpoints[i], breakpoints[i+1]) cyclically.  Values are scaled
    integers: value/scale is the real value (permits half-integers).
    """

    breakpoints: tuple
    values: tuple
    scale: int = 1

    def __post_init__(self):
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise DomainError("breakpoints must be sorted grid residues")
        if len(self.values) != len(self.breakpoints):
            raise DomainError("need one value per breakpoint")

    def mean_numerator(self) -> int:
        """Integral times scale times the grid size (exact integer)."""
        total = 0
        bps = list(self.breakpoints) + [self.breakpoints[0] + GRID]
        for i, v in enumerate(self.values):
            total += v * (bps[i + 1] - bps[i])
        return total

    def variation(self) -> Fraction:
        var = 0
        k = len(self.values)
        for i in range(k):
            var += abs(self.values[i] - self.values[i - 1])
        return Fraction(var, self.scale)

    def sample(self, positions: np.ndarray) -> np.ndarray:
        """Values at grid positions, elementwise, for an array of any shape.

        Jump accumulation: values[-1] plus every jump
        values[i] - values[i-1] whose breakpoint b_i <= pos.  A jump at
        b_i = 0 holds everywhere, so it is folded into the start value.
        """
        pos = np.asarray(positions, dtype=np.uint64)
        start = self.values[-1]
        jumps = []
        for i, b in enumerate(self.breakpoints):
            jump = self.values[i] - self.values[i - 1]
            if b == 0:
                start += jump
            elif jump:
                jumps.append((np.uint64(b), np.int64(jump)))
        out = np.full(pos.shape, start, dtype=np.int64)
        for b, jump in jumps:
            out += np.multiply(pos >= b, jump)
        return out


def half_indicator() -> CircleStep:
    """2 * (indicator of the first half) - 1, the canonical test function."""
    return CircleStep((0, GRID >> 1), (1, -1), scale=2)


# ---------------------------------------------------------------------------
# variation-bounded sums at convergent denominators


@dataclass(frozen=True)
class VariationBoundReport:
    """Exact sums of a circle step function at convergent denominators."""

    denominators: tuple
    quotients: tuple
    max_abs: dict            # q -> max |sum| over samples (a Fraction)
    variation: Fraction
    violations: int
    sample_count: int
    sup_curve: tuple         # (n, running sup over samples) checkpoints
    log_slope: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def denjoy_koksma_check(phi: CircleStep, alpha, depth: int,
                        samples: int = 100, n_max: int | None = None,
                        seed: int = 0) -> VariationBoundReport:
    """Exact variation bound check at convergent denominators.

    The rotation is the dyadic representative of alpha; its continued
    fraction is computed exactly, so each tested denominator really is
    a convergent denominator of the simulated rotation.  Sums are exact
    integers; a violation would be an arithmetic counterexample, not a
    rounding artifact.  All sample starts are walked together, one block
    of max(1, _DK_BLOCK_ELEMENTS // samples) orbit steps at a time.
    """
    if phi.mean_numerator() != 0:
        raise DomainError("variation bound requires a zero-mean function")
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
    # var * scale must be integral for the exact comparison
    if var.denominator != 1 and (var.numerator * phi.scale) % var.denominator:
        raise DomainError("variation times scale must be an integer")
    bound_int = (var.numerator * phi.scale) // var.denominator
    rng = _grid_samples(samples, seed)
    max_abs = {q: 0 for q in dens}
    violations = 0
    checkpoints = _log_checkpoints(limit)
    base = _grid_positions(0, step, limit)
    # col_max[n-1] = max over samples of |S_n|; its running max is the
    # running sup over samples, since the two maxima commute.
    col_max = np.zeros(limit, dtype=np.int64)
    if rng:
        x0s = np.array(rng, dtype=np.uint64)
        rows = max(1, _DK_BLOCK_ELEMENTS // len(rng))
        pos = np.empty((min(rows, limit), len(rng)), dtype=np.uint64)
        carry = np.zeros(len(rng), dtype=np.int64)
        for lo in range(0, limit, rows):
            hi = min(limit, lo + rows)
            block = np.add(base[lo:hi, None], x0s, out=pos[:hi - lo])
            block &= _MASK
            sums = phi.sample(block)
            sums[0] += carry
            np.cumsum(sums, axis=0, out=sums)   # row j: S_{lo+j+1} per sample
            carry = sums[-1].copy()
            np.abs(sums, out=sums)
            for q in dens:
                if lo < q <= hi:
                    row = sums[q - 1 - lo]
                    max_abs[q] = int(row.max())
                    violations += int(np.count_nonzero(row > bound_int))
            sums.max(axis=1, out=col_max[lo:hi])
    np.maximum.accumulate(col_max, out=col_max)
    sup_curve = [int(col_max[n - 1]) for n in checkpoints]
    slope = _sup_log_slope(checkpoints, sup_curve, phi.scale)
    return VariationBoundReport(tuple(dens), tuple(quots[:len(dens)]),
                                {q: Fraction(v, phi.scale)
                                 for q, v in max_abs.items()},
                                var, violations, len(rng),
                                tuple(zip(checkpoints,
                                          [Fraction(v, phi.scale)
                                           for v in sup_curve])),
                                slope)


def _grid_samples(count: int, seed: int) -> list:
    golden = (math.sqrt(5) - 1) / 2
    out = []
    offset = (seed % 997) / 997 + 0.0112358
    for j in range(count):
        t = (offset + j * golden) % 1.0
        out.append(int(t * GRID) & (GRID - 1))
    return out


def _log_checkpoints(n_max: int) -> list:
    out = []
    n = 1
    while n <= n_max:
        out.append(n)
        n = max(n + 1, int(round(n * 1.5)))
    if out[-1] != n_max:
        out.append(n_max)
    return out


def _sup_log_slope(ns, sups, scale) -> float:
    xs, ys = [], []
    for n, s in zip(ns, sups):
        if n >= 8 and s > 0:
            xs.append(math.log(math.log(n)))
            ys.append(math.log(s / scale))
    if len(xs) < 3:
        return 0.0
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# product of two rotations


@dataclass(frozen=True)
class ProductRotationReport:
    """Exact lattice walk over a two-dimensional rotation."""

    n_steps: int
    zero_returns: int
    first_return: int | None
    return_frequency: float
    spacing_constants: tuple     # (c1, c2) with c1 <= n*gap <= c2 over tested n
    spacing_ratio: float
    cf1: tuple
    cf2: tuple

    def to_json(self) -> dict:
        return {"n_steps": self.n_steps,
                "zero_returns": self.zero_returns,
                "first_return": self.first_return,
                "return_frequency": self.return_frequency,
                "spacing_constants": [float(c) for c in self.spacing_constants],
                "spacing_ratio": float(self.spacing_ratio),
                "cf1": list(self.cf1), "cf2": list(self.cf2)}


def product_rotation_simulate(alpha1, alpha2, phi1: CircleStep,
                              phi2: CircleStep, n_steps: int,
                              start=None, seed: int = 0,
                              spacing_ns=(100, 1000, 10000)
                              ) -> ProductRotationReport:
    """Walk the two-component lattice cocycle over a product rotation.

    Both component sums are exact integers; a zero return means both
    hit zero simultaneously.  The starting point defaults to a generic
    seed-derived position: special starts (such as a discontinuity
    itself) can have walks that never return exactly, which is the
    expected exceptional-orbit behavior, not an error.  The spacing
    report measures how evenly the iterated discontinuities spread,
    scaled by the iteration count.
    """
    if n_steps < 1:
        raise DomainError(f"walk length must be >= 1, got {n_steps}")
    if phi1.mean_numerator() != 0 or phi2.mean_numerator() != 0:
        raise DomainError("component functions must have zero mean")
    if start is None:
        g = (math.sqrt(5) - 1) / 2
        start = (((seed % 997) / 997 + 0.2371) % 1.0,
                 ((seed % 997) / 997 + g) % 1.0)
    x0 = int(float(start[0]) * GRID) & (GRID - 1)
    y0 = int(float(start[1]) * GRID) & (GRID - 1)
    s1 = dyadic_rotation(alpha1)
    s2 = dyadic_rotation(alpha2)
    chunk = 1 << 22
    total_zero = 0
    first_return = None
    carry1 = carry2 = 0
    done = 0
    while done < n_steps:
        cnt = min(chunk, n_steps - done)
        pos1 = _grid_positions((x0 + done * s1) % GRID, s1, cnt)
        pos2 = _grid_positions((y0 + done * s2) % GRID, s2, cnt)
        v1 = phi1.sample(pos1)
        v2 = phi2.sample(pos2)
        c1 = np.cumsum(v1) + carry1
        c2 = np.cumsum(v2) + carry2
        zeros = np.flatnonzero((c1 == 0) & (c2 == 0))
        if zeros.size and first_return is None:
            first_return = done + int(zeros[0]) + 1
        total_zero += int(zeros.size)
        carry1 = int(c1[-1])
        carry2 = int(c2[-1])
        done += cnt
    # discontinuity spacing of the iterated functions
    c_low, c_high = None, None
    for n in spacing_ns:
        for step, phi in ((s1, phi1), (s2, phi2)):
            pts = []
            for t in phi.breakpoints:
                back = _grid_positions(t, GRID - step, n)
                pts.append(back)
            allpts = np.sort(np.concatenate(pts).astype(np.uint64))
            gaps = np.diff(np.concatenate([allpts, allpts[:1] + GRID]))
            lo = float(gaps.min()) / GRID * n
            hi = float(gaps.max()) / GRID * n
            c_low = lo if c_low is None else min(c_low, lo)
            c_high = hi if c_high is None else max(c_high, hi)
    cf1 = exact_dyadic_cf(s1, GRID)
    cf2 = exact_dyadic_cf(s2, GRID)
    depth_cut = 24
    return ProductRotationReport(
        n_steps, total_zero, first_return,
        total_zero / n_steps, (c_low, c_high),
        c_high / c_low if c_low else float("inf"),
        tuple(cf1[:depth_cut]), tuple(cf2[:depth_cut]))


# ---------------------------------------------------------------------------
# three-distance cross-check


def three_distance_gaps(alpha, n: int) -> list:
    """Distinct gap lengths of the first n rotation points, exactly.

    The classical statement: the points {j alpha}, j < n, cut the
    circle into arcs of at most three distinct lengths.  On the dyadic
    grid distinctness is exact integer comparison.
    """
    step = dyadic_rotation(alpha)
    pos = np.sort(_grid_positions(0, step, n).astype(np.uint64))
    gaps = np.diff(np.concatenate([pos, pos[:1] + GRID]))
    return sorted(set(int(g) for g in gaps))
