"""Circle rotations: continued fractions, variation-bounded sums,
two-dimensional products, and the three-distance cross-check.

The heavy lifting runs on a dyadic grid: the rotation number is
replaced by its closest 53-bit dyadic rational, positions become exact
integer residues mod 2^53 (vectorized in uint64 without overflow via a
split-multiply), and integer-valued step functions produce exactly
summable walks.  The continued fraction of the dyadic representative is
computed exactly, so every convergent-denominator statement tested here
is a theorem about the simulated rotation, not a float approximation.
The variation-bound check looks up doubling tables of block sums
(2^k orbit steps at a time) instead of walking every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, RationalInput
from .precision import (PrecisionContext, geometric_checkpoints,
                        least_squares_slope)

GRID_BITS = 53
GRID = 1 << GRID_BITS
_MASK = np.uint64(GRID - 1)
_SPLIT = 26  # low bits; high part then fits 27 bits
# denjoy_koksma_check looks up blocks of at most 2^_DK_TABLE_DEPTH orbit
# steps; each doubling table then has at most K * 2^_DK_TABLE_DEPTH pieces
# for a step function with K breakpoints.
_DK_TABLE_DEPTH = 12
# |value| < 2^_VALUE_BITS: a sum of fewer than 2^24 steps (the longest grid
# walk), and so every block sum, table sum and partial max/min, stays
# below 2^62 in int64.
_VALUE_BITS = 38


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergent denominators of a real number."""

    alpha: object
    quotients: tuple
    denominators: tuple
    numerators: tuple
    is_bpq: bool


def continued_fraction(alpha, depth: int, ctx: PrecisionContext | None = None
                       ) -> ContinuedFraction:
    """Partial quotients a_1..a_depth of a number in (0, 1).

    Rational inputs (exactly representable at working precision before
    the requested depth) raise RationalInput.  Denominators follow
    q_{n+1} = a_{n+1} q_n + q_{n-1} starting from q_0 = 1.  ``is_bpq``
    (bounded partial quotients) holds when no quotient exceeds 100.
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
                             max(quots) <= 100)


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
    _check_walk_length(count)
    j = np.arange(count, dtype=np.uint64)
    hi = np.uint64(step >> _SPLIT)
    lo = np.uint64(step & ((1 << _SPLIT) - 1))
    pos = (((j * hi) << np.uint64(_SPLIT)) + j * lo + np.uint64(x0)) & _MASK
    return pos


def _check_walk_length(count: int) -> None:
    if count >= 1 << 24:
        raise DomainError("grid walk limited to 2^24 points per block")


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
        if not all(isinstance(b, int) and 0 <= b < GRID
                   for b in self.breakpoints):
            raise DomainError("breakpoints must be integer grid residues "
                              "in [0, 2^53)")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise DomainError("breakpoints must be sorted grid residues")
        if not self.breakpoints:
            raise DomainError("need at least one breakpoint")
        if len(self.values) != len(self.breakpoints):
            raise DomainError("need one value per breakpoint")
        if not all(isinstance(v, int) for v in self.values):
            raise DomainError("values must be integers (scaled by scale)")
        if not all(abs(v) < 1 << _VALUE_BITS for v in self.values):
            raise DomainError(f"values must lie strictly between -2^"
                              f"{_VALUE_BITS} and 2^{_VALUE_BITS}")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise DomainError("scale must be a positive integer")

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
    rounding artifact.

    All sample starts are walked together, by doubling tables instead of
    step by step.  [0, limit) is split at the denominators and the sup
    checkpoints, and each segment is covered by greedy blocks of
    2^min(_DK_TABLE_DEPTH, floor(log2 rest)) orbit steps; one block is
    one table lookup for every sample.  That is about limit / 2^12 plus
    O(log limit) lookups per segment, with memory O(samples + K * 2^12)
    for K breakpoints.
    """
    if samples < 0:
        raise DomainError(f"sample count must be >= 0, got {samples}")
    if depth < 1:
        raise DomainError(f"convergent depth must be >= 1, got {depth}")
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
    _check_walk_length(limit)
    rng = _grid_samples(samples, seed)
    max_abs = {q: 0 for q in dens}
    violations = 0
    checkpoints = geometric_checkpoints(limit, 1.5)
    sup_at = set(checkpoints)
    sup_curve = []
    tables = _block_tables(phi, step,
                           min(_DK_TABLE_DEPTH, limit.bit_length() - 1))
    x0s = np.array(rng, dtype=np.uint64)
    # per sample: S_pos and the max/min of S_1..S_pos (0 before any step,
    # which leaves max |S_m| = max(run_max, -run_min) unchanged)
    carry = np.zeros(len(rng), dtype=np.int64)
    run_max = np.zeros(len(rng), dtype=np.int64)
    run_min = np.zeros(len(rng), dtype=np.int64)
    pos = 0
    for stop in sorted(sup_at.union(dens)):
        while pos < stop:
            k = min(len(tables) - 1, (stop - pos).bit_length() - 1)
            at = (x0s + np.uint64(pos * step % GRID)) & _MASK
            s, high, low = _lookup(tables[k], at)
            np.maximum(run_max, carry + high, out=run_max)
            np.minimum(run_min, carry + low, out=run_min)
            carry += s
            pos += 1 << k
        if stop in max_abs:
            sums = np.abs(carry)
            max_abs[stop] = int(sums.max(initial=0))
            violations += int(np.count_nonzero(sums > bound_int))
        if stop in sup_at:
            sup_curve.append(int(np.maximum(run_max, -run_min).max(initial=0)))
    slope = least_squares_slope(
        [(math.log(math.log(n)), math.log(s / phi.scale))
         for n, s in zip(checkpoints, sup_curve) if n >= 8 and s > 0])
    return VariationBoundReport(tuple(dens), tuple(quots[:len(dens)]),
                                {q: Fraction(v, phi.scale)
                                 for q, v in max_abs.items()},
                                var, violations, len(rng),
                                tuple(zip(checkpoints,
                                          [Fraction(v, phi.scale)
                                           for v in sup_curve])),
                                slope)


def _block_tables(phi: CircleStep, step: int, depth: int) -> list:
    """Doubling tables T_0..T_depth of phi's block sums along the rotation.

    T_k = (breaks, S, P, N) describes the 2^k orbit steps from x: on
    the piece [breaks[i], breaks[i+1]) (the last piece wraps through 0)
    S[i] is their sum and P[i], N[i] the max and min of the partial
    sums S_1..S_{2^k}.  T_{k+1} joins the blocks at x and x + 2^k step,
    so its breaks are those of T_k and their preimages under that shift.
    """
    breaks = np.unique(np.array(phi.breakpoints, dtype=np.uint64))
    vals = phi.sample(breaks)
    tables = [(breaks, vals, vals, vals)]
    for k in range(depth):
        shift = np.uint64((step << k) % GRID)
        prev = tables[-1][0]
        breaks = np.unique(np.concatenate([prev, (prev - shift) & _MASK]))
        s1, p1, n1 = _lookup(tables[-1], breaks)
        s2, p2, n2 = _lookup(tables[-1], (breaks + shift) & _MASK)
        tables.append((breaks, s1 + s2, np.maximum(p1, s1 + p2),
                       np.minimum(n1, s1 + n2)))
    return tables


def _lookup(table, x: np.ndarray) -> tuple:
    """(S, P, N) of a doubling table at grid positions x."""
    breaks, s, p, n = table
    i = np.searchsorted(breaks, x, side="right") - 1   # -1: the wrap piece
    return s[i], p[i], n[i]


def _grid_samples(count: int, seed: int) -> list:
    golden = (math.sqrt(5) - 1) / 2
    out = []
    offset = (seed % 997) / 997 + 0.0112358
    for j in range(count):
        t = (offset + j * golden) % 1.0
        out.append(int(t * GRID) & (GRID - 1))
    return out


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
                              start=None, seed: int = 0
                              ) -> ProductRotationReport:
    """Walk the two-component lattice cocycle over a product rotation.

    Both component sums are exact integers; a zero return means both
    hit zero simultaneously.  The starting point defaults to a generic
    seed-derived position: special starts (such as a discontinuity
    itself) can have walks that never return exactly, which is the
    expected exceptional-orbit behavior, not an error.  The spacing
    report measures how evenly the iterated discontinuities spread,
    scaled by the iteration count, at 100, 1000 and 10000 iterations.
    """
    if n_steps < 1:
        raise DomainError(f"walk length must be >= 1, got {n_steps}")
    if phi1.mean_numerator() != 0 or phi2.mean_numerator() != 0:
        raise DomainError("component functions must have zero mean")
    if n_steps * max(map(abs, (*phi1.values, *phi2.values))) >= 1 << 63:
        raise DomainError(f"a walk of {n_steps} steps can overflow the "
                          f"int64 component sums")
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
    for n in (100, 1000, 10000):
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
    if n < 1:
        raise DomainError(f"point count must be >= 1, got {n}")
    step = dyadic_rotation(alpha)
    pos = np.sort(_grid_positions(0, step, n).astype(np.uint64))
    gaps = np.diff(np.concatenate([pos, pos[:1] + GRID]))
    return sorted(set(int(g) for g in gaps))
