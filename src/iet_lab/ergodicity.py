"""Skew products, essential-value probes, and cocycle classification.

Nothing here claims ergodicity: orbits and towers produce *evidence*
(candidate essential values with tower measures attached, recurrence
statistics, coboundary certificates) that a skew product behaves as the
theory predicts.  Exact integer structure is used wherever it exists:
fixed spaces of the transpose matrix are computed over the integers,
and candidate values from integer step cocycles stay integers all the
way through renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intmat
from .cocycles import (FLOAT_BLOCK, Cocycle, ExactWalker,
                       PiecewiseLinearCocycle, Renormalizer, StepCocycle,
                       evaluate, float_table, float_walk, jumps_by_letter)
from .errors import (DomainError, EmptyFixedSpace, NearBreakpoint,
                     NotZeroMean, Unsupported)
from .precision import PrecisionContext
from .rauzy import Iet, PeriodicIet
from .spectral import Splitting, singularity_data


# ---------------------------------------------------------------------------
# integer fixed space of the transpose


@dataclass(frozen=True)
class FixedSpaceBasis:
    """Integer basis of the fixed vectors of the transpose matrix.

    ``letter_vectors[a]`` collects the a-th coordinate of every basis
    vector; the fixed-space theorem needs these to generate the full
    integer lattice, certified by the Smith form of the basis matrix.
    """

    vectors: tuple
    letter_vectors: tuple
    generates_lattice: bool
    kappa: int
    exceeds_minimum: bool

    @property
    def k(self) -> int:
        return len(self.vectors)


def fixed_space_basis(periodic: PeriodicIet) -> FixedSpaceBasis:
    """Exact integer kernel basis of (A^t - I), reduced and verified."""
    a_t = intmat.mat_transpose(periodic.step_matrix)
    d = periodic.d
    shifted = tuple(tuple(a_t[i][j] - (1 if i == j else 0) for j in range(d))
                    for i in range(d))
    basis = intmat.integer_kernel(shifted)
    if not basis:
        raise EmptyFixedSpace("transpose matrix has no nonzero fixed vectors")
    ctx = periodic.ctx
    for v in basis:
        image = intmat.mat_vec(a_t, v)
        if tuple(image) != tuple(v):
            raise DomainError("kernel vector is not exactly fixed")
        ip = abs(ctx.mp.fsum(x * l for x, l in zip(v, periodic.lengths)))
        if ip > ctx.eps_cmp * 64:
            raise DomainError("fixed vector fails the zero-mean check")
    k = len(basis)
    letter_vectors = tuple(tuple(v[a] for v in basis) for a in range(d))
    snf_d, _u, _v = intmat.smith_normal_form([list(w) for w in letter_vectors])
    diag = [snf_d[i][i] for i in range(min(len(snf_d), len(snf_d[0])))]
    generates = all(x == 1 for x in diag[:k]) and len([x for x in diag if x]) >= k
    sdata = singularity_data(periodic.pair)
    return FixedSpaceBasis(tuple(tuple(v) for v in basis), letter_vectors,
                           generates, sdata.kappa, k > sdata.kappa - 1)


def build_fixed_cocycle(basis: FixedSpaceBasis) -> StepCocycle:
    """Integer-vector step cocycle whose coordinates are the basis rows."""
    if basis.k < 1:
        raise EmptyFixedSpace("need at least one fixed vector")
    return StepCocycle(basis.k, basis.letter_vectors)


def compose_linear(matrix_rows, cocycle: StepCocycle) -> StepCocycle:
    """Apply a linear map to the values of a step cocycle (R . phi)."""
    rows = [list(r) for r in matrix_rows]
    m = len(rows)
    if any(len(r) != cocycle.dim for r in rows):
        raise DomainError("matrix width must equal the cocycle dimension")
    new_values = tuple(
        tuple(sum(rows[i][t] * v[t] for t in range(cocycle.dim)) for i in range(m))
        for v in cocycle.values)
    new_jumps = tuple(
        (g, tuple(sum(rows[i][t] * j[t] for t in range(cocycle.dim))
                  for i in range(m)))
        for g, j in cocycle.jumps)
    return StepCocycle(m, new_values, new_jumps)


def dense_image_matrix(k: int):
    """A (k-1) x k matrix whose integer-lattice image is dense.

    Rows are delta rows with an extra column of square roots of primes,
    rationally independent from 1; any nonzero rational combination of
    rows then leaves the integer lattice, which is the density criterion.
    """
    if k < 2:
        raise DomainError("need k >= 2 for a dense-image reduction")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    irrationals = [math.sqrt(p) for p in primes[:k - 1]]
    rows = []
    for i in range(k - 1):
        row = [1 if j == i else 0 for j in range(k - 1)]
        row.append(irrationals[i])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# coboundary classification and lattice containment

COBOUNDARY = "Coboundary"
NOT_COBOUNDARY = "NotCoboundary"
CENTRAL_UNDETERMINED = "CentralUndetermined"


def coboundary_classify(vector, splitting: Splitting, periodic: PeriodicIet
                        ) -> str:
    """Growth-based trichotomy for a zero-mean step cocycle.

    Contracting vectors give bounded sums (hence coboundaries); any
    expanding component forces unbounded renormalizations (hence not);
    a purely central remainder is undecidable from growth alone.  Sizes
    are judged against 2**(-bits/3) times the vector's scale.  A vector
    that is not one finite value per letter is refused.
    """
    ctx = periodic.ctx
    if len(vector) != periodic.d:
        raise DomainError(f"step vector must have {periodic.d} entries, "
                          f"got {len(vector)}")
    if not all(ctx.mp.isfinite(ctx.real(v)) for v in vector):
        raise DomainError("step vector entries must be finite")
    ip = abs(ctx.mp.fsum(v * l for v, l in zip(vector, periodic.lengths)))
    scale = max(max(abs(ctx.real(v)) for v in vector), ctx.mp.mpf(1))
    tol = ctx.mp.mpf(2) ** (-(ctx.bits // 3))
    if ip > tol * scale:
        raise NotZeroMean("classification requires a zero-mean step vector")
    cs, cc, cu = splitting.components(vector)
    u_size = max((abs(c) for c in cu), default=ctx.mp.mpf(0))
    c_size = max((abs(c) for c in cc), default=ctx.mp.mpf(0))
    if u_size > tol * scale:
        return NOT_COBOUNDARY
    if c_size > tol * scale:
        return CENTRAL_UNDETERMINED
    return COBOUNDARY


@dataclass(frozen=True)
class LatticeReport:
    """Which scaled integer lattices contain all values and jumps."""

    scales: tuple
    contained: tuple
    residuals: tuple


def lattice_containment(cocycle: StepCocycle, scales, ctx: PrecisionContext
                        ) -> LatticeReport:
    """Check value and jump membership in each lattice c * Z^dim, each
    entry within 1e-20 of a multiple of c; a scale c that is zero or not
    finite is refused."""
    for c in scales:
        cc = ctx.real(c)
        if cc == 0 or not ctx.mp.isfinite(cc):
            raise DomainError(f"lattice scale must be finite and non-zero, "
                              f"got {c}")
    tol = ctx.mp.mpf(10) ** (-20)
    entries = [x for v in cocycle.values for x in v]
    entries += [x for _g, j in cocycle.jumps for x in j]
    contained = []
    residuals = []
    for c in scales:
        cc = ctx.real(c)
        worst = ctx.mp.mpf(0)
        for x in entries:
            q = ctx.real(x) / cc
            worst = max(worst, abs(q - ctx.mp.nint(q)))
        contained.append(bool(worst <= tol))
        residuals.append(worst)
    return LatticeReport(tuple(scales), tuple(contained), tuple(residuals))


# ---------------------------------------------------------------------------
# essential-value probe through towers


@dataclass(frozen=True)
class TowerPiece:
    level: int
    letter: int
    piece_index: int
    value: tuple
    measure: object
    clean: bool


@dataclass(frozen=True)
class EssentialValueReport:
    """Constant climb values over sub-towers, tracked across depths.

    ``candidates`` holds the limits of convergent value tracks together
    with the smallest tower measure seen along the track: positive-mass
    towers with convergent climb values are exactly the evidence the
    tower criterion for essential values asks for.
    """

    pieces: tuple
    candidates: tuple
    contaminated_levels: tuple


def essential_value_probe(cocycle: Cocycle, periodic: PeriodicIet,
                          n_max: int, renormalizer: Renormalizer | None = None
                          ) -> EssentialValueReport:
    """Evaluate climb sums over the canonical sub-towers, depth by depth.

    For each depth n, the cocycle renormalized to depth n+1 is constant
    between its pulled-back jumps; pieces whose jumps all sit above the
    sub-tower height give constant climb values on positive-measure
    towers.  Tracks of values convergent in n become candidates.
    """
    if not isinstance(cocycle, (StepCocycle, PiecewiseLinearCocycle)):
        raise Unsupported("probe supports step and piecewise linear cocycles")
    if isinstance(cocycle, PiecewiseLinearCocycle):
        # linear parts shrink with the interval: probe the step skeleton
        raise Unsupported("probe the corrected step part of a linear cocycle")
    if n_max < 0:
        raise DomainError(f"probe depth must be >= 0, got {n_max}")
    rz = renormalizer or Renormalizer(periodic)
    periodic_iet = periodic.iet
    rho = periodic.step_scale
    pieces = []
    contaminated = []
    state = rz.start(cocycle)
    state = rz.advance(state)  # depth 1 = towers at level 0
    alpha1 = periodic.first_letter()
    for n in range(0, n_max + 1):
        # state is at depth n+1 here
        sub_height = periodic.heights(n)[alpha1]
        phi_n = state.cocycle
        scale = rho ** (-(n + 1))
        level_bad = False
        for a, held in enumerate(jumps_by_letter(phi_n, periodic_iet)):
            cuts = [(*phi_n.jumps[t], state.jump_steps[t]) for t in held]
            bad = [c for c in cuts if c[2] < sub_height]
            if bad:
                level_bad = True
            bounds = [periodic_iet.left[a]] + [c[0] for c in cuts] \
                + [periodic_iet.right[a]]
            acc = list(phi_n.values[a])
            for idx in range(len(bounds) - 1):
                lo, hi = bounds[idx], bounds[idx + 1]
                if idx > 0:
                    jump = cuts[idx - 1][1]
                    for i in range(phi_n.dim):
                        acc[i] = acc[i] + jump[i]
                clean = not any(lo <= c[0] <= hi for c in bad)
                measure = (hi - lo) * scale * sub_height
                pieces.append(TowerPiece(n, a, idx, tuple(acc), measure, clean))
        if level_bad:
            contaminated.append(n)
        if n < n_max:
            state = rz.advance(state)
    candidates = _track_candidates(pieces, n_max)
    return EssentialValueReport(tuple(pieces), tuple(candidates),
                                tuple(contaminated))


def _track_candidates(pieces, n_max: int) -> list:
    """Cluster clean piece values across depths, each value within a
    relative 1e-9 of its track's last; convergent tracks win."""
    by_level: dict = {}
    for p in pieces:
        if p.clean:
            by_level.setdefault(p.level, []).append(p)
    tracks = []
    for n in sorted(by_level):
        for p in by_level[n]:
            val = tuple(float(x) for x in p.value)
            for track in tracks:
                if (track["last_level"] < n
                        and all(abs(a - b) <= 1e-9 * max(1.0, abs(a))
                                for a, b in zip(val, track["val"]))):
                    track["val"] = val
                    track["exact"] = p.value
                    track["last_level"] = n
                    track["count"] += 1
                    track["min_measure"] = min(track["min_measure"],
                                               float(p.measure))
                    break
            else:
                tracks.append({"val": val, "exact": p.value, "last_level": n,
                               "count": 1, "min_measure": float(p.measure)})
    out = []
    for track in tracks:
        if track["count"] >= max(2, (n_max + 1) // 2) \
                and track["last_level"] >= n_max - 1:
            out.append((track["exact"], track["count"], track["min_measure"]))
    return out


# ---------------------------------------------------------------------------
# skew-product recurrence statistics


@dataclass(frozen=True)
class RecurrenceStats:
    """Return statistics of sampled skew-product orbits.

    ``hits[eps]`` counts orbit times with displacement max-norm below
    eps, summed over samples; histogram bins are decades of the norm.
    """

    n_steps: int
    sample_count: int
    skipped_samples: int
    min_norms: tuple
    hits: dict
    histogram: tuple
    zero_returns: int
    seed: int = 0

    def to_json(self) -> dict:
        return {"n_steps": self.n_steps,
                "samples": self.sample_count,
                "skipped": self.skipped_samples,
                "min_norms": [float(v) for v in self.min_norms],
                "hits": {str(k): v for k, v in self.hits.items()},
                "histogram": list(self.histogram),
                "zero_returns": self.zero_returns,
                "seed": self.seed}


def skew_simulate(iet: Iet, cocycle: Cocycle, x0_list, n_steps: int,
                  eps_list=(0.5, 0.1, 0.02), seed: int = 0) -> RecurrenceStats:
    """Track displacement returns of the skew product along float orbits.

    Orbit points entering the guard band (``float_walk``) abort that
    sample (skipped and counted), never silently mis-stepped.  A
    non-finite displacement, or a return radius that is negative or not
    finite, raises DomainError; a radius of 0 counts no return, since a
    return is a norm below the radius.
    """
    if len(x0_list) == 0:
        raise DomainError("need >= 1 sample start, got none")
    if not all(0 <= e < math.inf for e in eps_list):
        raise DomainError(f"return radii must be finite and non-negative, "
                          f"got {list(eps_list)}")
    if n_steps < 1:
        raise DomainError(f"walk length must be >= 1, got {n_steps}")
    mirror = iet.mirror
    table = float_table(cocycle, iet)
    eps_sorted = sorted(set(eps_list), reverse=True)  # a repeat counts once
    hits = {e: 0 for e in eps_sorted}
    histogram = [0] * 10  # decades from 1e-6 up
    min_norms = []
    skipped = 0
    zero_returns = 0
    for x0 in x0_list:
        # a skipped sample contributes nothing: merge only on success
        try:
            best, s_hits, s_histogram, s_zero = _skew_sample(
                mirror, table, float(x0), n_steps, eps_sorted)
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


@np.errstate(over="ignore", invalid="ignore")  # overflow is a DomainError
def _skew_sample(mirror, table, x0: float, n_steps: int, eps_sorted):
    """One sample's (min norm, eps hits, histogram, zero returns).

    Each chunk of the walk (``float_walk``) becomes one row of
    displacement increments per coordinate, summed in place by one
    accumulate seeded with the running displacement: the same additions
    in the same order as a per-step loop.  Every statistic is a count
    of norms at or above a threshold (``_thresholds``), summed over the
    chunks: a chunk counts only the thresholds inside (least norm,
    greatest norm] and above its least positive norm (``_at_least``).
    The walk, the increments and the norms reuse one set of buffers per
    sample.
    """
    vals = np.array(table.values)
    consts = None if table.constants is None else np.array(table.constants)
    stride = 1 + len(table.jumps)  # additions per step
    disp = np.zeros(table.dim)
    best = math.inf
    thresholds = _thresholds(eps_sorted)
    at_least = np.zeros(len(thresholds), np.int64)
    count = 0
    inc_buf = np.empty((table.dim, FLOAT_BLOCK * stride))
    norm_buf = np.empty(FLOAT_BLOCK) if table.dim > 1 else None
    for sl, xs in float_walk(mirror, x0, n_steps, [table]):
        inc = inc_buf[:, :len(sl) * stride]
        if consts is None:
            _step_increments(vals, table.jumps, sl, xs, inc)
        else:
            np.take(vals, sl, axis=1, out=inc, mode="clip")
            inc *= xs
            inc += consts[:, sl]
        inc[:, 0] += disp
        np.add.accumulate(inc, axis=1, out=inc)
        path = inc[:, stride - 1::stride]
        disp = path[:, -1].copy()
        np.abs(path, out=path)
        norms = path[0] if norm_buf is None else \
            path.max(axis=0, out=norm_buf[:len(sl)])
        # a non-finite sum stays non-finite, so the last step tells
        if not math.isfinite(norms[-1]):
            raise DomainError("skew-product displacement overflowed the "
                              "float lane")
        least, counts = _at_least(norms, thresholds)
        best = min(best, least)
        at_least += counts
        count += len(norms)
    return (best, *_statistics(count, at_least, thresholds, eps_sorted))


def _step_increments(vals, jumps, sl, xs, out) -> None:
    """Additions of a step cocycle in walk order, 1 + len(jumps) per step,
    written to ``out``.

    Each step adds its slot value, then each jump in ``jumps`` order:
    the jump vector where crossed, else +0.0, which changes no sum (a
    running sum started at +0.0 never holds -0.0).  With no jumps a
    step's one addition is its slot value, so one take fills the rows.
    """
    stride = 1 + len(jumps)
    np.take(vals, sl, axis=1, out=out[:, ::stride], mode="clip")
    for ji, (slot, gf, j) in enumerate(jumps):
        crossed = (sl == slot) & (xs >= gf)
        column = out[:, 1 + ji::stride]
        column[:] = 0.0
        column[:, crossed] = np.array(j)[:, None]


def _decade_edges():
    """Smallest doubles x with floor(math.log10(x)) >= k, for k = -6..2."""
    edges = []
    for k in range(-6, 3):
        x = 10.0 ** k
        while math.floor(math.log10(x)) >= k:
            x = math.nextafter(x, 0.0)
        while math.floor(math.log10(x)) < k:
            x = math.nextafter(x, math.inf)
        edges.append(x)
    return np.array(edges)


# a norm is in bin k or above (k = 1..9) when it is at least _BIN_FLOORS[k - 1]
_BIN_FLOORS = np.maximum(_decade_edges(), math.nextafter(1e-6, math.inf))
_LEAST_POSITIVE = math.ulp(0.0)  # a norm at or above it is not zero


def _thresholds(eps_sorted) -> np.ndarray:
    """The thresholds of a sample's statistics, ascending and distinct:
    each eps (a hit is a norm below it), the least positive float (a
    zero return is a norm below it) and the bin floors."""
    return np.unique([*eps_sorted, _LEAST_POSITIVE, *_BIN_FLOORS.tolist()])


def _at_least(norms, thresholds) -> tuple:
    """(least norm, the count of ``norms`` at or above each threshold).

    The norms are finite and not negative.  A threshold at or below the
    least norm counts every norm and one above the greatest counts none.
    The rest are counted from the top down; with zero norms, a count
    equal to the number of positive norms ends the counting, since every
    threshold below it, down to the least positive float, counts as
    many.
    """
    least, greatest = float(norms.min()), float(norms.max())
    low, high = thresholds.searchsorted([least, greatest], "right").tolist()
    counts = np.zeros(len(thresholds), np.int64)
    counts[:low] = len(norms)
    positive = np.count_nonzero(norms) if least == 0.0 else -1
    for k in range(high - 1, low - 1, -1):
        counts[k] = np.count_nonzero(norms >= thresholds[k])
        if counts[k] == positive:
            counts[low:k] = positive
            break
    return least, counts


def _statistics(count: int, at_least, thresholds, eps_sorted) -> tuple:
    """(eps hits, histogram, zero returns) of ``count`` norms of which
    ``at_least[i]`` are at or above ``thresholds[i]``.

    A norm n is in bin ``0 if n <= 1e-6 else min(9, int(6 +
    math.floor(math.log10(n))) + 1)``: the bin floors are where that
    floor steps, so no vector log10 rounds a norm next to a power of ten
    into the wrong decade, and they are nested, so differences of the
    counts at or above them give the histogram.
    """
    above = dict(zip(thresholds.tolist(), at_least.tolist()))
    hits = {e: count - above[e] for e in eps_sorted}
    floors = [above[f] for f in _BIN_FLOORS.tolist()]
    histogram = (-np.diff([count, *floors, 0])).tolist()
    return hits, histogram, count - above[_LEAST_POSITIVE]


# ---------------------------------------------------------------------------
# special flows


def special_flow_step(iet: Iet, roof: PiecewiseLinearCocycle, state, t):
    """Advance a point of the region under the roof by time t.

    The state is (x, s) with 0 <= s < roof(x); the flow moves straight
    up and re-enters at (Tx, 0) upon hitting the roof.  The base orbit
    is one exact walk (of ``iet.inverse`` backward in time), each point
    rounded once; the roof is evaluated at working precision.
    """
    if roof.dim != 1:
        raise DomainError("roof must be scalar")
    x, s = state
    roof_min = min(min(roof.slopes[a][0] * iet.left[a] + roof.constants[a][0],
                       roof.slopes[a][0] * iet.right[a] + roof.constants[a][0])
                   for a in range(iet.d))
    if not roof_min > 0:
        raise DomainError("roof must be strictly positive")
    fx = evaluate(roof, iet, x)[0]
    if not (0 <= s < fx):
        raise DomainError("state is not under the roof")
    target = s + t
    forward = target >= 0  # else sum the roofs over T^-1 x, T^-2 x, ...
    bound = int((abs(t) + (fx if forward else 0)) / roof_min) + 2
    walker = ExactWalker.from_point(iet if forward else iet.inverse, x)
    letters, nums = walker.positions(bound + 1 if forward else bound)
    acc = iet.ctx.mp.mpf(0)
    for a, num in zip(letters, nums if forward else nums[1:]):
        cur = walker.lengths.exact_real(num)
        f_cur = roof.slopes[a][0] * cur + roof.constants[a][0]
        if forward and acc + f_cur > target:
            return (cur, target - acc)
        acc += f_cur if forward else -f_cur
        if not forward and target >= acc:
            return (cur, target - acc)
    raise DomainError("flow step search did not terminate")
