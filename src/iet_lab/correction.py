"""Correction of bounded-variation cocycles by step vectors.

A zero-mean cocycle over a periodic-type exchange generically has
renormalizations growing at the second Lyapunov rate.  Subtracting the
right vector from the expanding part kills that growth; the corrector
lives in the intersection of the unstable space with the zero-mean
hyperplane and is unique there.  For pure step cocycles it is a direct
spectral projection; for cocycles with interior jumps or linear parts
it is the limit of pulled-back interval averages of the renormalized
cocycle, with a geometric tail controlled by the smallest expansion
rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import intmat
from .cocycles import (Cocycle, PiecewiseLinearCocycle, Renormalizer,
                       StepCocycle, mean, sup_norm)
from .errors import DomainError, NotZeroMean, Unsupported
from .precision import PrecisionContext
from .rauzy import PeriodicIet
from .spectral import Splitting, gauss_jordan_solve


@dataclass(frozen=True)
class CorrectionResult:
    """Correcting vectors with a certified truncation tail.

    ``h`` has one d-vector per cocycle coordinate.  ``corrected`` is the
    input cocycle with h added to its step part.  ``tail_bound`` bounds
    the distance from h to the exact corrector (zero for the pure step
    route, geometric in the depth for the series route).
    """

    h: tuple
    corrected: Cocycle
    depth: int
    tail_bound: object
    growth_sup: tuple = ()
    ctx: PrecisionContext = field(default=None, repr=False)

    def h_norm(self):
        return max(max(abs(x) for x in row) for row in self.h)

    def to_json(self) -> dict:
        return {"h": [[self.ctx.str_of(x) for x in row] for row in self.h],
                "depth": self.depth,
                "tail_bound": self.ctx.str_of(self.tail_bound, 10),
                "growth_sup": [self.ctx.str_of(v, 12) for v in self.growth_sup]}


def _add_step_vector(cocycle: Cocycle, h_rows) -> Cocycle:
    """Add a per-coordinate step vector to the cocycle's step part."""
    if isinstance(cocycle, StepCocycle):
        new_vals = tuple(
            tuple(cocycle.values[a][i] + h_rows[i][a]
                  for i in range(cocycle.dim))
            for a in range(len(cocycle.values)))
        return replace(cocycle, values=new_vals)
    new_consts = tuple(
        tuple(cocycle.constants[a][i] + h_rows[i][a]
              for i in range(cocycle.dim))
        for a in range(len(cocycle.constants)))
    return replace(cocycle, constants=new_consts)


def correct_step(vector, splitting: Splitting, periodic: PeriodicIet
                 ) -> CorrectionResult:
    """Exact correction of a pure step cocycle (one coordinate).

    The corrector is minus the unstable component; the corrected vector
    lies in the contracting-plus-central space, so no truncation error
    enters beyond the splitting's own precision.
    """
    ctx = periodic.ctx
    lam = periodic.lengths
    ip = ctx.mp.fsum(v * l for v, l in zip(vector, lam))
    if abs(ip) > ctx.eps_cmp * 16:
        raise NotZeroMean("step vector is not mean-free against the lengths")
    u_part = splitting.project(vector, "u")
    h_row = tuple(-x for x in u_part)
    corrected_vec = tuple(v + h for v, h in zip(vector, h_row))
    cocycle = StepCocycle.from_vector(corrected_vec)
    return CorrectionResult((h_row,), cocycle, 0, ctx.mp.mpf(0), (), ctx)


def _unstable_solve(m_u, rhs):
    """Solve the unstable-restriction linear system (small dense, exact-ish)."""
    return gauss_jordan_solve(m_u, rhs,
                              DomainError("unstable restriction is singular"))


def correct_bv(cocycle: Cocycle, periodic: PeriodicIet, splitting: Splitting,
               depth: int | None = None,
               renormalizer: Renormalizer | None = None) -> CorrectionResult:
    """Correcting vector of a step-with-jumps or piecewise linear cocycle.

    Renormalizes to the requested depth, takes the interval-average
    vector there, projects it on the unstable space, and pulls the
    projection back through the inverse of the unstable restriction.
    The telescoped series shows this equals the partial sum of the
    correction series, with tail bound

        C' * exp(-depth * theta_plus) * var(phi)

    where C' is the computed operator norm of the inverse unstable
    restriction and theta_plus the smallest expansion rate.
    """
    ctx = periodic.ctx
    mp = ctx.mp
    if not isinstance(cocycle, (StepCocycle, PiecewiseLinearCocycle)):
        raise Unsupported(f"cannot correct {type(cocycle).__name__}")
    iet = periodic.iet
    m0 = mean(cocycle, iet)
    if any(abs(v) > ctx.eps_cmp * 16 for v in m0):
        raise NotZeroMean("correction requires a zero-mean cocycle")
    rz = renormalizer or Renormalizer(periodic)
    if depth is None:
        depth = default_depth(periodic, splitting, cocycle, ctx)
    if depth < 1:
        raise DomainError("depth must be >= 1")
    # d rows of dim-vectors
    averages = rz.interval_averages(rz.to_depth(cocycle, depth))
    at = intmat.mat_transpose(periodic.step_matrix)
    m_u = splitting.unstable_map(at)
    h_rows = []
    for i in range(cocycle.dim):
        g_vec = [averages[a][i] for a in range(periodic.d)]
        _cs, _cc, cu = splitting.components(g_vec)
        # pull back one step at a time: a single solve against the depth
        # power mixes expansion scales and has condition (rho1/rho2)^depth
        pulled = list(cu)
        for _ in range(depth):
            pulled = _unstable_solve(m_u, pulled)
        h_vec = [mp.fsum(-c * b[t] for c, b in zip(pulled, splitting.basis_u))
                 for t in range(periodic.d)]
        h_rows.append(tuple(h_vec))
    var = _variation_of(cocycle, iet)
    c_prime = _inverse_unstable_norm(m_u, ctx)
    tail = c_prime * mp.e ** (-depth * splitting.theta_plus) * max(var, mp.mpf(1)) \
        * (1 + intmat.norm_col(periodic.step_matrix))
    corrected = _add_step_vector(cocycle, h_rows)
    return CorrectionResult(tuple(h_rows), corrected, depth, tail, (), ctx)


def _variation_of(cocycle: Cocycle, iet):
    if isinstance(cocycle, StepCocycle):
        v = cocycle.variation()
        return iet.ctx.real(v if v else 0)
    return cocycle.variation(iet)


def _inverse_unstable_norm(m_u, ctx):
    """Max-column-sum norm of the inverse of the unstable restriction."""
    k = len(m_u)
    cols = []
    for j in range(k):
        e = [ctx.mp.mpf(1) if i == j else ctx.mp.mpf(0) for i in range(k)]
        cols.append(_unstable_solve(m_u, e))
    return max(ctx.mp.fsum(abs(cols[j][i]) for j in range(k))
               for i in range(k)) if k else ctx.mp.mpf(0)


def default_depth(periodic: PeriodicIet, splitting: Splitting,
                  cocycle: Cocycle, ctx: PrecisionContext) -> int:
    """Smallest depth whose certified tail drops below 2^(-bits/4).

    For cocycles with interior jumps the depth is also capped by the
    position-precision budget: pulled-back jump positions expand by the
    period scale at every stage, so a jump known to the working
    precision stays meaningful only for about bits / (2 log2 rho)
    stages.  The reported tail bound is computed for the depth actually
    used.
    """
    import math

    mp = ctx.mp
    target = mp.mpf(2) ** (-(ctx.bits // 4))
    var = _variation_of(cocycle, periodic.iet)
    at = intmat.mat_transpose(periodic.step_matrix)
    c_prime = _inverse_unstable_norm(splitting.unstable_map(at), ctx)
    base = c_prime * max(var, mp.mpf(1)) * (1 + intmat.norm_col(periodic.step_matrix))
    depth = 1
    while depth < 400:
        if base * mp.e ** (-depth * splitting.theta_plus) < target:
            break
        depth += 1
    if isinstance(cocycle, StepCocycle) and cocycle.jumps:
        cliff = int((ctx.bits // 2) / math.log2(float(periodic.step_scale)))
        depth = min(depth, max(2, cliff))
    return depth


@dataclass(frozen=True)
class GrowthReport:
    """Sup norms of the renormalized cocycle, depth by depth."""

    sups: tuple
    depths: tuple
    bounded_estimate: object   # max over depths of the sup
    mean_ratio_tail: object    # geometric-mean growth factor over the tail


def renorm_sup_curve(cocycle: Cocycle, periodic: PeriodicIet, k_max: int,
                     renormalizer: Renormalizer | None = None) -> GrowthReport:
    """Exact sup norms of the depth-k renormalizations, k = 0..k_max."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    rz = renormalizer or Renormalizer(periodic)
    iet = periodic.iet
    state = rz.start(cocycle)
    sups = [sup_norm(cocycle, iet)]
    for _k in range(k_max):
        state = rz.advance(state)
        sups.append(sup_norm(state.cocycle, iet))
    depths = tuple(range(k_max + 1))
    tail_lo = max(1, (2 * k_max) // 3)
    mp = periodic.ctx.mp
    if sups[tail_lo] > 0 and k_max > tail_lo:
        ratio = (sups[k_max] / sups[tail_lo]) ** (mp.mpf(1) / (k_max - tail_lo))
    else:
        ratio = mp.mpf(0)
    return GrowthReport(tuple(sups), depths, max(sups), ratio)


def growth_check(corrected: CorrectionResult, periodic: PeriodicIet,
                 k_max: int, renormalizer: Renormalizer | None = None
                 ) -> GrowthReport:
    """Growth report for the corrected cocycle up to depth k_max."""
    return renorm_sup_curve(corrected.corrected, periodic, k_max, renormalizer)
