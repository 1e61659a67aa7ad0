"""Cocycles over interval exchanges: evaluation, Birkhoff sums, towers,
partitions, and renormalization.

Two orbit engines back the heavy operations, and both walk one float
shadow of one interval geometry, a climb at a time by one step
(``shadow.shadow_step``): an exchange's ``FloatMirror``
(``Iet.mirror`` at depth 0, ``lattice_mirror`` of ``depth_lattice``
from A^-n at depth n).  The step predicts a tower climb's slots, adds
the moves by one accumulate and checks the guard rule, for a whole
climb at once where the tower table's bounds certify it and step by
step elsewhere, so the float lane sees a per-step walk bit for bit;
the float lane takes certified climbs by batches
(``shadow.shadow_climbs``) and the step only where a batch's check
fails.  Each engine keeps its own loop over the steps.  The exact engine
(``ExactWalker``) carries positions as integer combinations of the
length vector and settles a guarded step by exact signs, so its visit
counts are exact.  It moves a climb at a time: a certified climb whole,
by its word's visit counts without the climb's float positions, any
other as one shadow step up to the climb's end, and every move ends
with one resync of the shadow from the exact position and, for a
return walk, one threshold check.  A drift bound keeps the exact orbit
far inside the guard of the certified float one.  Every stored length
is a dyadic rational, so one integer dot of a coefficient vector with
the lengths' mantissas (``RealVector.int_dot``) gives a lattice value
exactly: its sign is ``certified_lattice_sign``, and a resync float,
like every mirror entry, is that value rounded once to the nearest
float.  A real start x is a dyadic rational too
(``ExactWalker.from_point``), so every orbit of the library but the
float lane's is exact, backward ones on ``Iet.inverse``.  The float lane
(``float_walk``, chunks of batched climbs in reused buffers) serves
``deviation_sweep`` and the skew-product simulation: a guarded point,
at any step including the first, or one within GUARD * |I| of a step
cocycle's jump in its interval, on either side since the float orbit
is never resynced, skips its sample (counted), so measure-zero
collisions cannot silently poison the statistics.

Renormalization exploits self-similarity: for a periodic-type exchange
the induced map at every depth rescales to the same unit exchange, so
one period's tower geometry (computed once) renormalizes a step or
piecewise-linear cocycle through all depths in closed form.  Jumps are
placed exactly: in intervals by ``jumps_by_letter``, in tower levels by
one bisect of their integer left ends.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import accumulate, chain
from operator import itemgetter

import mpmath
import numpy as np

from . import intmat
from .errors import (DomainError, KeaneViolation, NearBreakpoint,
                     NotNormalized, Unsupported, reading_spec)
from .precision import (as_fraction, geometric_checkpoints,
                        kronecker_samples, least_squares_slope)
from .rauzy import DepthLattice, Iet, PeriodicIet, _lattice
from .shadow import FloatMirror, lattice_mirror, shadow_climbs, shadow_step

FLOAT_BLOCK = 1 << 16  # most orbit steps per float_walk chunk
EXACT_BLOCK = 1 << 14  # most orbit steps per _exact_sums block
CHECKPOINT_RATIO = 10 ** (1 / 8)  # birkhoff and deviation checkpoints


# ---------------------------------------------------------------------------
# cocycle classes


def _check_finite(*groups) -> None:
    if not all(mpmath.isfinite(x) for rows in groups for row in rows
               for x in row):
        raise DomainError("cocycle entries must be finite (no NaN or inf)")


@dataclass(frozen=True)
class StepCocycle:
    """Piecewise constant cocycle with optional interior jump points.

    ``values[a]`` is the value vector on the leftmost piece of the a-th
    exchanged interval; each jump (gamma, vector) adds its vector to all
    points at or right of gamma inside the interval containing gamma.
    Entries may be exact ints or context reals; exactness is preserved
    where the inputs are exact.
    """

    dim: int
    values: tuple
    jumps: tuple = ()

    def __post_init__(self):
        if any(len(v) != self.dim for v in self.values):
            raise DomainError("value vectors must have the declared dimension")
        for _g, j in self.jumps:
            if len(j) != self.dim:
                raise DomainError("jump vectors must have the declared dimension")
        _check_finite(self.values, ((g, *j) for g, j in self.jumps))
        gammas = [g for g, _ in self.jumps]
        if sorted(gammas) != gammas:
            object.__setattr__(self, "jumps",
                               tuple(sorted(self.jumps, key=lambda t: t[0])))

    @classmethod
    def from_vector(cls, vec) -> "StepCocycle":
        return cls(1, tuple((v,) for v in vec))

    def variation(self):
        """Sum over interior discontinuities of the max-norm jump size."""
        if not self.jumps:
            return 0
        return sum(max(abs(x) for x in j) for _g, j in self.jumps)


@dataclass(frozen=True)
class PiecewiseLinearCocycle:
    """Piecewise linear cocycle, one slope and constant per interval.

    The constant-slope class (same slope on every interval) is the
    natural input; renormalization produces genuinely per-interval
    slopes, so that is the stored form.
    """

    dim: int
    slopes: tuple
    constants: tuple

    def __post_init__(self):
        if any(len(v) != self.dim for v in self.slopes + self.constants):
            raise DomainError("slope/constant vectors must match the dimension")
        _check_finite(self.slopes, self.constants)

    @classmethod
    def constant_slope(cls, slope, constants) -> "PiecewiseLinearCocycle":
        slope = tuple(slope)
        return cls(len(slope), tuple(slope for _ in constants),
                   tuple(tuple(c) for c in constants))

    def variation(self, iet: Iet):
        mp = iet.ctx.mp
        per_coord = [mp.fsum(abs(self.slopes[a][i]) * iet.lengths[a]
                             for a in range(len(self.slopes)))
                     for i in range(self.dim)]
        return max(per_coord)


Cocycle = StepCocycle | PiecewiseLinearCocycle


def check_rows(cocycle: Cocycle, d: int) -> None:
    """Raise DomainError unless the cocycle has one row per letter.

    Called where a cocycle first meets a d-letter exchange, so the
    per-step code can index its rows without a check.
    """
    if isinstance(cocycle, PiecewiseLinearCocycle):
        rows = (len(cocycle.slopes), len(cocycle.constants))
        found = f"{rows[0]} slope and {rows[1]} constant rows"
    elif isinstance(cocycle, StepCocycle):
        rows = (len(cocycle.values),)
        found = f"{rows[0]} value rows"
    else:
        return
    if any(n != d for n in rows):
        raise DomainError(f"cocycle has {found}, the exchange has {d} letters")


def validate_jumps(cocycle: StepCocycle, iet: Iet) -> None:
    """Interior jumps must be distinct and clear of interval endpoints."""
    prev = None
    for g, _j in cocycle.jumps:
        if not 0 < g < iet.total:
            raise DomainError("jump position outside the domain interior")
        if prev is not None and g - prev < iet.ctx.eps_cmp:
            raise DomainError("jump positions must be distinct")
        if any(abs(g - e) < iet.ctx.eps_cmp for e in (*iet.left, iet.total)):
            raise DomainError(
                "jump position collides with an exchanged-interval endpoint")
        prev = g


def jumps_by_letter(cocycle: StepCocycle, iet: Iet) -> tuple:
    """Per letter, the indices of the jumps its interval holds, in
    position order, by one exact ``Iet.interval_index`` per jump: the
    letters in ``order0`` list the jumps in their (sorted) order."""
    held = [[] for _ in range(iet.d)]
    for t, (g, _j) in enumerate(cocycle.jumps):
        if not 0 <= g < iet.total:
            raise DomainError("jump position outside the domain")
        held[iet.interval_index(g)].append(t)
    return tuple(map(tuple, held))


def evaluate(cocycle: Cocycle, iet: Iet, x) -> tuple:
    """Pointwise value of the cocycle at x, located by exact signs and
    evaluated at working precision."""
    a = iet.interval_index(x)
    if isinstance(cocycle, PiecewiseLinearCocycle):
        return tuple(cocycle.slopes[a][i] * x + cocycle.constants[a][i]
                     for i in range(cocycle.dim))
    return _step_value(cocycle, jumps_by_letter(cocycle, iet)[a], a, x)


def _step_value(phi: StepCocycle, held, a: int, x) -> tuple:
    """Value of a step cocycle at x, located in interval a, which holds
    the jumps ``held``."""
    out = list(phi.values[a])
    for t in held:
        g, j = phi.jumps[t]
        if g > x:
            break
        for i in range(phi.dim):
            out[i] = out[i] + j[i]
    return tuple(out)


def mean(cocycle: Cocycle, iet: Iet) -> tuple:
    """Exact integral over the domain, per coordinate."""
    check_rows(cocycle, iet.d)
    mp = iet.ctx.mp
    d = iet.d
    if isinstance(cocycle, PiecewiseLinearCocycle):
        return tuple(mp.fsum(
            cocycle.slopes[a][i] * (iet.left[a] + iet.right[a]) / 2 * iet.lengths[a]
            + cocycle.constants[a][i] * iet.lengths[a] for a in range(d))
            for i in range(cocycle.dim))
    base = [mp.fsum(cocycle.values[a][i] * iet.lengths[a] for a in range(d))
            for i in range(cocycle.dim)]
    held = jumps_by_letter(cocycle, iet)
    for a in iet.order0:
        for t in held[a]:
            g, j = cocycle.jumps[t]
            w = iet.right[a] - g
            for i in range(cocycle.dim):
                base[i] = base[i] + j[i] * w
    return tuple(base)


def zero_mean_version(cocycle: Cocycle, iet: Iet) -> Cocycle:
    """Shift constants so every coordinate integrates to zero."""
    m = mean(cocycle, iet)
    shift = tuple(v / iet.total for v in m)
    if isinstance(cocycle, PiecewiseLinearCocycle):
        return replace(cocycle, constants=tuple(
            tuple(c[i] - shift[i] for i in range(cocycle.dim))
            for c in cocycle.constants))
    return replace(cocycle, values=tuple(
        tuple(v[i] - shift[i] for i in range(cocycle.dim))
        for v in cocycle.values))


def sup_norm(cocycle: Cocycle, iet: Iet):
    """Exact supremum of the max-norm over the domain."""
    if isinstance(cocycle, PiecewiseLinearCocycle):
        best = 0
        for a in range(iet.d):
            for i in range(cocycle.dim):
                for xx in (iet.left[a], iet.right[a]):
                    best = max(best, abs(cocycle.slopes[a][i] * xx
                                         + cocycle.constants[a][i]))
        return best
    best = 0
    for a, held in enumerate(jumps_by_letter(cocycle, iet)):
        acc = list(cocycle.values[a])
        best = max(best, max(abs(v) for v in acc))
        for t in held:
            j = cocycle.jumps[t][1]
            for i in range(cocycle.dim):
                acc[i] = acc[i] + j[i]
            best = max(best, max(abs(v) for v in acc))
    return best


# ---------------------------------------------------------------------------
# float geometry and the exact orbit engine


class ExactWalker:
    """Forward orbit with positions as integer combinations of the lengths.

    The position is (coeffs . lambda) / den with integer coeffs; every
    translation adds an integer vector, so the representation is closed
    and never drifts.  Intervals are located on the float shadow of the
    walked exchange's ``FloatMirror`` (``Iet.mirror`` at depth 0).  The
    walk is a sequence of moves.  A move is either a tower climb that
    the mirror's ``TowerTable`` certifies, taken whole without its float
    positions (its word's visits are folded in at once), or one
    ``shadow_step`` of at most RESYNC steps that stops at the end of the
    current climb, after a point below a return threshold's guard band,
    or at a step the mirror's guard rule flags, which is settled by
    exact signs.  Every move ends with one resync, the shadow reset to
    the exact position rounded once to the nearest float, so between
    walks ``x_f`` is that float.  Since the position is linear in the
    visit counts, slots are counted by one bincount and folded into
    ``coeffs`` and ``counts`` before the exact position is read
    (escalation, resync); between walks both are exact.

    A whole climb is sound.  Its certificate puts the float orbit of the
    shadow at least guard inside every slot of its word, and a word has
    at most _TOWER_REACH * TOWER_HEIGHT = 2^16 steps.  A float step errs
    by at most 2^-53 |I| in its move and as much in its sum, and the
    resync the climb starts from rounds once.  So over the climb the
    exact orbit stays within (2 2^16 + 1) 2^-53 |I| < 1.5e-11 |I| of the
    float orbit, far inside the guard of GUARD * |I| = 1e-9 |I|: it lies
    in every predicted slot.  With a return threshold, whose band comes
    from the threshold's exact float, a climb is taken whole only where
    the lower bounds of its interior levels stay at or above the band,
    so no interior point is below the threshold.

    ``escalations`` counts exact settles (``_locate_exact`` calls and
    guard-band threshold checks), ``resyncs`` the resets, one per move,
    and ``checked`` the predicted climbs the tower table's
    bounds did not certify, checked step by step.  A start outside
    [0, |I|) of the walked exchange, or an exchange with a width that is
    not positive for the stored lengths (deep enough inverse period
    powers outrun the lengths' precision), is refused.  ``from_point``
    starts from a context real x: the position x + (coeffs . lambda) /
    den is one integer dot over ``lengths``, the stored lengths followed
    by x.
    """

    RESYNC = 4096

    def __init__(self, iet: Iet, coeffs, den: int = 1):
        self._set_up(iet, iet.lattice, iet.mirror, coeffs, den)

    @classmethod
    def at_depth(cls, periodic: PeriodicIet, level: int, coeffs, den: int = 1
                 ) -> "ExactWalker":
        """Walker for the depth-``level`` induced exchange, still exact.

        The induced exchange has the same pair with lengths contracted
        by the period scale; all its lattice data stays integral because
        the period matrix is unimodular.  One step of this walker is one
        step of the induced map, not of the base map.  At depth 0 the
        walker shares the exchange's own mirror.
        """
        iet = periodic.iet
        lattice = depth_lattice(periodic, level)
        mirror = iet.mirror if level == 0 else lattice_mirror(
            lattice, iet.lengths, iet.order0)
        walker = cls.__new__(cls)
        walker._set_up(iet, lattice, mirror, coeffs, den)
        return walker

    @classmethod
    def from_point(cls, iet: Iet, x) -> "ExactWalker":
        """Walker of ``iet`` from the context real x, a dyadic rational;
        ``coeffs`` start at zero with den 1 and count the displacement."""
        if not iet.ctx.mp.isfinite(x):
            raise DomainError(f"orbit start {x} is not finite")
        walker = cls.__new__(cls)
        walker._set_up(iet, iet.lattice, iet.mirror, (0,) * iet.d, 1, x)
        return walker

    def _set_up(self, iet: Iet, lattice: DepthLattice, mirror: FloatMirror,
                coeffs, den: int, origin=None):
        self.iet = iet
        d = self.d = iet.d
        self.den = int(den)
        self.coeffs = [int(c) for c in coeffs]
        if len(self.coeffs) != d:
            raise DomainError("coefficient vector must have length d")
        if self.den < 1:
            raise DomainError("denominator must be positive")
        if origin is None:
            self.lengths, self._origin = iet.lengths, ()
        else:  # the origin is one more length, with coefficient den
            self.lengths = iet.lengths.with_point(origin)
            self._origin = (self.den,)
        self.mirror = mirror
        self.left_coeffs = lattice.lefts
        self.total_coeffs = lattice.total
        self.w_coeffs = [tuple(i - l for i, l in zip(img, left))
                         for img, left in zip(lattice.image_lefts, lattice.lefts)]
        self.counts = [0] * d
        self.steps = 0
        self.escalations = 0
        self.resyncs = 0
        self.checked = 0
        self._trail = None  # the slots walked, while ``itinerary`` asks
        self.x_f = self._checked_start(lattice.widths, lattice.total)

    def _checked_start(self, widths, total) -> float:
        """The start's float, once the widths and the start are checked.

        Mirror entries and the start's float are correctly rounded, and
        rounding is monotone: where two floats differ they order the
        exact values, and an integer sign settles a tie.
        """
        m, lengths = self.mirror, self.lengths
        for slot, (left, right) in enumerate(zip(m.lefts, m.rights)):
            if not left < right and (
                    right < left
                    or lengths.int_dot(widths[m.letters[slot]]) <= 0):
                raise DomainError(
                    f"the walked exchange has a width that is not positive "
                    f"for the stored {self.iet.ctx.bits}-bit lengths")
        n = self._num()
        x = lengths.exact_float(n, self.den)
        if n < 0 or x > m.rights[-1] or (
                x == m.rights[-1] and n >= self.den * lengths.int_dot(total)):
            raise DomainError("walker start outside [0, |I|) of the "
                              "exchange it walks")
        return x

    def _num(self) -> int:
        """The position as an integer over den * 2**-exp of ``lengths``."""
        return self.lengths.int_dot([*self.coeffs, *self._origin])

    def _exact_float(self) -> float:
        """The exact position rounded once to the nearest float."""
        return self.lengths.exact_float(self._num(), self.den)

    def point(self):
        """The exact position rounded once to a context real."""
        return self.lengths.exact_real(self._num(), self.den)

    def letter(self) -> int:
        """The letter whose interval holds the position, by exact signs."""
        return self.mirror.letters[self._locate_exact()]

    def _exact_side(self, endpoint_coeffs) -> int:
        """Sign of (position - endpoint); 0 only for exact equality."""
        diff = [c - self.den * e for c, e in zip(self.coeffs, endpoint_coeffs)]
        diff += self._origin
        return certified_lattice_sign(self.lengths, diff)

    def _locate_exact(self) -> int:
        pos = 0
        for k in range(1, self.d):
            side = self._exact_side(self.left_coeffs[self.mirror.letters[k]])
            if side >= 0:
                pos = k
            else:
                break
        self.x_f = self._exact_float()
        return pos

    def _fold(self, slots) -> None:
        """Add one visit per entry of ``slots`` to ``counts`` and ``coeffs``."""
        if not len(slots):
            return
        if self._trail is not None:
            self._trail.extend(np.asarray(slots).tolist())
        den, coeffs, counts = self.den, self.coeffs, self.counts
        for slot, k in enumerate(np.bincount(slots, minlength=self.d).tolist()):
            if k:
                a = self.mirror.letters[slot]
                counts[a] += k
                for j, w in enumerate(self.w_coeffs[a]):
                    coeffs[j] += den * k * w
        self.steps += len(slots)

    def _exact_below(self, threshold_coeffs) -> bool:
        """Whether the position is below (threshold_coeffs . lambda) / den,
        by an exact sign."""
        self.escalations += 1
        diff = [c - t for c, t in zip(self.coeffs, threshold_coeffs)]
        return certified_lattice_sign(self.lengths, [*diff, *self._origin]) < 0

    def _walk(self, n_steps, threshold_coeffs=None, threshold_f: float = 0.0):
        """Advance ``n_steps`` steps, or (``None``) until below the threshold.

        Once the walk is longer than TOWER_HEIGHT steps or the tower
        table is built, each move first looks the shadow up in the table
        (``TowerTable.span``).  A climb the bounds certify, that fits in
        the steps left and, with a threshold, whose interior lower bounds
        stay at or above the band, is folded whole.  Otherwise the move
        is one ``shadow_step`` of at most RESYNC steps along the rest of
        x's climb, or of one scalar stretch off the towers, so the next
        climb gets its own lookup; with a threshold (threshold_coeffs .
        lambda) / den and its float ``threshold_f`` it ends after the
        first point below the band.  Its steps are folded, and a guarded
        step after them is settled exactly.  Every move ends with one
        resync and, with a threshold, one check of the reset shadow: the
        walk stops there when the shadow is below the threshold by more
        than the guard, or an exact sign puts it below inside the guard
        band.  Returns the letter left by the last step.
        """
        m = self.mirror
        resync = self.RESYNC
        below = threshold_f - m.guard
        band = -math.inf if threshold_coeffs is None else threshold_f + m.guard
        size = resync if n_steps is None else min(resync, max(n_steps, 0))
        sl, xs = np.empty(size, np.intp), np.empty(size + 1)
        x, slot, done = self.x_f, None, 0
        while n_steps is None or done < n_steps:
            left = math.inf if n_steps is None else n_steps - done
            table = m.predictor(done + 1 if n_steps is None else n_steps)
            span = table.span(x) if table is not None else (0, 0, False)
            start, end, sure = span
            if sure and end - start <= left and (
                    band == -math.inf  # or no interior point below
                    or table.bounds[0][start + 1:end].min(initial=math.inf)
                    >= band):
                word = table.words[start:end]
                self._fold(word)
                done += end - start
                slot = int(word[-1])
            else:
                self.checked += end > start and not sure
                v, hit, _p = shadow_step(
                    m, x, min(resync, left, end - start or resync), sl, xs,
                    table, span, low=band)
                self._fold(sl[:v])
                done += v
                if v:
                    slot = int(sl[v - 1])
                if hit:  # step v is guarded: settle its slot exactly
                    self.escalations += 1
                    slot = self._locate_exact()
                    self._fold((slot,))
                    done += 1
            x = self._exact_float()
            self.resyncs += 1
            if x < band and (x < below or self._exact_below(threshold_coeffs)):
                break
        self.x_f = x
        return None if slot is None else m.letters[slot]

    def step(self) -> int:
        """Advance one step; returns the interval index that was left."""
        return self._walk(1)

    def run(self, n_steps: int) -> tuple:
        self._walk(n_steps)
        return tuple(self.counts)

    def _letters(self, n_steps: int) -> tuple:
        """Advance ``n_steps`` steps in one walk: the letter each leaves."""
        trail = []
        self._trail = trail
        try:
            self._walk(n_steps)
        finally:
            self._trail = None
        return tuple(self.mirror.letters[slot] for slot in trail)

    def itinerary(self, n_steps: int) -> tuple:
        """Advance ``n_steps`` steps in one walk: return the letter each
        step leaves and the lattice coefficients of the point it leaves
        from, rebuilt exactly from the letters."""
        start = tuple(self.coeffs)
        letters = self._letters(n_steps)
        points = [start]
        for a in letters[:-1]:
            points.append(tuple(c + self.den * w
                                for c, w in zip(points[-1], self.w_coeffs[a])))
        return letters, points

    def positions(self, n_steps: int) -> tuple:
        """Advance ``n_steps`` steps in one walk: return the letter each
        step leaves and the exact positions of the n_steps + 1 points, as
        integers over den * 2**-exp of ``lengths`` (``_num``)."""
        start = self._num()
        moves = [self.den * self.lengths.int_dot(w) for w in self.w_coeffs]
        letters = self._letters(n_steps)
        return letters, list(accumulate(map(moves.__getitem__, letters),
                                        initial=start))

    def run_until_below(self, threshold_coeffs, threshold_f: float) -> tuple:
        """Step until the position drops below an exact lattice threshold.

        Returns the visit counts accumulated before the first return.
        The threshold is (threshold_coeffs . lambda) / den, over the
        walker's own den like its start (pass ``[den * t for t in c]``
        for the lattice point c . lambda).  The walk bands it by its
        exact float, rounded once, and settles comparisons inside the
        guard band exactly.  ``threshold_f``, the caller's float of it, is
        refused when more than half a guard off that float: a float
        depth scale rho^-(n+1) drifts from the stored lengths' exact
        depth-(n+1) total, by 2 guards at depth 11 of the 4-letter
        system.  A threshold outside (0, |I|] of the walked exchange is
        refused: a position is never negative, and every position is
        below |I|.
        """
        num = self.lengths.int_dot(threshold_coeffs)
        if num <= 0:
            raise DomainError("return threshold must be positive")
        if num > self.den * self.lengths.int_dot(self.total_coeffs):
            raise DomainError("return threshold above |I| of the walked "
                              "exchange")
        exact = self.lengths.exact_float(num, self.den)
        if not abs(threshold_f - exact) <= self.mirror.guard / 2:
            raise DomainError(
                f"return threshold float {threshold_f!r} is not within half "
                f"a guard of the exact threshold's float {exact!r}")
        self._walk(None, threshold_coeffs, exact)
        return tuple(self.counts)


def certified_lattice_sign(lengths, coeffs) -> int:
    """Exact sign of an integer combination of the dyadic values of
    ``lengths`` (a ``RealVector``): the sign of its integer dot.  Zero
    means a genuine boundary hit, handled by the left-closed convention.
    """
    n = lengths.int_dot(coeffs)
    return (n > 0) - (n < 0)


def depth_lattice(periodic: PeriodicIet, n: int) -> DepthLattice:
    """Lattice data of the depth-n induced exchange.

    Depth counts normalized periods.  The induced exchange has the same
    pair and the lengths A^-n lambda, integral in the unit lengths
    because the period matrix is unimodular.  A^-n is the n-th power of
    the system's one cached inverse, ``PeriodicIet.step_inverse``.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    return _lattice(periodic.pair, intmat.matpow(periodic.step_inverse, n))


def depth_interval_coeffs(periodic: PeriodicIet, n: int, letter: int) -> tuple:
    """(left_coeffs, width_coeffs) of a letter's depth-n interval."""
    lattice = depth_lattice(periodic, n)
    return lattice.lefts[letter], lattice.widths[letter]


def depth_total_coeffs(periodic: PeriodicIet, n: int) -> tuple:
    """Integer coefficients of the depth-n total interval length."""
    return depth_lattice(periodic, n).total


# ---------------------------------------------------------------------------
# Birkhoff sums


def birkhoff_visit_counts(iet: Iet, x, n: int) -> tuple:
    """Exact per-interval visit counts of the length-n forward orbit of
    x, a context real or a (coeffs, den) lattice point."""
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], int):
        return ExactWalker(iet, x[0], x[1]).run(n)
    return ExactWalker.from_point(iet, x).run(n)


def _exact_sums(cocycle: Cocycle, iet: Iet, walker: ExactWalker, checkpoints,
                backward: bool = False) -> list:
    """S_n phi at each n of the increasing ``checkpoints``, exactly, over
    one walk: of the points each step leaves or, walking ``iet.inverse``
    ``backward``, minus those each step reaches (inverse letter a is the
    image of a's interval), so the walker's counts are the visits.
    Positions are exact integers, summed per letter for PL cocycles; a
    jump counts its interval's points at or right of it.  The walk goes
    by blocks of EXACT_BLOCK steps, in bounded memory.  Sums are ints
    for a step cocycle of ints, else rounded once.
    """
    check_rows(cocycle, iet.d)
    lengths, den = walker.lengths, walker.den
    if isinstance(cocycle, PiecewiseLinearCocycle):
        slopes, values, jumps = cocycle.slopes, cocycle.constants, ()
    elif isinstance(cocycle, StepCocycle):
        validate_jumps(cocycle, iet)
        slopes, values = (), cocycle.values
        held = jumps_by_letter(cocycle, iet)
        jumps = [(a, lengths.ceil_num(g, den), j) for a in iet.order0
                 for g, j in (cocycle.jumps[t] for t in held[a])]
    else:
        raise Unsupported(f"cannot sum {type(cocycle).__name__}")
    ints = not slopes and all(isinstance(v, int) for v in chain(
        *values, *(j for _a, _lim, j in jumps)))
    sums, hits = [0] * iet.d, [0] * len(jumps)
    out, done = [], 0
    for n in checkpoints:
        while done < n:
            block = min(n - done, EXACT_BLOCK)
            letters, nums = walker.positions(block)
            pts = nums[1:] if backward else nums[:-1]
            for a, num in zip(letters, pts):
                sums[a] += num
            for t, (a, lim, _j) in enumerate(jumps):
                hits[t] += sum(b == a and num >= lim
                               for b, num in zip(letters, pts))
            done += block
        terms = list(zip(values, walker.counts))
        terms += [(row, lengths.fraction(s, den))
                  for row, s in zip(slopes, sums)]
        terms += [(j, h) for (_a, _lim, j), h in zip(jumps, hits)]
        total = (sum(as_fraction(v[i]) * k for v, k in terms)
                 for i in range(cocycle.dim))
        out.append(tuple(map(int if ints else iet.ctx.real,
                             (-v if backward else v for v in total))))
    return out


def birkhoff_checkpoints(cocycle: Cocycle, iet: Iet, x, checkpoints) -> list:
    """S_n phi(x) at each n of the increasing ``checkpoints``, from one
    exact walk of x's forward orbit."""
    return _exact_sums(cocycle, iet, ExactWalker.from_point(iet, x),
                       checkpoints)


def forward_birkhoff(cocycle: Cocycle, iet: Iet, x, n: int) -> tuple:
    """(S_n phi(x), T^n x) for n >= 0, from one exact walk; T^n x is
    rounded once."""
    walker = ExactWalker.from_point(iet, x)
    return _exact_sums(cocycle, iet, walker, [n])[0], walker.point()


def birkhoff_sum(cocycle: Cocycle, iet: Iet, x, n: int) -> tuple:
    """Cocycle sum along the orbit: standard three-case definition; for
    n < 0 the walk runs on ``iet.inverse``."""
    if n >= 0:
        return forward_birkhoff(cocycle, iet, x, n)[0]
    walker = ExactWalker.from_point(iet.inverse, x)
    return _exact_sums(cocycle, iet, walker, [-n], backward=True)[0]


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class PartitionReport:
    n: int
    breakpoints: tuple
    min_gap: object
    max_gap: object
    translation_verified: bool


def partition_breakpoints(iet: Iet, n: int) -> list:
    """Sorted breakpoints {T^-k l_a : 0 <= k < n} of the n-th partition.

    Each left end's backward orbit is one exact walk of ``iet.inverse``,
    so breakpoints are exact integers: coincidences (the preimage of 0
    is a left end, which Keane permits) merge by equality, and each
    breakpoint is rounded once.
    """
    nums = set()
    for row in iet.lattice.lefts:
        nums.update(ExactWalker(iet.inverse, row).positions(n - 1)[1])
    return [iet.lengths.exact_real(v) for v in sorted(nums)]


def partition_pn(iet: Iet, n: int, verify_samples: int = 0) -> PartitionReport:
    """Partition into continuity intervals of the n-th iterate.

    Gap statistics cover all intervals of the partition; optionally the
    translation property of T^n is checked on sample gaps: two points
    of a gap visit every letter equally often, so T^n moves them by the
    same lattice vector, exactly.
    """
    if n < 1:
        raise DomainError("partition order must be >= 1")
    pts = partition_breakpoints(iet, n)
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [iet.total - pts[-1]]
    min_gap, max_gap = min(gaps), max(gaps)
    if min_gap <= iet.ctx.eps_cmp:
        raise KeaneViolation(f"partition {n} has a collapsed gap")
    verified = True
    if verify_samples:
        stride = max(1, len(pts) // verify_samples)
        for idx in range(0, len(pts), stride):
            left = pts[idx]
            right = pts[idx + 1] if idx + 1 < len(pts) else iet.total
            w = right - left
            counts = [birkhoff_visit_counts(iet, left + w * k / 4, n)
                      for k in (1, 3)]
            verified = verified and counts[0] == counts[1]
    return PartitionReport(n, tuple(pts), min_gap, max_gap, verified)


def gap_statistics(iet: Iet, n_max: int) -> list:
    """min/max partition gap for every n <= n_max, computed incrementally.

    Returns a list of (n, min_gap, max_gap) floats.  Breakpoints and
    gaps are exact integers, as in ``partition_breakpoints``: a point on
    a breakpoint (the preimage chain of 0) merges by equality, and each
    reported gap is rounded once.
    """
    lengths = iet.lengths
    orbits = [ExactWalker(iet.inverse, row).positions(n_max - 1)[1]
              for row in iet.lattice.lefts]
    total = lengths.int_dot(iet.lattice.total)
    pts = [0, total]
    gap_count = {total: 1}
    heap = [-total]
    min_gap = total
    out = []
    for n in range(1, n_max + 1):
        for x in (orbit[n - 1] for orbit in orbits):
            idx = bisect_left(pts, x)
            if pts[idx] == x:
                continue
            lo, hi = pts[idx - 1], pts[idx]
            pts.insert(idx, x)
            gap_count[hi - lo] -= 1
            for g in (x - lo, hi - x):
                gap_count[g] = gap_count.get(g, 0) + 1
                heappush(heap, -g)
            min_gap = min(min_gap, x - lo, hi - x)
        while gap_count[-heap[0]] <= 0:
            heappop(heap)
        out.append((n, lengths.exact_float(min_gap),
                    lengths.exact_float(-heap[0])))
    return out


# ---------------------------------------------------------------------------
# towers and return times


def return_time_matrix(periodic: PeriodicIet, k: int, l: int):
    """Return-time matrix between induction depths k <= l (base periods)."""
    if not 0 <= k <= l:
        raise DomainError("need 0 <= k <= l")
    return intmat.matpow(periodic.matrix, l - k)


@dataclass(frozen=True)
class TowerStructure:
    """Sub-towers over the depth-(n+1) intervals, constant height.

    ``heights[a]`` is the return time of the depth-n interval of letter
    a, ``climb_heights[a]`` the one of depth n+1 (the climb length in
    the value identity).  The sub-tower over the depth-(n+1) interval of
    letter a has ``sub_height`` levels (the depth-n height over the
    first letter).
    """

    level: int
    heights: tuple
    climb_heights: tuple
    sub_height: int
    base_left: tuple
    base_width: tuple
    measures: tuple
    levels: tuple | None = None


def towers(periodic: PeriodicIet, n: int, with_levels: bool = False
           ) -> TowerStructure:
    """Tower structure at depth n (in normalized periods).

    Levels are enumerated explicitly only on request and within a budget
    of 200,000 steps; heights and measures are exact regardless.
    """
    if n < 0:
        raise DomainError("tower depth must be >= 0")
    heights_n = periodic.heights(n)
    heights_n1 = periodic.heights(n + 1)
    alpha1 = periodic.first_letter()
    # nesting invariant: depth-(n+1) interval sits inside the first letter
    scale = periodic.step_scale ** (-(n + 1))
    lam1 = periodic.lengths[alpha1]
    if not (periodic.step_scale ** (-1)) <= lam1:
        raise NotNormalized("depth-1 interval does not nest in the first letter")
    iet = periodic.iet
    sub_h = heights_n[alpha1]
    base_left = tuple(iet.left[a] * scale for a in range(periodic.d))
    base_width = tuple(periodic.lengths[a] * scale for a in range(periodic.d))
    measures = tuple(w * sub_h for w in base_width)
    levels = None
    if with_levels:
        total_steps = sub_h * periodic.d
        if total_steps > 200_000:
            raise DomainError(
                f"level enumeration needs {total_steps} steps, over the budget")
        lattice = depth_lattice(periodic, n + 1)
        lam = iet.lengths.values
        levels = tuple(
            tuple(iet.ctx.dot_int(c, lam) for c in ExactWalker(
                iet, lattice.lefts[a], 1).itinerary(sub_h)[1])
            for a in range(periodic.d))
    return TowerStructure(n, heights_n, heights_n1, sub_h, base_left,
                          base_width, measures, levels)


# ---------------------------------------------------------------------------
# renormalization


@dataclass(frozen=True)
class RenormState:
    """A cocycle carried to induction depth ``level``, unit-rescaled.

    Positions in the cocycle are expressed on [0, 1): the physical
    cocycle on the depth-``level`` interval is obtained by shrinking all
    positions by the accumulated scale.  ``jump_steps[i]`` counts the
    original-map steps from the i-th pulled-back jump position to the
    physical point it came from (tower level bookkeeping for probes).
    """

    level: int
    cocycle: Cocycle
    jump_steps: tuple = ()


class Renormalizer:
    """One-period renormalization operator for a periodic-type exchange.

    The tower geometry of a single normalized period over the unit
    exchange is computed once and reused for every depth; only the step
    bookkeeping (``PeriodicIet.heights``) depends on the depth.  A jump's
    level is one bisect of ``_levels``, (exact left end, tower, index).
    """

    def __init__(self, periodic: PeriodicIet):
        self.periodic = periodic
        self.iet = periodic.iet
        self.matrix = periodic.step_matrix
        self.rho = periodic.step_scale
        self._stage, self._levels = self._walk_stage()

    def _walk_stage(self) -> tuple:
        """Per letter the tower levels (positions, intervals) of one
        period, and the sorted (left end, tower, index) of every level.

        Tower level endpoints genuinely coincide with interval
        breakpoints, so the walk runs on the exact lattice engine, one
        walk per letter; the level positions are rebuilt exactly from
        its letters and read back at working precision, their left ends
        kept as exact integer dots.  Tower b's levels have b's depth-1
        width, so all tile [0, |I|): sum_b h_b |I^1_b| = |I|.
        """
        iet = self.iet
        lam = iet.lengths.values
        base = iet.lattice
        right_coeffs = [tuple(map(sum, zip(left, width)))
                        for left, width in zip(base.lefts, base.widths)]
        depth1 = depth_lattice(self.periodic, 1)
        stage, levels = [], []
        for b, height in enumerate(self.periodic.heights(1)):
            wc = depth1.widths[b]
            alphas, points = ExactWalker(iet, depth1.lefts[b], 1).itinerary(
                height)
            for start, a in zip(points, alphas):
                # the whole level must nest in one exchanged interval:
                # level left + width <= right endpoint of that interval
                diff = [s + w - r for s, w, r in
                        zip(start, wc, right_coeffs[a])]
                if certified_lattice_sign(iet.lengths, diff) > 0:
                    raise NotNormalized(
                        "tower level crosses an exchanged-interval boundary")
            stage.append((tuple(iet.ctx.dot_int(c, lam) for c in points),
                          alphas))
            levels += ((iet.lengths.int_dot(c), b, i)
                       for i, c in enumerate(points))
        # internal consistency: visit counts reproduce the period matrix
        for b, (_positions, alphas) in enumerate(stage):
            for a in range(iet.d):
                if alphas.count(a) != self.matrix[a][b]:
                    raise NotNormalized(
                        "stage walk visit counts disagree with the matrix")
        return stage, sorted(levels)

    def start(self, cocycle: Cocycle) -> RenormState:
        check_rows(cocycle, self.iet.d)
        jump_steps = ()
        if isinstance(cocycle, StepCocycle):
            validate_jumps(cocycle, self.iet)
            jump_steps = tuple(0 for _ in cocycle.jumps)
        return RenormState(0, cocycle, jump_steps)

    def advance(self, state: RenormState) -> RenormState:
        if isinstance(state.cocycle, StepCocycle):
            return self._advance_step(state)
        if isinstance(state.cocycle, PiecewiseLinearCocycle):
            return self._advance_pl(state)
        raise Unsupported(f"cannot renormalize {type(state.cocycle).__name__}")

    def to_depth(self, cocycle: Cocycle, depth: int) -> RenormState:
        state = self.start(cocycle)
        for _ in range(depth):
            state = self.advance(state)
        return state

    def _advance_step(self, state: RenormState) -> RenormState:
        iet = self.iet
        ctx = iet.ctx
        phi = state.cocycle
        dim = phi.dim
        costs = self.periodic.heights(state.level)
        held = jumps_by_letter(phi, iet)
        new_values = []
        for positions, alphas in self._stage:
            acc = [0] * dim
            for p, a in zip(positions, alphas):
                val = _step_value(phi, held[a], a, p)
                for i in range(dim):
                    acc[i] = acc[i] + val[i]
            new_values.append(tuple(acc))
        new_jumps = []
        new_steps = []
        for (g, jvec), t_old in zip(phi.jumps, state.jump_steps):
            b, i = self._find_level(g)
            positions, alphas = self._stage[b]
            cum = sum(costs[a] for a in alphas[:i])
            u = iet.left[b] + self.rho * (g - positions[i])
            if (u - iet.left[b] < ctx.eps_cmp
                    or iet.right[b] - u < ctx.eps_cmp):
                raise NearBreakpoint("pulled-back jump collides with an endpoint")
            new_jumps.append((u, jvec))
            new_steps.append(t_old + cum)
        order = sorted(range(len(new_jumps)), key=lambda t: new_jumps[t][0])
        cocycle = StepCocycle(dim, tuple(new_values),
                              tuple(new_jumps[i] for i in order))
        return RenormState(state.level + 1, cocycle,
                           tuple(new_steps[i] for i in order))

    def _advance_pl(self, state: RenormState) -> RenormState:
        iet = self.iet
        mp = iet.ctx.mp
        phi = state.cocycle
        dim = phi.dim
        new_slopes = []
        new_consts = []
        for b, (positions, alphas) in enumerate(self._stage):
            slope_b = [mp.fsum(phi.slopes[a][i] for a in alphas) / self.rho
                       for i in range(dim)]
            const_b = [mp.fsum(phi.slopes[a][i] * p + phi.constants[a][i]
                               for p, a in zip(positions, alphas))
                       - slope_b[i] * iet.left[b]
                       for i in range(dim)]
            new_slopes.append(tuple(slope_b))
            new_consts.append(tuple(const_b))
        cocycle = PiecewiseLinearCocycle(dim, tuple(new_slopes), tuple(new_consts))
        return RenormState(state.level + 1, cocycle, ())

    def _find_level(self, g) -> tuple:
        """(tower, index) of the level holding g in (0, |I|): the last one
        whose left end n (standing for n * 2**exp, ``RealVector.int_dot``)
        is at most the floor of g / 2**exp."""
        floor = math.floor(as_fraction(g) / self.iet.lengths.fraction(1))
        return self._levels[bisect_right(self._levels, floor,
                                         key=itemgetter(0)) - 1][1:]

    def interval_averages(self, state: RenormState) -> list:
        """Average of the state's cocycle over each unit interval."""
        iet = self.iet
        phi = state.cocycle
        if isinstance(phi, PiecewiseLinearCocycle):
            return [tuple(phi.slopes[a][i] * (iet.left[a] + iet.right[a]) / 2
                          + phi.constants[a][i] for i in range(phi.dim))
                    for a in range(iet.d)]
        out = []
        for a, held in enumerate(jumps_by_letter(phi, iet)):
            acc = list(phi.values[a])
            for t in held:
                g, j = phi.jumps[t]
                w = (iet.right[a] - g) / iet.lengths[a]
                for i in range(phi.dim):
                    acc[i] = acc[i] + j[i] * w
            out.append(tuple(acc))
        return out


def renormalize(cocycle: Cocycle, periodic: PeriodicIet, k: int, l: int,
                renormalizer: Renormalizer | None = None) -> RenormState:
    """Carry a depth-k cocycle to depth l; positions stay unit-rescaled.

    The input is interpreted at depth k in unit coordinates; the result
    is the renormalized cocycle at depth l.  Step cocycles stay step
    cocycles (jumps pulled back), piecewise linear ones acquire
    per-interval slopes.
    """
    if not 0 <= k <= l:
        raise DomainError("need 0 <= k <= l")
    if not isinstance(cocycle, (StepCocycle, PiecewiseLinearCocycle)):
        raise Unsupported(f"unsupported cocycle class {type(cocycle).__name__}")
    rz = renormalizer or Renormalizer(periodic)
    state = replace(rz.start(cocycle), level=k)
    for _ in range(l - k):
        state = rz.advance(state)
    return state


# ---------------------------------------------------------------------------
# orbit-growth index


@dataclass(frozen=True)
class MIndexReport:
    m: int
    n: int
    sandwich_low: int
    sandwich_high: int

    @property
    def sandwich_holds(self) -> bool:
        return self.sandwich_low <= self.n <= self.sandwich_high


def m_index(periodic: PeriodicIet, x, n: int) -> MIndexReport:
    """Deepest induction interval visited at least twice in n+1 steps.

    Satisfies the return-time sandwich: the smallest depth-m return time
    is at most n, and n is at most d times the largest depth-(m+1) one.
    The orbit is one exact walk, and m is the largest depth whose
    interval [0, rho^-m) holds its second-lowest point, by exact signs.
    Depth counts base periods (powers of ``matrix``), not the normalized
    ones of ``PeriodicIet.heights``.
    """
    walker = ExactWalker.from_point(periodic.iet, x)
    second = sorted(walker.positions(n)[1])[1]
    if second <= 0:
        raise DomainError("degenerate orbit for the depth index")
    m = 0
    while second < walker.lengths.ceil_num(periodic.pf_value ** -(m + 1)):
        m += 1
    a_m = intmat.matpow(periodic.matrix, m)
    q_m = intmat.column_sums(a_m)
    q_m1 = intmat.column_sums(intmat.matmul(a_m, periodic.matrix))
    return MIndexReport(m, n, min(q_m), periodic.d * max(q_m1))


# ---------------------------------------------------------------------------
# float orbit lane: deviation sweeps


@dataclass(frozen=True)
class DeviationProfile:
    """Growth data for sup-norms of Birkhoff sums along sampled orbits."""

    checkpoints: tuple
    envelope: tuple           # per cocycle: tuple of running sup values
    pointwise: tuple          # per cocycle: tuple of per-checkpoint sups
    fitted_exponent: tuple    # per cocycle, raw log-log slope
    corrected_exponent: tuple  # per cocycle, log-factor-corrected slope
    aborted_samples: int
    sample_count: int
    log_power: int

    def to_rows(self) -> list:
        """(checkpoint, running sup) rows of the first cocycle."""
        return [(n, s) for n, s in zip(self.checkpoints, self.envelope[0])]


@dataclass(frozen=True)
class FloatTable:
    """Per-slot float tables of a step or piecewise linear cocycle.

    ``values[i][slot]`` is coordinate i's step value (step cocycles) or
    slope (``constants`` set, piecewise linear ones); ``jumps`` holds
    (slot, gamma, jump vector) per interior jump.
    """

    dim: int
    values: tuple
    constants: tuple | None
    jumps: tuple


def float_table(cocycle: Cocycle, iet: Iet) -> FloatTable:
    """The cocycle's float table on ``iet.mirror``; each jump sits in the
    slot of the letter whose interval holds it exactly."""
    mirror = iet.mirror
    check_rows(cocycle, iet.d)

    def rows(per_letter):
        return tuple(tuple(float(per_letter[a][i]) for a in mirror.letters)
                     for i in range(cocycle.dim))

    if isinstance(cocycle, PiecewiseLinearCocycle):
        return FloatTable(cocycle.dim, rows(cocycle.slopes),
                          rows(cocycle.constants), ())
    if not isinstance(cocycle, StepCocycle):
        raise Unsupported("the float lane supports step and pl cocycles")
    held = jumps_by_letter(cocycle, iet)
    jumps = tuple((slot, float(g), tuple(float(x) for x in j))
                  for slot, a in enumerate(mirror.letters)
                  for g, j in (cocycle.jumps[t] for t in held[a]))
    return FloatTable(cocycle.dim, rows(cocycle.values), None, jumps)


def float_walk(mirror: FloatMirror, x0: float, n_steps: int, tables=(),
               stops=(), sl=None, xs=None, counts=None):
    """Stream the float orbit of x0 in chunks: yield (slots, xs) arrays.

    Step k sits in slot ``bisect_right(lefts, xs[k], 1) - 1`` and
    ``xs[k + 1] = xs[k] + moves[slot]``.  A point within
    ``mirror.guard`` of either endpoint of its interval, or that close
    to either side of a jump of one of ``tables`` in its slot, raises
    NearBreakpoint with its step index once the chunks before it are
    out: the caller drops the sample rather than trust its side.

    The walk fills the buffers ``sl`` and ``xs`` (a step and a point per
    entry of ``sl``, and one point more; by default FLOAT_BLOCK steps)
    and yields them full and at n_steps; they are reused from chunk to
    chunk, so the yielded arrays are views of them, to be read before
    the next chunk.  From a climb the tower table certifies, one
    ``shadow_climbs`` batch walks that climb and the climbs it guesses
    after it, with one gather, one accumulate and one check; a climb
    the bounds do not certify, and the step where a batch's check
    fails, is one ``shadow_step``.  A climb cut by a chunk's end goes on
    in the next chunk from its span, so the walk looks a climb up only
    at its start, after a climb walked by ``shadow_step`` or a failed
    check.  Scalar steps that end above the table's base J (after a
    failed prediction, or off every level) go on by scalar steps up to
    J, so a table that mispredicts costs a lookup per climb, not one
    per step.
    ``counts``, when given, has one int64 row of a count per slot
    for each of ``stops`` (increasing step counts), and gets the visits
    of the steps before each stop, written before the chunk holding the
    stop is yielded (``_visits``): differences of the table's prefix
    counts at the stop's word position where the table predicted the
    whole chunk, else bincounts.
    The climbs are predicted by ``mirror.tower_table`` for walks longer
    than TOWER_HEIGHT steps (or once the table is built).
    """
    marks = [(slot, gf) for table in tables for slot, gf, _j in table.jumps]
    rokhlin = mirror.predictor(n_steps)
    if sl is None:
        sl, xs = np.empty(FLOAT_BLOCK, np.intp), np.empty(FLOAT_BLOCK + 1)
    total = np.zeros(len(mirror.lefts), np.int64)
    done = t = 0
    span, checked = None, False
    while done < n_steps:
        n = min(len(sl), n_steps - done)
        xs[0] = x0
        k, pieces = 0, []
        while k < n:
            x = float(xs[k])
            if span is None:
                span = rokhlin.span(x) if rokhlin is not None \
                    else (0, 0, False)
            start, end, sure = span
            if end > start and not checked:  # on a level
                j, climbs, span, checked = shadow_climbs(
                    rokhlin, x, n - k, sl[k:], xs[k:], span, marks)
                pieces += [(k + at, a, b) for at, a, b in climbs]
            else:
                j, hit, p = shadow_step(mirror, x, n - k, sl[k:], xs[k:],
                                        rokhlin, span, marks)
                if hit:
                    raise NearBreakpoint("float orbit entered the guard band",
                                         done + k + j)
                if p:
                    pieces.append((k, start, start + p))
                if j == p < end - start:  # cut by the chunk's end: goes on
                    span = (start + p, end, sure)
                elif p < j and rokhlin is not None \
                        and xs[k + j] >= rokhlin.top:
                    span = (0, 0, False)  # left above J by scalar steps
                else:
                    span = None
                checked = False
            k += j
        if counts is not None:
            first = t
            while t < len(stops) and stops[t] <= done + n:
                t += 1
            cuts = [s - done for s in stops[first:t]] + [n]
            rows = total + _visits(rokhlin, len(total), sl, pieces, cuts)
            counts[first:t], total = rows[:-1], rows[-1]
        done += n
        x0 = float(xs[n])
        yield sl[:n], xs[:n]


def _visits(table, d: int, sl, pieces, cuts) -> np.ndarray:
    """The visits of ``sl[:c]`` for each c of the increasing ``cuts``, the
    last one the chunk's length, a row of a count per slot each.  Where
    the predicted pieces (offset, start, stop), ``sl[offset:]`` being
    ``words[start:stop]``, cover the chunk, they are differences of the
    table's prefix counts at each cut's word position; otherwise one
    bincount per segment between the cuts."""
    if sum(b - a for _at, a, b in pieces) < cuts[-1]:
        return np.cumsum([np.bincount(sl[lo:hi], minlength=d)
                          for lo, hi in zip((0, *cuts), cuts)], axis=0)
    at, a, b = np.array(pieces).T
    rows = table.word_counts
    stop = np.minimum(np.maximum(np.array(cuts)[:, None] - at, 0), b - a)
    return np.add.reduce(rows[a + stop] - rows[a], axis=1).astype(np.int64)


def _sweep_one_sample(args):
    """Walk one float orbit and record checkpoint sups for every cocycle.

    The walk is ``float_walk``'s chunks, which hold the checkpoints
    instead of ending at them: the walk writes the visit counts at each
    checkpoint, and the sample cuts each chunk into checkpoint segments.
    The d buffer entries in front of a segment hold slot a with its
    running position sum, so one weighted bincount of the segment's
    slots, seeds first, adds the positions in orbit order, as a per-step
    ``possum[slot] += x`` would; the seeds overwrite steps of earlier
    segments, already read.  Jump crossings are counted per segment.
    The (counts, position sums, crossings) at every checkpoint become
    the sups after the walk (``_checkpoint_sups``).  Picklable in and
    out, so worker processes can run it.  Returns (ok, per-cocycle
    checkpoint sup lists); a sample that meets the guard band returns
    (False, None).
    """
    x0f, mirror, tables, checkpoints = args
    d = len(mirror.lefts)
    marks = [(slot, gf) for table in tables for slot, gf, _j in table.jumps]
    possum = np.zeros(d)
    cross = np.zeros(len(marks), np.int64)
    count_at = np.empty((len(checkpoints), d), np.int64)
    sum_at = np.empty((len(checkpoints), d))
    cross_at = np.empty((len(checkpoints), len(marks)), np.int64)
    sl = np.empty(d + FLOAT_BLOCK, np.intp)
    xs = np.empty(d + FLOAT_BLOCK + 1)
    seeds = np.arange(d)
    done = t = 0
    try:
        for seg_sl, seg_xs in float_walk(mirror, x0f, checkpoints[-1], tables,
                                         checkpoints, sl[d:], xs[d:],
                                         count_at):
            k, lo = len(seg_xs), 0
            while lo < k:
                hi = min(checkpoints[t] - done, k)
                sl[lo:lo + d], xs[lo:lo + d] = seeds, possum
                possum = np.bincount(sl[lo:d + hi], xs[lo:d + hi], d)
                for mi, (slot, gf) in enumerate(marks):
                    cross[mi] += np.count_nonzero((seg_sl[lo:hi] == slot)
                                                  & (seg_xs[lo:hi] >= gf))
                if hi == checkpoints[t] - done:
                    sum_at[t], cross_at[t] = possum, cross
                    t += 1
                lo = hi
            done += k
    except NearBreakpoint:
        return False, None
    local_sup = []
    first = 0
    for table in tables:
        jump_cols = cross_at[:, first:first + len(table.jumps)]
        first += len(table.jumps)
        local_sup.append(_checkpoint_sups(table, count_at, sum_at, jump_cols))
    return True, local_sup


@np.errstate(over="ignore", invalid="ignore")  # overflow is a DomainError
def _checkpoint_sups(table: FloatTable, count_at, sum_at, cross_at) -> list:
    """Sup over coordinates of |cocycle sum| at every checkpoint row.

    Row t of ``count_at``, ``sum_at`` and ``cross_at`` holds the visit
    counts, position sums and jump crossings at checkpoint t.  Each
    coordinate's sum adds letter terms, then jump terms, one float
    operation per array element in the order of a per-checkpoint loop,
    so the sups are bit for bit that loop's; the sup keeps its running
    value unless a term exceeds it, as Python's ``max`` does.
    """
    counts = count_at.astype(float)  # exact: counts stay below 2^53
    crossings = cross_at.astype(float)
    best = np.zeros(len(counts))
    for i in range(table.dim):
        s = np.zeros(len(counts))
        vi = table.values[i]
        if table.constants is None:
            for a in range(counts.shape[1]):
                s += vi[a] * counts[:, a]
            for ji, (_slot, _gf, j) in enumerate(table.jumps):
                s += j[i] * crossings[:, ji]
        else:
            ci = table.constants[i]
            for a in range(counts.shape[1]):
                s += vi[a] * sum_at[:, a] + ci[a] * counts[:, a]
        best = np.fmax(best, np.abs(s))
    return best.tolist()


def deviation_sweep(iet: Iet, cocycles, n_max: int, samples: int = 8,
                    seed: int = 0, log_power: int = 2,
                    workers: int = 1) -> DeviationProfile:
    """Shared-orbit float sweep of several cocycles over one exchange.

    All cocycles are evaluated on the same sampled orbits through the
    per-interval visit-count and position-sum skeleton, so the per-step
    cost is independent of how many cocycles are profiled.  A sample
    walks in ``float_walk`` chunks that hold its checkpoints: the visit
    counts at a checkpoint are differences of the tower table's prefix
    counts, the position sums one seeded weighted bincount per
    checkpoint segment (``_sweep_one_sample``).  Samples that enter the
    guard band are skipped and counted.
    With workers > 1 the samples run in worker processes, each sent the
    mirror with its tower table built once here; the merge is a
    pointwise maximum, so results match the serial run exactly.
    """
    if samples < 1:
        raise DomainError(f"sample count must be >= 1, got {samples}")
    mirror = iet.mirror
    checkpoints = geometric_checkpoints(n_max, CHECKPOINT_RATIO)
    starts = kronecker_samples(iet.ctx, samples, iet.total, seed)
    tables = [float_table(c, iet) for c in cocycles]
    jobs = [(float(x0), mirror, tables, checkpoints) for x0 in starts]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        mirror.predictor(checkpoints[-1])

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one_sample, jobs))
    else:
        results = [_sweep_one_sample(job) for job in jobs]
    point_sup = [[0.0] * len(checkpoints) for _ in tables]
    for ok, local_sup in results:
        if ok:
            if not all(map(math.isfinite, chain.from_iterable(local_sup))):
                raise DomainError("cocycle sums overflowed the float lane")
            point_sup = [list(map(max, dst, src))
                         for dst, src in zip(point_sup, local_sup)]
    used = sum(ok for ok, _sup in results)
    envelope = tuple(tuple(accumulate(p, max)) for p in point_sup)
    tail = max(64, int(n_max ** 0.4))  # the slopes fit n >= tail

    def slopes(power):  # of log sup - power log log n against log n
        return tuple(least_squares_slope(
            [(math.log(n), math.log(v) - power * math.log(math.log(max(n, 3))))
             for n, v in zip(checkpoints, env) if n >= tail and v > 0])
            for env in envelope)

    return DeviationProfile(tuple(checkpoints), envelope,
                            tuple(map(tuple, point_sup)), slopes(0),
                            slopes(log_power), len(results) - used, used,
                            log_power)


def cocycle_from_json(data: dict, ctx) -> Cocycle:
    """Load a step or piecewise-linear cocycle from its dict form."""
    with reading_spec("cocycle spec", data):
        kind = data.get("kind", "step")
        dim = int(data.get("dim", 1))
        if kind == "step":
            values = tuple(tuple(ctx.real(x) for x in row)
                           for row in data["values"])
            jumps = tuple((ctx.real(e["gamma"]),
                           tuple(ctx.real(x) for x in e["jump"]))
                          for e in data.get("extra_discontinuities", []))
            return StepCocycle(dim, values, jumps)
        if kind == "pl":
            consts = tuple(tuple(ctx.real(x) for x in row)
                           for row in data["constants"])
            if "slope" in data:
                slope = tuple(ctx.real(x) for x in data["slope"])
                return PiecewiseLinearCocycle.constant_slope(slope, consts)
            slopes = tuple(tuple(ctx.real(x) for x in row)
                           for row in data["slopes"])
            return PiecewiseLinearCocycle(dim, slopes, consts)
    raise Unsupported(f"unknown cocycle kind {kind!r}")


def deviation_profile(cocycle: Cocycle, periodic: PeriodicIet, n_max: int,
                      samples: int = 8, seed: int = 0,
                      workers: int = 1) -> DeviationProfile:
    """Growth profile of one zero-mean cocycle over a periodic exchange.

    The log-factor correction power is M + 1 where M is the maximal
    Jordan block of the period matrix.
    """
    from .spectral import lyapunov_spectrum

    spec = lyapunov_spectrum(periodic.matrix, periodic.ctx)
    return deviation_sweep(periodic.iet, [cocycle], n_max, samples, seed,
                           spec.max_jordan_block + 1, workers=workers)
