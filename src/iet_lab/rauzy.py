"""Interval exchanges, induction steps, and periodic-type constructions.

An interval exchange is determined by a permutation pair and a positive
length vector.  The induction operator replaces the exchange by its
first-return map to a shorter initial interval; one step is encoded by a
type bit and an elementary unimodular transition matrix.  Closed loops
of such steps produce self-similar (periodic-type) exchanges whose
length vector is the leading eigenvector of the loop's matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from . import intmat
from .errors import (DomainError, KeaneViolation, NearBreakpoint, NotALoop,
                     NotNormalized, ReduciblePair, reading_spec)
from .intmat import IntMatrix
from .perms import PermutationPair, make_pair
from .precision import PrecisionContext, RealVector
from .shadow import FloatMirror, lattice_mirror


def omega_matrix(pair: PermutationPair) -> IntMatrix:
    """Antisymmetric intersection matrix of an irreducible pair.

    Entry (a, b) is +1 when letter a moves from before b to after b
    under the exchange, -1 in the opposite case, 0 otherwise.  The
    translation vector of any exchange with this pair is Omega * lambda.
    """
    if not pair.irreducible:
        raise ReduciblePair(f"pair {pair} is reducible")
    d = pair.d
    out = []
    for a in range(d):
        row = []
        for b in range(d):
            if pair.pi1[a] > pair.pi1[b] and pair.pi0[a] < pair.pi0[b]:
                row.append(1)
            elif pair.pi1[a] < pair.pi1[b] and pair.pi0[a] > pair.pi0[b]:
                row.append(-1)
            else:
                row.append(0)
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class DepthLattice:
    """Integer lattice data of an exchange or of an induced one.

    Each entry is an integer coefficient vector over the lengths:
    ``lefts[a]``, ``widths[a]`` and ``image_lefts[a]`` give the left
    endpoint, the length and the image's left endpoint of letter a's
    interval, ``total`` the length of the whole interval.
    """

    lefts: tuple
    widths: tuple
    image_lefts: tuple
    total: tuple


def _prefix_sums(rank, rows) -> tuple:
    """Per letter a, the sum of rows[c] over the letters c ranked before a."""
    out = [None] * len(rows)
    acc = (0,) * len(rows)
    for a in sorted(range(len(rows)), key=rank.__getitem__):
        out[a] = acc
        acc = tuple(s + r for s, r in zip(acc, rows[a]))
    return tuple(out)


def _lattice(pair, widths) -> DepthLattice:
    """Lattice data of the exchange of ``pair`` whose letter a has width row a."""
    widths = tuple(tuple(row) for row in widths)
    return DepthLattice(_prefix_sums(pair.pi0, widths), widths,
                        _prefix_sums(pair.pi1, widths),
                        tuple(map(sum, zip(*widths))))


@dataclass(frozen=True)
class Iet:
    """Interval exchange: pair plus positive lengths, with derived geometry.

    The transformation translates each subinterval [l_a, r_a) by w_a,
    where w is determined by the difference between the image ordering
    and the domain ordering of the letters.  Endpoints are the rows of
    ``lattice`` (the identity widths) dotted with the lengths.
    """

    pair: PermutationPair
    lengths: RealVector

    def __post_init__(self):
        if len(self.lengths) != self.pair.d:
            raise DomainError("length vector size does not match alphabet")
        if any(not v > 0 for v in self.lengths):
            raise DomainError("all lengths must be positive")
        d = self.pair.d
        lattice = _lattice(self.pair, intmat.identity(d))
        dot, lam = self.lengths.ctx.dot_int, self.lengths.values
        left = tuple(dot(row, lam) for row in lattice.lefts)
        order0 = tuple(sorted(range(d), key=self.pair.pi0.__getitem__))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right",
                           tuple(left[a] + lam[a] for a in range(d)))
        object.__setattr__(self, "translations",
                           tuple(dot(row, lam) - left[a]
                                 for a, row in enumerate(lattice.image_lefts)))
        object.__setattr__(self, "total", dot(lattice.total, lam))
        object.__setattr__(self, "order0", order0)

    @property
    def ctx(self) -> PrecisionContext:
        return self.lengths.ctx

    @property
    def d(self) -> int:
        return self.pair.d

    @cached_property
    def mirror(self) -> FloatMirror:
        """Float geometry of the exchange, built once: the shadow both
        orbit engines walk, with its tower table once one is built."""
        return lattice_mirror(self.lattice, self.lengths, self.order0)

    def interval_index(self, x) -> int:
        """Letter whose interval [l_a, r_a) holds x: the exact walker's
        location, by exact signs of x minus the left ends."""
        from .cocycles import ExactWalker

        return ExactWalker.from_point(self, x).letter()

    @cached_property
    def inverse(self) -> "Iet":
        """The inverse exchange (orderings swapped), built once; its
        letter a's interval is the image of a's."""
        return Iet(make_pair(self.pair.pi1, self.pair.pi0), self.lengths)

    def to_json(self) -> dict:
        return {"pair": self.pair.to_json(),
                "lambda": self.lengths.as_strings()}


@dataclass(frozen=True)
class RauzyStep:
    """One induction step: type bit, transition matrix, resulting pair."""

    eps: int
    theta: IntMatrix
    new_pair: PermutationPair
    winner: int
    loser: int


def rauzy_move(pair: PermutationPair, eps: int):
    """Combinatorial induction move of the given type.

    Returns (new_pair, theta, winner, loser).  The winner is the letter
    in final position of the eps-ordering; theta = I + E[winner, loser].
    """
    if eps not in (0, 1):
        raise DomainError("type bit must be 0 or 1")
    d = pair.d
    pis = (pair.pi0, pair.pi1)
    winner = pis[eps].index(d)
    loser = pis[1 - eps].index(d)
    cut = pis[1 - eps][winner]
    new_other = []
    for a in range(d):
        v = pis[1 - eps][a]
        if v <= cut:
            new_other.append(v)
        elif v < d:
            new_other.append(v + 1)
        else:
            new_other.append(cut + 1)
    if eps == 0:
        new_pair = make_pair(pair.pi0, new_other)
    else:
        new_pair = make_pair(new_other, pair.pi1)
    theta = [[int(i == j) for j in range(d)] for i in range(d)]
    theta[winner][loser] = 1
    return new_pair, tuple(tuple(r) for r in theta), winner, loser


def rauzy_step(iet: Iet) -> tuple:
    """One induction step on an exchange; returns (RauzyStep, new Iet).

    The step type compares the lengths of the two letters in final
    position; a tie is an orbit collision and violates the Keane
    condition, while a near-tie at working precision is undecidable.
    """
    pair = iet.pair
    if not pair.irreducible:
        raise ReduciblePair("induction requires an irreducible pair")
    ctx = iet.ctx
    d = pair.d
    last0 = pair.pi0.index(d)
    last1 = pair.pi1.index(d)
    lam0, lam1 = iet.lengths[last0], iet.lengths[last1]
    if lam0 == lam1:
        raise KeaneViolation("equal critical lengths")
    if abs(lam0 - lam1) < ctx.eps_cmp:
        raise NearBreakpoint("critical lengths within eps_cmp")
    eps = 0 if lam0 > lam1 else 1
    new_pair, theta, winner, loser = rauzy_move(pair, eps)
    new_vals = list(iet.lengths.values)
    new_vals[winner] = new_vals[winner] - new_vals[loser]
    new_iet = Iet(new_pair, RealVector(tuple(new_vals), ctx))
    return RauzyStep(eps, theta, new_pair, winner, loser), new_iet


@dataclass(frozen=True)
class InductionResult:
    steps: tuple
    final: Iet
    theta: IntMatrix

    @property
    def eps_word(self) -> tuple:
        return tuple(s.eps for s in self.steps)


def iterate_induction(iet: Iet, n_steps: int) -> InductionResult:
    """Iterate induction, accumulating the exact transition product."""
    if n_steps < 0:
        raise DomainError(f"step count must be >= 0, got {n_steps}")
    steps = []
    theta = intmat.identity(iet.d)
    current = iet
    for k in range(n_steps):
        try:
            step, current = rauzy_step(current)
        except (KeaneViolation, NearBreakpoint) as exc:
            exc.step_index = k
            raise
        steps.append(step)
        theta = intmat.matmul(theta, step.theta)
    return InductionResult(tuple(steps), current, theta)


@dataclass(frozen=True)
class KeaneReport:
    horizon: int
    collision: tuple | None  # (alpha, beta, m) or None
    message: str

    @property
    def ok(self) -> bool:
        return self.collision is None


def keane_check(iet: Iet, horizon: int) -> KeaneReport:
    """Scan forward orbits of left endpoints for collisions.

    Semi-decision: reports the first m <= horizon with T^m l_a within
    eps_cmp of some l_b (b not in first position), or a clean scan.
    Each orbit is one exact walk from a lattice point, so T^m l_a and
    l_b are compared as exact integers over one power of two.
    """
    from .cocycles import ExactWalker

    lengths, lefts = iet.lengths, iet.lattice.lefts
    eps = lengths.ceil_num(iet.ctx.eps_cmp)
    targets = [(b, lengths.int_dot(lefts[b])) for b in range(iet.d)
               if iet.pair.pi0[b] != 1]
    best = None
    for a in range(iet.d):
        orbit = ExactWalker(iet, lefts[a]).positions(horizon)[1]
        for m, x in enumerate(orbit[1:], 1):
            hit = next((b for b, lb in targets if abs(x - lb) < eps), None)
            if hit is not None:
                if best is None or m < best[2]:
                    best = (a, hit, m)
                break
    if best is None:
        return KeaneReport(horizon, None,
                           f"no collision up to horizon {horizon}")
    a, b, m = best
    return KeaneReport(horizon, best,
                       f"T^{m} l_{a} hits l_{b} (within eps_cmp)")


def replay_loop(start: PermutationPair, loop) -> tuple:
    """Replay a type-bit word combinatorially; returns (product, pairs).

    Raises NotALoop when the word is empty or does not return to start.
    """
    word = tuple(int(e) for e in loop)
    if not word:
        raise NotALoop("empty loop")
    pair = start
    product = intmat.identity(start.d)
    pairs = [start]
    for e in word:
        pair, theta, _w, _l = rauzy_move(pair, e)
        product = intmat.matmul(product, theta)
        pairs.append(pair)
    if pair != start:
        raise NotALoop("path does not return to the starting pair")
    return product, tuple(pairs)


@dataclass(frozen=True)
class PeriodicIet:
    """Self-similar exchange with its certified loop-product data.

    ``matrix`` is the loop product A itself (entries may contain zeros;
    ``positive_power`` is the least q with A^q > 0).  ``lengths`` is the
    leading eigenvector normalized to total 1, so the induced exchange
    at depth n has total length pf_value**(-n).  ``effective_multiplier``
    is the least period multiple for which the singularity marker
    vectors are fixed and the depth-1 interval nests inside the first
    subinterval.
    """

    pair: PermutationPair
    matrix: IntMatrix
    pf_value: object
    pf_bracket: tuple
    lengths: RealVector
    base_period: int | None
    loop_word: tuple | None
    loop_verified: bool
    positive_power: int
    effective_multiplier: int

    @property
    def ctx(self) -> PrecisionContext:
        return self.lengths.ctx

    @property
    def d(self) -> int:
        return self.pair.d

    @cached_property
    def iet(self) -> Iet:
        return Iet(self.pair, self.lengths)

    @cached_property
    def step_matrix(self) -> IntMatrix:
        """Matrix of one normalized period (tower and correction levels)."""
        return intmat.matpow(self.matrix, self.effective_multiplier)

    @property
    def step_scale(self):
        """Contraction of one normalized period."""
        return self.pf_value ** self.effective_multiplier

    def heights(self, n: int) -> tuple:
        """Return time in base steps of each letter's depth-n interval
        (depth in normalized periods): the column sums of
        ``step_matrix``**n."""
        return intmat.column_sums(intmat.matpow(self.step_matrix, n))

    def first_letter(self) -> int:
        return self.pair.pi0.index(1)

    def to_json(self) -> dict:
        data = {"pair": self.pair.to_json(),
                "periodic_matrix": intmat.matrix_to_strings(self.matrix),
                "pf_value": self.ctx.str_of(self.pf_value),
                "lambda": self.lengths.as_strings(),
                "positive_power": self.positive_power,
                "effective_multiplier": self.effective_multiplier,
                "loop_verified": self.loop_verified}
        if self.loop_word is not None:
            data["loop"] = list(self.loop_word)
        return data


def _pf_eigen(matrix: IntMatrix, ctx: PrecisionContext):
    """Leading eigenpair of a primitive non-negative integer matrix.

    Power iteration in extended precision with two-sided ratio
    bracketing: for any positive vector x the ratios (Ax)_i / x_i
    enclose the leading eigenvalue, so the returned bracket is a
    certificate, not an estimate.
    """
    d = len(matrix)
    work = ctx.spawn(64)
    mp = work.mp
    x = [mp.mpf(1) / d] * d
    target = mp.mpf(2) ** (-(ctx.bits + 16))
    lo = hi = None
    for _ in range(40 + 6 * ctx.bits):
        y = [mp.fsum(matrix[i][j] * x[j] for j in range(d) if matrix[i][j])
             for i in range(d)]
        ratios = [y[i] / x[i] for i in range(d)]
        lo, hi = min(ratios), max(ratios)
        s = mp.fsum(y)
        x = [v / s for v in y]
        if hi - lo < target * lo:
            break
    rho = (lo + hi) / 2
    lam = RealVector(tuple(ctx.real(v) for v in x), ctx)
    return ctx.real(rho), (ctx.real(lo), ctx.real(hi)), lam


def _b_orbit_order(pair: PermutationPair, matrix: IntMatrix) -> int:
    """Order of the permutation induced by the matrix on marker vectors.

    The loop product permutes the singularity marker vectors b(O); the
    returned N is the least power fixing each of them.
    """
    from .spectral import singularity_data

    sdata = singularity_data(pair)
    bs = list(sdata.b_vectors.values())
    if not bs or all(all(v == 0 for v in b) for b in bs):
        return 1
    index_of = {}
    for i, b in enumerate(bs):
        index_of[tuple(b)] = i
    perm = []
    for b in bs:
        image = tuple(intmat.mat_vec(matrix, b))
        if image not in index_of:
            raise NotNormalized(
                "matrix does not permute the singularity marker vectors; "
                "it cannot be a loop product for this pair")
        perm.append(index_of[image])
    order = 1
    for start in range(len(perm)):
        length = 1
        j = perm[start]
        while j != start:
            j = perm[j]
            length += 1
        order = lcm(order, length)
    return order


def _nesting_power(lengths: RealVector, pair: PermutationPair, rho) -> int:
    """Least k with rho**(-k) <= length of the first subinterval."""
    alpha1 = pair.pi0.index(1)
    lam1 = lengths[alpha1]
    k = 1
    scale = 1 / rho
    while scale > lam1:
        scale = scale / rho
        k += 1
        if k > 64:
            raise NotNormalized("nesting power did not stabilize")
    return k


def _assemble_periodic(pair, matrix, base_period, loop_word, loop_verified,
                       ctx: PrecisionContext) -> PeriodicIet:
    q = intmat.positive_power(matrix)
    rho, bracket, lam = _pf_eigen(matrix, ctx)
    n1 = _b_orbit_order(pair, matrix)
    n2 = _nesting_power(lam, pair, rho)
    mult = lcm(n1, n2)
    periodic = PeriodicIet(pair=pair, matrix=matrix, pf_value=rho,
                           pf_bracket=bracket, lengths=lam,
                           base_period=base_period, loop_word=loop_word,
                           loop_verified=loop_verified, positive_power=q,
                           effective_multiplier=mult)
    # residual certificate: A lam = rho lam at working precision
    residual = max(abs(ctx.mp.fsum([matrix[i][j] * lam[j] for j in range(len(matrix))])
                       - rho * lam[i]) for i in range(len(matrix)))
    if residual / rho > ctx.mp.mpf(2) ** (-(ctx.bits // 2)):
        raise NotNormalized("leading eigenpair residual exceeds tolerance")
    return periodic


def build_periodic_from_loop(start: PermutationPair, loop,
                             ctx: PrecisionContext | None = None) -> PeriodicIet:
    """Periodic-type exchange from a closed induction path.

    The path is replayed combinatorially; its matrix product must be
    primitive.  The resulting lengths are the leading eigenvector, and
    replaying the same path on them reproduces the word dynamically.
    """
    ctx = ctx or PrecisionContext()
    if not start.irreducible:
        raise ReduciblePair("loop base pair must be irreducible")
    product, _pairs = replay_loop(start, loop)
    return _assemble_periodic(start, product, len(tuple(loop)),
                              tuple(int(e) for e in loop), True, ctx)


def build_periodic_from_matrix(pair: PermutationPair, matrix,
                               ctx: PrecisionContext | None = None) -> PeriodicIet:
    """Periodic-type exchange from a given loop-product matrix.

    The caller asserts the matrix arises from a closed induction path at
    this pair; that assertion is recorded (loop_verified = False), while
    primitivity and the marker-vector permutation are checked here.
    """
    ctx = ctx or PrecisionContext()
    if not pair.irreducible:
        raise ReduciblePair("pair must be irreducible")
    a = intmat.freeze(matrix)
    return _assemble_periodic(pair, a, None, None, False, ctx)


def iet_from_json(data: dict, ctx: PrecisionContext | None = None):
    """Load either a plain exchange or a periodic-type one from a dict.

    Plain form: {"pair": ..., "lambda": [decimal strings]}.
    Periodic form: {"pair": ..., "periodic_matrix": [[...]], "loop": [...]}
    (loop optional; when present it takes precedence and is verified).
    """
    ctx = ctx or PrecisionContext()
    with reading_spec("exchange spec", data):
        pair = PermutationPair.from_json(data["pair"])
        if "lambda" in data and "periodic_matrix" not in data:
            return Iet(pair, ctx.vector(data["lambda"]))
        if "loop" in data and data["loop"]:
            return build_periodic_from_loop(pair, data["loop"], ctx)
        if "periodic_matrix" in data:
            matrix = intmat.matrix_from_strings(data["periodic_matrix"])
            return build_periodic_from_matrix(pair, matrix, ctx)
    raise DomainError("exchange spec needs either lambda or periodic_matrix")
