"""Shared fixtures: the bundled systems at 128-bit working precision."""

from bisect import bisect_right
from itertools import islice

import numpy as np
import pytest

from iet_lab.cocycles import (FLOAT_BLOCK, ExactWalker,
                              PiecewiseLinearCocycle, Renormalizer,
                              StepCocycle, _checkpoint_sups,
                              zero_mean_version)
from iet_lab.errors import DomainError, NearBreakpoint
from iet_lab.perms import make_symmetric_pair
from iet_lab.precision import PrecisionContext
from iet_lab.rauzy import build_periodic_from_loop, build_periodic_from_matrix
from iet_lab.repro import (FIVE_MATRIX, GROUPED_MATRIX, SEVEN_LOOP,
                           seven_letter_pair)
from iet_lab.spectral import singularity_data, splitting


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(128)


@pytest.fixture(scope="session")
def periodic7(ctx):
    return build_periodic_from_loop(seven_letter_pair(), SEVEN_LOOP, ctx)


@pytest.fixture(scope="session")
def periodic4(ctx):
    return build_periodic_from_matrix(make_symmetric_pair(4), GROUPED_MATRIX, ctx)


@pytest.fixture(scope="session")
def periodic5(ctx):
    return build_periodic_from_matrix(make_symmetric_pair(5), FIVE_MATRIX, ctx)


@pytest.fixture(scope="session")
def splitting4(ctx, periodic4):
    kappa = singularity_data(periodic4.pair).kappa
    return splitting(periodic4.matrix, periodic4.lengths, ctx, kappa=kappa)


@pytest.fixture(scope="session")
def splitting5(ctx, periodic5):
    kappa = singularity_data(periodic5.pair).kappa
    return splitting(periodic5.matrix, periodic5.lengths, ctx, kappa=kappa)


@pytest.fixture(scope="session")
def renorm4(periodic4):
    return Renormalizer(periodic4)


@pytest.fixture(scope="session")
def renorm5(periodic5):
    return Renormalizer(periodic5)


@pytest.fixture(scope="session")
def gammas(ctx, periodic7):
    """The three interior marks of the grouped system (seven-letter sums)."""
    lam = periodic7.lengths
    mp = ctx.mp
    return (lam[0],
            mp.fsum([lam[0], lam[1], lam[2]]),
            mp.fsum([lam[i] for i in range(6)]))


def _step_walk(mirror, x0, n_steps, tables=()):
    """The float lane one step at a time: yield (slot, x) per step.

    The oracle for the chunk walk of ``float_walk``: same locate, same
    guard rule, same advance.
    """
    lefts, rights, moves = mirror.lefts, mirror.rights, mirror.moves
    guard = mirror.guard
    marks = [[] for _ in lefts]
    for table in tables:
        for slot, gf, _j in table.jumps:
            marks[slot].append(gf)
    xf = x0
    for step in range(n_steps):
        lo = bisect_right(lefts, xf, 1) - 1
        if (xf - lefts[lo] < guard or rights[lo] - xf < guard
                or any(-guard < xf - g < guard for g in marks[lo])):
            raise NearBreakpoint("float orbit entered the guard band", step)
        yield lo, xf
        xf += moves[lo]


@pytest.fixture(scope="session")
def step_walk():
    return _step_walk


def _block_walk(mirror, x0, n_steps, tables=()):
    """The float lane in fixed blocks: ``_step_walk``'s steps, yielded as
    (slots, xs) arrays per block of FLOAT_BLOCK steps (the last one the
    rest); a guarded step raises NearBreakpoint with its index once the
    blocks before it are out."""
    steps = _step_walk(mirror, x0, n_steps, tables)
    while block := list(islice(steps, FLOAT_BLOCK)):
        slots, xs = zip(*block)
        yield np.array(slots, np.intp), np.array(xs)


def _segment_sweep(args):
    """``_sweep_one_sample`` by checkpoint segments of fixed blocks.

    The oracle for the chunk sweep: each ``_block_walk`` block is cut at
    the checkpoints inside it; per segment one bincount adds the visit
    counts and one weighted bincount, the running position sums first,
    the positions, and jump crossings are counted per segment.  Returns
    (ok, per-cocycle checkpoint sups), (False, None) on a guard hit.
    """
    x0f, mirror, tables, checkpoints = args
    d = len(mirror.lefts)
    marks = [(slot, gf) for table in tables for slot, gf, _j in table.jumps]
    counts = np.zeros(d, np.int64)
    possum = np.zeros(d)
    cross = np.zeros(len(marks), np.int64)
    count_at = np.empty((len(checkpoints), d), np.int64)
    sum_at = np.empty((len(checkpoints), d))
    cross_at = np.empty((len(checkpoints), len(marks)), np.int64)
    seeds = np.arange(d)
    done = t = 0
    try:
        for sl, xs in _block_walk(mirror, x0f, checkpoints[-1], tables):
            lo = 0
            while lo < len(xs):
                hi = min(checkpoints[t] - done, len(xs))
                seg_sl, seg_xs = sl[lo:hi], xs[lo:hi]
                counts += np.bincount(seg_sl, minlength=d)
                possum = np.bincount(np.concatenate((seeds, seg_sl)),
                                     np.concatenate((possum, seg_xs)), d)
                for mi, (slot, gf) in enumerate(marks):
                    cross[mi] += np.count_nonzero((seg_sl == slot)
                                                  & (seg_xs >= gf))
                if hi == checkpoints[t] - done:
                    count_at[t], sum_at[t], cross_at[t] = counts, possum, cross
                    t += 1
                lo = hi
            done += len(xs)
    except NearBreakpoint:
        return False, None
    local_sup = []
    first = 0
    for table in tables:
        jump_cols = cross_at[:, first:first + len(table.jumps)]
        first += len(table.jumps)
        local_sup.append(_checkpoint_sups(table, count_at, sum_at, jump_cols))
    return True, local_sup


@pytest.fixture(scope="session")
def segment_sweep():
    return _segment_sweep


def _mpf_orbit(iet, x, n):
    """x, Tx, ..., T^n x (T^-1 for n < 0) one step at a time at working
    precision, and the letter each step leaves: the short-orbit oracle
    of the exact walker.

    Each point is located by a bisect on the rounded left ends and moved
    by its rounded translation; a point within eps_cmp of either end of
    its interval, short of equality with the left end, has an untrusted
    side and raises NearBreakpoint with its step index.
    """
    step = iet if n >= 0 else iet.inverse
    lefts = [step.left[a] for a in step.order0]
    eps = iet.ctx.eps_cmp
    points, letters = [x], []
    for k in range(abs(n)):
        if not 0 <= x < step.total:
            raise DomainError("point outside [0, |I|)")
        a = step.order0[bisect_right(lefts, x, 1) - 1]
        if (x != step.left[a] and x - step.left[a] < eps
                or step.right[a] - x < eps):
            raise NearBreakpoint("point within eps_cmp of an endpoint", k)
        x = x + step.translations[a]
        points.append(x)
        letters.append(a)
    return points, letters


@pytest.fixture(scope="session")
def mpf_orbit():
    return _mpf_orbit



@pytest.fixture(scope="session")
def guard_hit_starts(ctx, periodic4):
    """Starts whose float orbits enter the guard band at step k.

    Maps k = 0, mid-block and the block edges FLOAT_BLOCK - 1, FLOAT_BLOCK
    and FLOAT_BLOCK + 1 to a start whose k-th iterate lies half a guard
    width right of an interior left endpoint of the 4-letter system (the
    backward orbit of that point, one exact walk of the inverse, each
    point rounded once).
    """
    iet = periodic4.iet
    target = iet.left[1] + ctx.real(iet.mirror.guard / 2)
    steps = (0, 5000, FLOAT_BLOCK - 1, FLOAT_BLOCK, FLOAT_BLOCK + 1)
    walker = ExactWalker.from_point(iet.inverse, target)
    back = walker.positions(max(steps))[1]
    return {k: walker.lengths.exact_real(back[k]) for k in steps}


@pytest.fixture(scope="session")
def lane_cocycles4(ctx, periodic4):
    """Zero-mean float-lane cocycles of the 4-letter system, non-dyadic
    entries: a 2-dim PL one, and a 2-dim step one with two interior
    jumps in the first interval (the order of the float additions within
    a step decides the sums) and one more jump."""
    iet = periodic4.iet
    r = ctx.real
    pl = zero_mean_version(PiecewiseLinearCocycle.constant_slope(
        (r("0.7"), r("-0.3")),
        tuple((r(a), r(b)) for a, b in
              (("0.3", "0.1"), ("-0.4", "0.7"), ("0.25", "-0.2"),
               ("-0.15", "0.1")))), iet)
    a = iet.order0[0]
    width = iet.right[a] - iet.left[a]
    jumps = ((iet.left[a] + r("0.3") * width, (r("0.1"), r("-0.7"))),
             (iet.left[a] + r("0.71") * width, (r("0.3"), r("1") / 3)),
             (r("0.61"), (r("-0.9"), r("0.2"))))
    step = zero_mean_version(StepCocycle(
        2, ((r("0.1"), r("0.2")), (r("-0.3"), r("0.7")),
            (r("0.7"), r("-1.1")), (r("-0.45"), r("0.3"))), jumps), iet)
    return {"pl": pl, "step-two-jumps-one-slot": step}
