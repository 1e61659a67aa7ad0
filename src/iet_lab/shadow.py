"""The float shadow of an exchange, walked by both orbit engines.

``FloatMirror`` holds an exchange's intervals as floats, in position
order; ``lattice_mirror`` rounds it from integer lattice data, and
``Iet.mirror`` keeps the depth-0 one, built once per exchange.  Each
entry is the exact lattice value rounded once to the nearest float: an
integer dot of the coefficients with the lengths' mantissas
(``RealVector.int_dot``) over a power of two, so a mirror is correctly
rounded at any depth, however large the coefficients of A^-n grow.  Both
engines locate a point x in slot ``bisect_right(lefts, x, 1) - 1`` and
guard it within GUARD * |I| of either end of that interval, |I| the
total length of the exchange walked.

``shadow_step`` is the one step of the shadow: one climb, the rest of
x's tower word in ``FloatMirror.tower_table`` (the Rokhlin towers of
the first-return map to a short base interval), or, off every level
and for walks too short to pay for the table, one stretch of a scalar
bisect-and-guard loop.  A predicted climb's slots and moves are copied
from the table's per-word arrays, and one accumulate seeded with x adds
the moves, the same additions in the same order as a per-step walk, so
the walk is bit-identical to the per-step one whatever the table
predicts.  It stops at the first guarded step; the float lane skips its
sample there, the exact engine settles the step by exact signs.  Each
engine keeps its own loop over steps: ``cocycles.float_walk`` for the
float lane, ``cocycles.ExactWalker._walk`` for the exact one.  The
float lane walks certified climbs by batches (``shadow_climbs``): from
the end of each climb it guesses the next tower by that tower's float
return move, gathers the whole batch's slots and moves, adds them by
one accumulate and checks every climb's start and every mark in one
vector pass, keeping the steps before the first failure; there the
step takes over.

A predicted climb is checked by the guard rule at every step, or, when
the table's bounds certify it, by one pair of comparisons.  The bounds
``lo[s]`` and ``hi[s]`` at word position s are the float orbits of two
base points of the tower, 2 guard inside either end of its base,
walked along the tower's own word by the same seeded accumulate, and
kept only where both pass the guard rule at every step.  Rounding to
nearest is monotone: x <= y gives fl(x + m) <= fl(y + m),
fl(x - L) <= fl(y - L) and fl(R - x) >= fl(R - y).  So a start x with
``lo[s] <= x <= hi[s]`` stays between the two orbits at every later
step of the word, where ``fl(x - left) >= fl(lo - left) >= guard`` and
``fl(right - x) >= fl(right - hi) >= guard``: it passes the guard rule
on every predicted slot, and a point that passes lies inside that
slot's interval, where the bisect finds the same slot.  The bounds are
built from the table's own bases, ends and words, so a table that
predicts wrongly certifies nothing wrongly.  ``TowerTable.span`` is
the one lookup: the word positions of x's climb and whether the bounds
certify it.  ``cocycles.ExactWalker`` looks every climb up and takes a
certified span whole, folding its word's visit counts without the
float positions; the float lane looks a climb up only where a batch
did not guess it, and certifies a guessed climb by the same pair of
comparisons at its start, made on its computed point.  The certificate
covers the guard rule only, and jump marks of step cocycles are checked
at every step, within ``guard`` on either side of the mark: the float
lane never resyncs, so its exact point may lie across a mark its float
point has not reached.
Closeness of the float orbit to the exact one is the exact walker's own
bound: no word is longer than _TOWER_REACH * TOWER_HEIGHT steps, and the
walker starts every climb from a resynced shadow, so a climb drifts
less than 1.5e-11 |I|, far inside the guard.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

GUARD = 1e-9  # guard band around breakpoints, relative to |I| (both orbit engines)
TOWER_HEIGHT = 1 << 12  # |I| / |J|, J = [0, |J|) the base of the float towers
_TOWER_REACH = 16  # tower build: no return within this many heights, dropped
_NO_WORD = np.empty(0, np.uint8)
_NO_SPAN = (0, 0, False)


@dataclass(frozen=True)
class FloatMirror:
    """Float geometry of an exchange, intervals in position order.

    ``rights[k]`` is ``lefts[k + 1]``, and |I| for the last slot;
    ``letters[k]`` is the letter of slot k and ``moves[k]`` its
    translation.  A point x lies in slot ``bisect_right(lefts, x, 1) - 1``
    and is guarded when ``x - lefts[slot]`` or ``rights[slot] - x`` is
    below ``guard``: ``float_walk`` then skips the sample, ``ExactWalker``
    settles the slot exactly.  ``tower_table``, built on first use by a
    walk longer than TOWER_HEIGHT steps, predicts the slots of both.
    """

    lefts: tuple
    rights: tuple
    moves: tuple
    letters: tuple
    guard: float  # GUARD * |I|

    @cached_property
    def tower_table(self) -> "TowerTable":
        """First-return towers over [0, |I| / TOWER_HEIGHT)."""
        return _tower_table(self)

    @cached_property
    def arrays(self) -> tuple:
        """``lefts``, ``rights`` and ``moves`` as float arrays."""
        return tuple(map(np.array, (self.lefts, self.rights, self.moves)))

    def predictor(self, steps: int) -> "TowerTable | None":
        """The tower table for a walk known to reach ``steps`` steps: only
        a walk longer than TOWER_HEIGHT builds it, and once built it
        predicts every walk."""
        if steps > TOWER_HEIGHT or "tower_table" in vars(self):
            return self.tower_table
        return None


@dataclass(frozen=True, eq=False)
class TowerTable:
    """Rokhlin towers of the float first-return map to J = [0, top).

    Tower t stands on the J-interval ``bases[t]``; its word, the slots
    up to the first return to J, is ``words[ends[t - 1]:ends[t]]`` (from
    0 for t = 0) in one uint8 array, and its level k is the base moved
    by the first k of them.  Per level, sorted by left end, ``lefts``
    holds the left end and ``starts`` the index in ``words`` where the
    rest of its word starts; its width is its tower's.  Built from the
    words, each on its first use: the two float64 ``bounds`` per word
    position (on the first lookup), the float64 ``word_moves`` (on the
    first predicted climb walked) and the int32 ``word_counts`` of d
    slots (on the first visit counts asked for), so a level costs up to
    37 + 4 d bytes (53 at d = 4), and per tower the ``guide`` of the
    batches' guesses.  The table only predicts slots: ``shadow_climbs``
    keeps a climb only where the bounds certify its computed start, and
    ``shadow_step`` checks every step they do not certify.
    """

    mirror: FloatMirror
    top: float
    bases: tuple
    ends: tuple
    lefts: np.ndarray
    starts: np.ndarray
    words: np.ndarray

    def span(self, x: float) -> tuple:
        """(start, end, sure): x's predicted slots up to its return to J
        are ``words[start:end]``, the rest of the word of x's level, and
        ``sure`` says whether the bounds certify that x passes the guard
        rule on all of them; (0, 0, False) off every level."""
        k = int(self.lefts.searchsorted(x, "right")) - 1
        if k < 0:
            return _NO_SPAN
        start = int(self.starts[k])
        t = bisect_right(self.ends, start)
        a, b = self.bases[t]
        if not x < self.lefts[k] + (b - a):
            return _NO_SPAN
        lo, hi = self.bounds
        return start, self.ends[t], bool(lo[start] <= x <= hi[start])

    @cached_property
    def word_moves(self) -> np.ndarray:
        """The float move of each word position's slot, ``moves[words]``."""
        return self.mirror.arrays[2][self.words]

    @cached_property
    def word_counts(self) -> np.ndarray:
        """Prefix visit counts: row s counts each slot in ``words[:s]``, so
        the visits of ``words[i:j]`` are row j minus row i (int32: a row
        sums to at most the number of levels)."""
        prefix = np.zeros((len(self.words) + 1, len(self.mirror.lefts)),
                          np.int32)
        prefix[np.arange(1, len(self.words) + 1), self.words] = 1
        return np.cumsum(prefix, axis=0, out=prefix)

    @cached_property
    def guide(self) -> tuple:
        """Per tower, what a batch needs to guess the climb after a climb:
        its base's left end, its word's head and end in ``words``, the
        bounds at the head and its return move, the float sum of its
        word's moves (the one float per tower this adds).  A point x at
        word position s of tower t returns to J near x + move - (lo[s] -
        lo[head])."""
        heads = (0,) + self.ends[:-1]
        lo, hi = self.bounds
        moves = np.add.reduceat(self.word_moves, heads)
        return (tuple(a for a, _b in self.bases), heads, self.ends,
                tuple(lo[list(heads)].tolist()),
                tuple(hi[list(heads)].tolist()), tuple(moves.tolist()))

    @cached_property
    def bounds(self) -> tuple:
        """(lo, hi) per word position: the float orbits of base points
        ``a + 2 guard`` and ``b - 2 guard`` of each tower [a, b) along its
        word, or (inf, -inf) on all of a tower where either fails the
        guard rule at some step."""
        moves_a = self.mirror.arrays[2]
        guard = self.mirror.guard
        lo, hi = np.empty(len(self.words)), np.empty(len(self.words))
        heads = (0,) + self.ends[:-1]
        for (a, b), head, end in zip(self.bases, heads, self.ends):
            for orbit, x in ((lo, a + 2 * guard), (hi, b - 2 * guard)):
                seg = orbit[head:end]
                seg[0] = x
                np.take(moves_a, self.words[head:end - 1], out=seg[1:])
                np.add.accumulate(seg, out=seg)
        fails = (_guarded(self.mirror, self.words, lo)
                 | _guarded(self.mirror, self.words, hi))
        tower = np.repeat(np.arange(len(self.ends)), np.diff((0,) + self.ends))
        dropped = np.isin(tower, tower[fails])
        lo[dropped], hi[dropped] = math.inf, -math.inf
        return lo, hi


def lattice_mirror(lattice, lengths, order) -> FloatMirror:
    """Float geometry of ``lattice`` (a ``rauzy.DepthLattice``) over the
    lengths (a ``precision.RealVector``), slots in ``order``: every entry
    is the correctly rounded exact value, at any depth."""
    dot, fl = lengths.int_dot, lengths.exact_float
    lefts = [dot(lattice.lefts[a]) for a in order]
    moves = tuple(fl(dot(lattice.image_lefts[a]) - left)
                  for a, left in zip(order, lefts))
    lefts = tuple(map(fl, lefts))
    total = fl(dot(lattice.total))
    return FloatMirror(lefts, lefts[1:] + (total,), moves, tuple(order),
                       GUARD * total)


def shadow_step(mirror: FloatMirror, x: float, n: int, sl, xs, table=None,
                span=_NO_SPAN, marks=(), low: float = -math.inf) -> tuple:
    """Walk x's float shadow along one climb, up to n verified steps:
    return (k, hit, p).

    Fills ``sl[:k]`` with the slots and ``xs[:k + 1]`` with the points:
    ``xs[0] = x`` and ``xs[j + 1] = xs[j] + moves[sl[j]]``.  ``hit``
    means step k is guarded in its true slot: within ``guard`` of either
    end of the interval, or that close to either side of a mark (slot,
    gamma) of that slot.  With ``span`` (x's ``TowerTable.span`` in
    ``table``) on a level, the step walks the rest of its word: slots
    and moves are copied from the table's per-word arrays, the guard
    rule is applied at every step unless the span is certified, and
    marks at every step.  The first p steps are predicted, ``sl[:p]`` is
    ``words[start:start + p]``; at a predicted step that fails, the
    scalar walk settles that one step, so a wrong prediction costs one
    step.  Off every level the step is one scalar stretch of up to
    TOWER_HEIGHT steps, up to a point below the table's base.  Either
    way it ends after the first point below ``low``.
    """
    start, end, sure = span
    xs[0] = x
    p = 0
    if end > start:
        take = min(end - start, n)
        seg = xs[:take + 1]
        seg[1:] = table.word_moves[start:start + take]
        np.add.accumulate(seg, out=seg)
        if low > -math.inf:  # end after the first point below low
            under = np.flatnonzero(seg[1:] < low)
            take = int(under[0]) + 1 if len(under) else take
        sl[:take] = table.words[start:start + take]
        p = take
        if not sure or marks:
            slots, at = sl[:take], xs[:take]
            bad = np.zeros(take, bool) if sure else _guarded(mirror, slots, at)
            if marks:
                bad |= _marked(mirror, slots, at, marks)
            if bad.any():
                p = int(bad.argmax())
        if p == take:
            return p, False, p
        n = p + 1  # the scalar walk settles the failed step
    by_slot = [[gf for s, gf in marks if s == slot]
               for slot in range(len(mirror.lefts))] if marks else ()
    top = max(low, table.top if table is not None else 0.0)
    walked, _last, hit = _scalar_walk(mirror, float(xs[p]),
                                      min(n - p, TOWER_HEIGHT), top,
                                      mirror.guard, by_slot)
    k = p + len(walked)
    if walked:  # the scalar walk's points, added again in the same order
        sl[p:k] = walked
        seg = xs[p:k + 1]
        mirror.arrays[2].take(sl[p:k], out=seg[1:], mode="clip")
        np.add.accumulate(seg, out=seg)
    return k, hit, p


def shadow_climbs(table: TowerTable, x: float, n: int, sl, xs, span,
                  marks=()) -> tuple:
    """Walk x's float shadow along a batch of climbs, up to n steps:
    return (k, pieces, rest, cut).

    ``span`` is x's span on a level of ``table``.  The batch is the rest
    of x's climb and, when the span is certified, guessed climbs after
    it: a climb's end is guessed by its tower's return move
    (``TowerTable.guide``), and the next climb is the word of the tower
    whose base holds that guess inside its bounds, up to n steps or a
    guess outside every base's bounds.  All the batch's slots and moves
    are copied from the table's per-word arrays into ``sl`` and ``xs``,
    and one accumulate seeded with x adds the moves: the additions of a
    per-step walk, in its order.  One check (``_certified``) then tests
    every climb's start against its bounds, and each mark (slot, gamma)
    is tested at every step, within ``guard`` on either side.  The
    batch keeps the k steps before the first failure, and ``cut`` says
    that step k failed, to be walked by ``shadow_step``.  So a wrong
    guess or a corrupt table only shortens a batch: a climb is kept
    only where its start is certified, and an uncertified span gathers
    nothing.  ``pieces`` holds each kept climb's (offset, start, stop),
    ``sl[offset:]`` being ``words[start:stop]``; ``rest`` is the span to
    go on with: the climb the n steps cut, x's span when step 0 failed,
    or None.
    """
    start, end, sure = span
    k = min(end - start, n) if sure else 0
    pieces = [(0, start, start + k)]
    if sure:
        bases, heads, ends, lo_heads, hi_heads, returns = table.guide
        t = bisect_right(table.ends, start)
        y = x + returns[t] - (float(table.bounds[0][start]) - lo_heads[t])
        while k < n:
            t = bisect_right(bases, y) - 1
            if t < 0 or not lo_heads[t] <= y <= hi_heads[t]:
                break
            start, end = heads[t], ends[t]
            take = min(end - start, n - k)
            pieces.append((k, start, start + take))
            k += take
            y += returns[t]
    xs[0] = x
    for at, a, b in pieces:
        sl[at:at + b - a] = table.words[a:b]
        xs[at + 1:at + 1 + b - a] = table.word_moves[a:b]
    seg = xs[:k + 1]
    np.add.accumulate(seg, out=seg)
    at, a, _b = np.array(pieces).T
    kept = _certified(table, xs, at, a)
    cut = int(at[kept]) if kept < len(pieces) else k
    if marks:
        bad = np.flatnonzero(_marked(table.mirror, sl[:cut], xs[:cut], marks))
        cut = int(bad[0]) if len(bad) else cut
    if cut < k or kept < len(pieces):
        pieces = [(at, a, min(b, a + cut - at)) for at, a, b in pieces
                  if at < cut]
        return cut, pieces, span if cut == 0 else None, True
    rest = (pieces[-1][2], end, True) if pieces[-1][2] < end else None
    return k, pieces, rest, False


def _certified(table: TowerTable, xs, at, starts) -> int:
    """How many climbs, counted from the first, start inside their
    bounds: climb i starts at ``xs[at[i]]`` on word position
    ``starts[i]``, and is certified when ``lo <= x <= hi`` there."""
    lo, hi = table.bounds
    y = xs[at]
    fails = np.flatnonzero(~((lo[starts] <= y) & (y <= hi[starts])))
    return int(fails[0]) if len(fails) else len(at)


def _scalar_walk(mirror: FloatMirror, x: float, n: int, top: float,
                 guard: float, marks=()) -> tuple:
    """Up to n steps of x's orbit by bisect and the guard rule, stopping
    after the first point below ``top``; returns (slots, the last point,
    whether the walk stopped at a guarded point).  ``marks`` lists each
    slot's marks, or is empty."""
    lefts, rights, moves = mirror.lefts, mirror.rights, mirror.moves
    slots = []
    for _ in range(n):
        lo = bisect_right(lefts, x, 1) - 1
        if (x - lefts[lo] < guard or rights[lo] - x < guard
                or marks and any(abs(x - g) < guard for g in marks[lo])):
            return slots, x, True
        slots.append(lo)
        x += moves[lo]
        if x < top:
            break
    return slots, x, False


def _guarded(mirror: FloatMirror, slots, points) -> np.ndarray:
    """``_scalar_walk``'s guard rule on arrays: whether each point lies
    within ``guard`` of either end of its slot's interval."""
    lefts, rights, _moves = mirror.arrays
    return ((points - lefts[slots] < mirror.guard)
            | (rights[slots] - points < mirror.guard))


def _marked(mirror: FloatMirror, slots, points, marks) -> np.ndarray:
    """The jump-mark rule on arrays: whether each point lies within
    ``guard`` of a mark (slot, gamma) of its slot, on either side."""
    bad = np.zeros(len(slots), bool)
    for slot, gf in marks:
        bad |= (slots == slot) & (np.abs(points - gf) < mirror.guard)
    return bad


def _tower_table(mirror: FloatMirror) -> TowerTable:
    """Rokhlin towers of the float first-return map to [0, |I| / H).

    The cuts of J are the first backward hits in J of the interior left
    ends and of J's right end; each J-interval's word is walked from its
    midpoint, without the guard, up to its first return.  A cut or word
    not back in J within _TOWER_REACH * H steps is dropped, so the build
    ends on exchanges that are not minimal; their walks then fall back
    to the scalar walk.  The level left ends are one accumulate per tower
    seeded with its base, written in place and sorted once.
    """
    lefts, moves = mirror.lefts, mirror.moves
    top = mirror.rights[-1] / TOWER_HEIGHT
    reach = _TOWER_REACH * TOWER_HEIGHT
    image = sorted((left + move, move) for left, move in zip(lefts, moves))
    image_lefts = [left for left, _move in image]
    image_moves = [move for _left, move in image]

    def back(y):
        return y - image_moves[bisect_right(image_lefts, y, 1) - 1]

    def first_hit(y):
        for _ in range(reach):
            if 0.0 <= y < top:
                return y
            y = back(y)
        return None

    hits = [first_hit(y) for y in (*lefts[1:], back(top))]
    cuts = sorted({0.0, top}.union(c for c in hits if c is not None))
    slot_type = np.min_scalar_type(len(lefts) - 1)
    bases, words = [], []
    for a, b in zip(cuts, cuts[1:]):
        word, end, _hit = _scalar_walk(mirror, (a + b) / 2, reach, top,
                                       -math.inf)
        if 0.0 <= end < top:
            bases.append((a, b))
            words.append(np.array(word, slot_type))
    ends = tuple(accumulate(map(len, words)))
    level_lefts = np.empty(ends[-1] if ends else 0)
    moves_a = mirror.arrays[2]
    for (a, _b), word, end in zip(bases, words, ends):
        seg = level_lefts[end - len(word):end]
        seg[0] = a
        np.take(moves_a, word[:-1], out=seg[1:])
        np.add.accumulate(seg, out=seg)
    starts = level_lefts.argsort(kind="stable").astype(np.int32)
    level_lefts.sort(kind="stable")
    words = np.concatenate(words) if words else _NO_WORD
    return TowerTable(mirror, top, tuple(bases), ends, level_lefts, starts,
                      words)
