"""Reference computations and result checkers for the benchmark.

Everything here is computed apart from ``iet_lab``: matrix powers in
plain Python integers, the loop matrix by an independent replay of the
Rauzy moves, Fibonacci numbers, Lyapunov exponents from ``numpy``
eigenvalues, and plain-integer recounts of the skew-product and
circle-rotation sums.  Each checker takes plain data and returns a list
of problems (empty when the result is correct), so the self-test can
feed it corrupted copies of genuine results.
"""

from __future__ import annotations

import math
from fractions import Fraction

GRID = 1 << 53  # the dyadic circle of iet_lab.rotations


# ---------------------------------------------------------------------------
# plain-integer linear algebra


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(a, n):
    d = len(a)
    out = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(n):
        out = mat_mul(out, a)
    return out


def column(a, j):
    return tuple(row[j] for row in a)


def loop_matrix(pi0, pi1, loop):
    """Product of the Rauzy transition matrices along a closed loop.

    Positions are 1-based.  A move of type e keeps row e; in the other
    row the letter in last position (the loser) is moved to just after
    the letter that is last in row e (the winner).  Its matrix is
    I + E[winner, loser].
    """
    rows = [list(pi0), list(pi1)]
    d = len(pi0)
    prod = [[int(i == j) for j in range(d)] for i in range(d)]
    for e in loop:
        winner = rows[e].index(d)
        other = rows[1 - e]
        loser = other.index(d)
        cut = other[winner]
        rows[1 - e] = [p if p <= cut else (cut + 1 if p == d else p + 1)
                       for p in other]
        step = [[int(i == j) for j in range(d)] for i in range(d)]
        step[winner][loser] = 1
        prod = mat_mul(prod, step)
    if rows != [list(pi0), list(pi1)]:
        raise ValueError("the loop does not return to its starting pair")
    return prod


def lyapunov_theta(a):
    """(theta1, theta2): logs of the two largest eigenvalue moduli."""
    import numpy as np

    moduli = sorted(np.abs(np.linalg.eigvals(np.array(a, dtype=float))),
                    reverse=True)
    return math.log(moduli[0]), math.log(moduli[1])


def fibonacci_upto(n):
    """Convergent denominators of the golden rotation: 1, 2, 3, 5, ..."""
    out = [1, 2]
    while out[-1] + out[-2] <= n:
        out.append(out[-1] + out[-2])
    return out


# ---------------------------------------------------------------------------
# plain-integer recounts


def dk_grid_start(seed, j):
    """Start of the j-th Denjoy-Koksma sample: a seeded golden Kronecker point."""
    golden = (math.sqrt(5) - 1) / 2
    t = ((seed % 997) / 997 + 0.0112358 + j * golden) % 1.0
    return int(t * GRID) & (GRID - 1)


def dk_recount(step, x0, qs):
    """Sums S_q of the half indicator at each q, as exact fractions.

    The function is +1/2 on [0, 1/2) and -1/2 on [1/2, 1), so its
    variation is 2; the walk adds +-1 and halves at the end.
    """
    wanted = set(qs)
    out = {}
    s = 0
    x = x0
    for n in range(1, max(qs) + 1):
        s += 1 if x < GRID >> 1 else -1
        x = (x + step) % GRID
        if n in wanted:
            out[n] = Fraction(s, 2)
    return out


def skew_recount(lefts, moves, values, x0, n_steps, checkpoints):
    """Float orbit of x0 carrying an integer step cocycle, recounted.

    ``lefts``, ``moves`` and ``values`` are listed in position order.
    Returns (sums at the checkpoints, number of exact returns to 0,
    minimum max-norm of the displacement).
    """
    wanted = set(checkpoints)
    dim = len(values[0])
    disp = [0] * dim
    sums = {}
    zero_returns = 0
    best = None
    x = x0
    d = len(lefts)
    for n in range(1, n_steps + 1):
        lo = 0
        while lo + 1 < d and lefts[lo + 1] <= x:
            lo += 1
        disp = [s + v for s, v in zip(disp, values[lo])]
        x += moves[lo]
        norm = max(abs(v) for v in disp)
        best = norm if best is None else min(best, norm)
        if norm == 0:
            zero_returns += 1
        if n in wanted:
            sums[n] = tuple(disp)
    return sums, zero_returns, best


# ---------------------------------------------------------------------------
# checkers


def check_induced_return(counts, a, letter):
    """Visit counts of one induced return = the letter's column of A."""
    expect = column(a, letter)
    if tuple(counts) != expect:
        return [f"induced return of letter {letter}: counts {tuple(counts)} "
                f"!= column {expect}"]
    return []


def check_climb_value(counts, a_n, a_n1, letter, vector):
    """Climb value sum_i (A^n counts)_i v_i = ((A^(n+1))^T v)[letter]."""
    d = len(vector)
    combined = [sum(a_n[i][j] * counts[j] for j in range(d)) for i in range(d)]
    value = sum(c * v for c, v in zip(combined, vector))
    expect = sum(a_n1[i][letter] * vector[i] for i in range(d))
    if value != expect:
        return [f"climb value {value} != (A^(n+1))^T v = {expect}"]
    return []


def check_full_climb(counts, steps, a_k, letter):
    """A full tower climb visits each letter as often as A^k says."""
    expect = column(a_k, letter)
    problems = []
    if tuple(counts) != expect:
        problems.append(f"climb counts {tuple(counts)} != column {expect}")
    if steps != sum(expect):
        problems.append(f"climb length {steps} != column sum {sum(expect)}")
    return problems


def check_correction(corrected_sups, raw_sups, drift, drift_tail, agree,
                     agree_tail, theta2, sup_bound):
    """Criterion-6 properties of the correction of a step cocycle."""
    problems = []
    if max(corrected_sups) > sup_bound:
        problems.append(f"corrected sup {max(corrected_sups)} > {sup_bound}")
    k = len(raw_sups) - 1
    half = k // 2
    factor = (raw_sups[k] / raw_sups[half]) ** (1.0 / (k - half))
    if factor < math.exp(theta2):
        problems.append(f"uncorrected growth {factor} < exp(theta2) "
                        f"= {math.exp(theta2)}")
    if drift > drift_tail:
        problems.append(f"series drift {drift} > certified tail {drift_tail}")
    if agree > agree_tail:
        problems.append(f"direct and series routes differ by {agree} "
                        f"> tail {agree_tail}")
    return problems


def check_probe(pieces, letter_vectors):
    """Fixed-space climbs: every sub-tower value is the fixed vector itself.

    ``pieces`` are (letter, value, clean) triples.  A^T v = v, so the
    climb of any depth over the tower of letter a sums to v_a.
    """
    problems = []
    if not pieces:
        problems.append("essential-value probe returned no pieces")
    for letter, value, clean in pieces:
        if tuple(value) != tuple(letter_vectors[letter]) or not clean:
            problems.append(f"sub-tower value {value} of letter {letter} "
                            f"!= fixed vector entry {letter_vectors[letter]}")
    return problems


def check_distinct_eigenvalues(a):
    """Distinct eigenvalue moduli: no Jordan block, so M = 1."""
    import numpy as np

    moduli = sorted(np.abs(np.linalg.eigvals(np.array(a, dtype=float))))
    if min(y - x for x, y in zip(moduli, moduli[1:])) < 1e-6:
        return ["period matrix has a repeated eigenvalue modulus"]
    return []


def check_fixed_vector(a, letter_vectors):
    """The integer cocycle really is fixed by the transpose matrix."""
    d = len(a)
    k = len(letter_vectors[0])
    for c in range(k):
        v = [letter_vectors[i][c] for i in range(d)]
        image = [sum(a[i][j] * v[i] for i in range(d)) for j in range(d)]
        if image != v:
            return [f"cocycle coordinate {c} is not fixed by A^T"]
    return []


def check_deviation(aborted, used, samples, exponents, pl_count, pl_bound,
                    stable_bound):
    problems = []
    if aborted or used != samples:
        problems.append(f"deviation sweep aborted {aborted} of {samples} samples")
    for i, e in enumerate(exponents):
        bound = pl_bound if i < pl_count else stable_bound
        if not e <= bound:
            problems.append(f"cocycle {i}: corrected exponent {e} > {bound}")
    return problems


def check_skew(skipped, min_norms, samples):
    problems = []
    if skipped or len(min_norms) != samples:
        problems.append(f"skew simulation skipped {skipped} of {samples} samples")
    for i, m in enumerate(min_norms):
        if m != 0:
            problems.append(f"skew sample {i} never returns to 0 "
                            f"(min norm {m})")
    return problems


def check_skew_oracle(recount_sums, mpf_sums, recount_stats, lane_stats):
    """Integer recount = mpf Birkhoff sums, and = the float lane's stats."""
    problems = []
    for n, s in recount_sums.items():
        if tuple(s) != tuple(mpf_sums[n]):
            problems.append(f"skew sum at n={n}: recount {s} != "
                            f"mpf lane {mpf_sums[n]}")
    if tuple(recount_stats) != tuple(lane_stats):
        problems.append(f"skew statistics (zero returns, min norm) "
                        f"{tuple(lane_stats)} != recount {tuple(recount_stats)}")
    return problems


def check_dk(denominators, max_abs, variation, violations, used, samples,
             fib, recounts):
    """Denjoy-Koksma: |S_q| <= Var at every Fibonacci q.

    ``max_abs`` maps q to the largest |S_q| over the program's samples;
    ``recounts`` maps q to |S_q| recounted for a few of the same starts,
    which can never exceed the program's maximum.
    """
    problems = []
    if list(denominators) != list(fib):
        problems.append(f"denominators {list(denominators)[:8]}... are not "
                        f"the Fibonacci numbers {fib[:8]}...")
    if variation != 2 or violations or used != samples:
        problems.append(f"variation {variation}, violations {violations}, "
                        f"samples {used}/{samples}")
    for q, v in max_abs.items():
        if v > variation:
            problems.append(f"|S_{q}| = {v} > Var = {variation}")
    for q, sums in recounts.items():
        for s in sums:
            if abs(s) > 2 or abs(s) > max_abs.get(q, 0):
                problems.append(f"recounted |S_{q}| = {abs(s)} exceeds Var = 2 "
                                f"or the reported max {max_abs.get(q)}")
    return problems
