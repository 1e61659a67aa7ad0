"""Bundled benchmark cases with closed-form cross-checks.

Each case rebuilds its objects from primitive inputs (a permutation
pair plus either an induction loop or an integer matrix), computes the
quantities through the regular pipeline, and scores them against
independent closed forms.  A case fails closed: any delta over its
tolerance fails the case.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .cocycles import ExactWalker, StepCocycle
from .ergodicity import (COBOUNDARY, NOT_COBOUNDARY, coboundary_classify,
                         lattice_containment)
from .errors import DomainError
from .perms import PermutationPair, make_pair, make_symmetric_pair
from .precision import PrecisionContext, kronecker_samples
from .rauzy import (Iet, PeriodicIet, build_periodic_from_loop,
                    build_periodic_from_matrix, iterate_induction, rauzy_step)
from .spectral import lyapunov_spectrum, singularity_data, splitting

# seven-letter system: symmetric-style pair with a 30-move closed path
SEVEN_PAIR_BOTTOM = (6, 7, 4, 5, 3, 1, 2)
SEVEN_LOOP = (1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1,
              0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1)
SEVEN_LOOP_MATRIX = ((9, 8, 20, 20, 15, 5, 5),
                     (1, 2, 4, 4, 3, 2, 2),
                     (2, 2, 6, 5, 4, 1, 1),
                     (2, 2, 5, 6, 4, 1, 1),
                     (1, 1, 2, 2, 2, 0, 0),
                     (2, 2, 4, 4, 3, 2, 1),
                     (1, 1, 3, 3, 2, 1, 2))
GROUPED_MATRIX = ((10, 24, 18, 7),
                  (4, 11, 8, 2),
                  (1, 2, 2, 0),
                  (3, 7, 5, 3))
# groups of seven-letter lengths forming the four-letter system
GROUPING = ((0, 1), (2, 3), (4,), (5, 6))

# five-letter system with a rank-one integer fixed space
FIVE_MATRIX = ((18, 28, 31, 38, 18),
               (10, 16, 8, 9, 6),
               (13, 20, 36, 46, 18),
               (2, 3, 16, 22, 6),
               (39, 61, 63, 77, 37))


def seven_letter_pair() -> PermutationPair:
    return make_pair(tuple(range(1, 8)), SEVEN_PAIR_BOTTOM)


def family_matrix(n: int):
    """The four-letter loop-product family indexed by n >= 1."""
    if n < 1:
        raise DomainError("family index must be >= 1")
    return ((1, 1, 1, 1),
            (n, n + 1, 0, 0),
            (0, 0, 2, 1),
            (n + 1, n + 2, 2, 2))


@dataclass(frozen=True)
class ReproEntry:
    name: str
    computed: str
    reference: str
    delta: float
    tolerance: float
    passed: bool
    provenance: str


@dataclass(frozen=True)
class ReproReport:
    case: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {"case": self.case,
                "ok": self.ok,
                "entries": [{"name": e.name, "computed": e.computed,
                             "reference": e.reference, "delta": e.delta,
                             "tolerance": e.tolerance, "passed": e.passed,
                             "provenance": e.provenance}
                            for e in self.entries]}

    def to_table(self) -> str:
        lines = [f"case {self.case}: {'PASS' if self.ok else 'FAIL'}"]
        for e in self.entries:
            mark = "ok " if e.passed else "FAIL"
            lines.append(f"  [{mark}] {e.name}: {e.computed} vs {e.reference}"
                         f" (delta {e.delta:.3e}, tol {e.tolerance:.1e})")
        return "\n".join(lines)


def _entry(name, computed, reference, delta, tol, provenance) -> ReproEntry:
    return ReproEntry(name, str(computed), str(reference), float(delta),
                      float(tol), float(delta) <= float(tol), provenance)


def _exact_entry(name, ok, computed, reference, provenance) -> ReproEntry:
    return ReproEntry(name, str(computed), str(reference),
                      0.0 if ok else 1.0, 0.0, bool(ok), provenance)


def grouped_exchange(periodic7: PeriodicIet) -> Iet:
    """The four-letter exchange obtained by merging adjacent intervals."""
    ctx = periodic7.ctx
    lam = [ctx.mp.fsum(periodic7.lengths[i] for i in group)
           for group in GROUPING]
    return Iet(make_symmetric_pair(4), ctx.vector(lam))


def detect_period_matrix(iet: Iet, rho):
    """Run induction until the exchange returns to itself scaled by rho,
    within 400 steps.

    Returns (theta_product, steps_used).  This computes the period
    matrix from the dynamics alone, without assuming it.
    """
    ctx = iet.ctx
    current = iet
    theta = intmat.identity(iet.d)
    for step_no in range(1, 401):
        step, current = rauzy_step(current)
        theta = intmat.matmul(theta, step.theta)
        if current.pair == iet.pair:
            ratios = [iet.lengths[a] / current.lengths[a] for a in range(iet.d)]
            spread = max(ratios) - min(ratios)
            if spread < ctx.eps_cmp * 64 and abs(ratios[0] - rho) < ctx.eps_cmp * 64:
                return theta, step_no
    raise DomainError("no period detected within the step budget")


def example_7_2(ctx: PrecisionContext | None = None) -> ReproReport:
    """Seven-letter loop system and its four-letter grouping."""
    ctx = ctx or PrecisionContext(128)
    mp = ctx.mp
    entries = []
    p7 = build_periodic_from_loop(seven_letter_pair(), SEVEN_LOOP, ctx)
    entries.append(_exact_entry(
        "loop product matrix", p7.matrix == SEVEN_LOOP_MATRIX,
        p7.matrix[0], SEVEN_LOOP_MATRIX[0], "printed 7x7 matrix"))
    sq = intmat.matpow(p7.matrix, 2)
    entries.append(_exact_entry(
        "square strictly positive", all(x > 0 for row in sq for x in row),
        p7.positive_power, 2, "stated positivity of the square"))
    # dynamical replay: induction from the eigen-lengths follows the loop
    run = iterate_induction(p7.iet, len(SEVEN_LOOP))
    entries.append(_exact_entry(
        "loop word reproduced dynamically", run.eps_word == SEVEN_LOOP,
        list(run.eps_word[:8]), list(SEVEN_LOOP[:8]), "loop definition"))
    # grouped four-letter system: period matrix computed from dynamics
    iet4 = grouped_exchange(p7)
    theta4, steps4 = detect_period_matrix(iet4, p7.pf_value)
    entries.append(_exact_entry(
        "grouped period matrix", theta4 == GROUPED_MATRIX,
        theta4[0], GROUPED_MATRIX[0], "printed 4x4 matrix"))
    p4 = build_periodic_from_matrix(make_symmetric_pair(4), GROUPED_MATRIX, ctx)
    # leading eigenvalue against the nested closed form
    closed_rho1 = mp.mpf(13) / 2 + mp.sqrt(115) / 2 + mp.sqrt(280 + 26 * mp.sqrt(115)) / 2
    closed_rho2 = mp.mpf(13) / 2 - mp.sqrt(115) / 2 + mp.sqrt(280 - 26 * mp.sqrt(115)) / 2
    rel_tol = mp.mpf(10) ** (-25)
    spec4 = lyapunov_spectrum(GROUPED_MATRIX, ctx)
    rho1 = mp.e ** spec4.theta1
    rho2 = mp.e ** spec4.theta2
    entries.append(_entry("leading eigenvalue", ctx.str_of(rho1, 30),
                          ctx.str_of(closed_rho1, 30),
                          abs(rho1 - closed_rho1) / closed_rho1, rel_tol,
                          "nested radical closed form"))
    entries.append(_entry("second eigenvalue", ctx.str_of(rho2, 30),
                          ctx.str_of(closed_rho2, 30),
                          abs(rho2 - closed_rho2) / closed_rho2, rel_tol,
                          "nested radical closed form"))
    ratio = spec4.ratio21
    entries.append(_entry("exponent ratio", ctx.str_of(ratio, 8), "0.164",
                          abs(ratio - mp.mpf("0.164")), mp.mpf("5e-4"),
                          "stated two-decimal ratio"))
    # the grouped eigenvector agrees with the grouped lengths
    dev = max(abs(ctx.mp.fsum(p7.lengths[i] for i in GROUPING[a])
                  - p4.lengths[a]) for a in range(4))
    entries.append(_entry("grouped lengths are the eigenvector",
                          ctx.str_of(dev, 6), "0",
                          dev, mp.mpf(2) ** (-(ctx.bits // 2)),
                          "grouping consistency"))
    # the seven-letter exchange refines the grouped one pointwise
    same = _refinement_agrees(p7, iet4, ctx)
    entries.append(_exact_entry("refinement acts identically", same,
                                same, True, "pointwise comparison"))
    # interior marks land strictly inside grouped intervals
    g_marks = _interior_marks(p7)
    inside = all(any(iet4.left[a] < g < iet4.right[a] - 0 for a in range(4))
                 for g in g_marks)
    entries.append(_exact_entry("interior marks avoid grouped endpoints",
                                inside, inside, True,
                                "refinement of the grouped system"))
    return ReproReport("example-7-2", tuple(entries))


def _interior_marks(p7: PeriodicIet) -> list:
    """Positions of the seven-letter endpoints interior to the groups."""
    lam = p7.lengths
    mp = p7.ctx.mp
    marks = []
    for group in GROUPING:
        for cut in range(1, len(group)):
            prefix_letters = [i for g in GROUPING[:GROUPING.index(group)] for i in g]
            inner = list(group[:cut])
            marks.append(mp.fsum(lam[i] for i in prefix_letters + inner))
    return marks


def _refinement_agrees(p7: PeriodicIet, iet4: Iet, ctx) -> bool:
    """Both exchanges move each of 50 Kronecker samples alike, within
    16 eps_cmp: one exact step of each, every sample compared."""
    samples = kronecker_samples(ctx, 50, iet4.total, seed=7)
    gaps = [abs(_image(p7.iet, x) - _image(iet4, x)) for x in samples]
    return len(gaps) == 50 and max(gaps) <= ctx.eps_cmp * 16


def _image(iet: Iet, x):
    walker = ExactWalker.from_point(iet, x)
    walker.step()
    return walker.point()


def appendix_b(n_values=None, ratio_scan: int = 100,
               far_index: int = 10_000,
               ctx: PrecisionContext | None = None) -> ReproReport:
    """Eigenvalue closed forms for the four-letter loop family."""
    ctx = ctx or PrecisionContext(128)
    mp = ctx.mp
    entries = []
    n_values = list(n_values) if n_values is not None else list(range(1, 11))
    rel_tol = mp.mpf(2) ** (-64)
    for n in n_values:
        m = family_matrix(n)
        spec = lyapunov_spectrum(m, ctx)
        roots = sorted((mp.e ** t for t in spec.exponents), reverse=True)
        s = mp.sqrt(n * n + 4)
        a_plus = (n + 6 + s) / 2
        a_minus = (n + 6 - s) / 2
        closed = sorted([(a_plus + mp.sqrt(a_plus ** 2 - 4)) / 2,
                         (a_minus + mp.sqrt(a_minus ** 2 - 4)) / 2,
                         (a_minus - mp.sqrt(a_minus ** 2 - 4)) / 2,
                         (a_plus - mp.sqrt(a_plus ** 2 - 4)) / 2], reverse=True)
        worst = max(abs(r - c) / c for r, c in zip(roots, closed))
        entries.append(_entry(f"eigenvalues n={n}", ctx.str_of(roots[0], 20),
                              ctx.str_of(closed[0], 20), worst, rel_tol,
                              "half-trace closed forms"))
        # transcription self-check: the two half-traces multiply to 3n+8
        prod = a_plus * a_minus
        entries.append(_entry(f"half-trace product n={n}",
                              ctx.str_of(prod, 12), str(3 * n + 8),
                              abs(prod - (3 * n + 8)), mp.mpf(2) ** (-100),
                              "algebraic identity"))
    ratios = [_family_ratio(n, mp) for n in range(1, ratio_scan + 1)]
    decreasing = all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    peak = max(range(len(ratios)), key=lambda i: ratios[i]) + 1
    entries.append(_exact_entry(
        f"ratio strictly decreasing 1..{ratio_scan}"
        + ("" if decreasing else f" (computed sequence peaks at n={peak};"
           " monotone only beyond it)"),
        decreasing, [round(float(r), 6) for r in ratios[:3]],
        "strictly decreasing", "computed ratio sequence"))
    dec_tail = all(ratios[i] > ratios[i + 1]
                   for i in range(peak - 1, len(ratios) - 1))
    entries.append(_exact_entry(
        f"ratio strictly decreasing {peak}..{ratio_scan}", dec_tail,
        dec_tail, True, "computed ratio sequence"))
    far = _family_ratio(far_index, mp)
    entries.append(_entry(f"ratio at n={far_index}", ctx.str_of(far, 8),
                          "< 0.11", max(mp.mpf(0), far - mp.mpf("0.11")),
                          mp.mpf(0), "computed value"))
    return ReproReport("appendix-b", tuple(entries))


def _family_ratio(n: int, mp):
    """Exponent ratio of the n-th family member via the half-trace forms."""
    s = mp.sqrt(n * n + 4)
    a_plus = (n + 6 + s) / 2
    a_minus = (n + 6 - s) / 2
    rho1 = (a_plus + mp.sqrt(a_plus ** 2 - 4)) / 2
    rho2 = (a_minus + mp.sqrt(a_minus ** 2 - 4)) / 2
    return mp.log(rho2) / mp.log(rho1)


def appendix_d(ctx: PrecisionContext | None = None) -> ReproReport:
    """Five-letter system: eigen table, coboundary split, lattice trap."""
    ctx = ctx or PrecisionContext(128)
    mp = ctx.mp
    entries = []
    pair = make_symmetric_pair(5)
    p5 = build_periodic_from_matrix(pair, FIVE_MATRIX, ctx)
    sq21 = mp.sqrt(21)
    sq5 = mp.sqrt(5)
    rel_tol = mp.mpf(10) ** (-25)
    closed_rho = 55 + 12 * sq21
    entries.append(_entry("leading eigenvalue", ctx.str_of(p5.pf_value, 30),
                          ctx.str_of(closed_rho, 30),
                          abs(p5.pf_value - closed_rho) / closed_rho, rel_tol,
                          "quadratic closed form"))
    lam_closed = (1 + sq21, 2, 1 + sq21, 2, 7 + sq21)
    total = mp.fsum(lam_closed)
    dev = max(abs(p5.lengths[a] - lam_closed[a] / total) for a in range(5))
    entries.append(_entry("leading eigenvector", ctx.str_of(dev, 6), "0",
                          dev, mp.mpf(2) ** (-(ctx.bits // 2)),
                          "printed eigenvector"))
    # transpose eigen table
    at = intmat.mat_transpose(FIVE_MATRIX)
    table = [
        ("rho1", 55 + 12 * sq21, (-1 + sq21, 1 + sq21, 3 + sq21, 5 + sq21, 4)),
        ("rho2", 9 + 4 * sq5, (-2, -1 - sq5, 2, 1 + sq5, 0)),
        ("rho3", mp.mpf(1), (-1, -2, 0, -1, 1)),
        ("rho4", 9 - 4 * sq5, (-2, -1 + sq5, 2, 1 - sq5, 0)),
        ("rho5", 55 - 12 * sq21, (-1 - sq21, 1 - sq21, 3 - sq21, 5 - sq21, 4)),
    ]
    for name, rho, vec in table:
        image = [mp.fsum(at[i][j] * vec[j] for j in range(5)) for i in range(5)]
        dev = max(abs(image[i] - rho * vec[i]) for i in range(5))
        entries.append(_entry(f"transpose eigenpair {name}", ctx.str_of(dev, 6),
                              "0", dev, mp.mpf(2) ** (-(ctx.bits - 24)),
                              "printed eigen table"))
    v3 = (-1, -2, 0, -1, 1)
    fixed = tuple(intmat.mat_vec(at, v3)) == v3
    entries.append(_exact_entry("integer fixed vector", fixed,
                                intmat.mat_vec(at, v3), v3,
                                "unit eigenvalue row"))
    sdata = singularity_data(pair)
    split = splitting(FIVE_MATRIX, p5.lengths, ctx, kappa=sdata.kappa)
    v2 = (-2, -1 - sq5, 2, 1 + sq5, 0)
    v4 = (-2, -1 + sq5, 2, 1 - sq5, 0)
    cls2 = coboundary_classify(v2, split, p5)
    cls4 = coboundary_classify(v4, split, p5)
    entries.append(_exact_entry("contracting vector is a coboundary",
                                cls4 == COBOUNDARY, cls4, COBOUNDARY,
                                "growth classification"))
    entries.append(_exact_entry("expanding vector is not a coboundary",
                                cls2 == NOT_COBOUNDARY, cls2, NOT_COBOUNDARY,
                                "growth classification"))
    plus = StepCocycle.from_vector(tuple(a + b for a, b in zip(v2, v4)))
    minus = StepCocycle.from_vector(tuple(a - b for a, b in zip(v2, v4)))
    rep_plus = lattice_containment(plus, (1,), ctx)
    rep_minus = lattice_containment(minus, (sq5,), ctx)
    entries.append(_exact_entry("sum lands in the integer lattice",
                                rep_plus.contained[0], rep_plus.contained[0],
                                True, "printed eigenvector arithmetic"))
    entries.append(_exact_entry("difference lands in the sqrt5 lattice",
                                rep_minus.contained[0], rep_minus.contained[0],
                                True, "printed eigenvector arithmetic"))
    trapped = rep_plus.contained[0] and rep_minus.contained[0] \
        and cls2 == NOT_COBOUNDARY
    entries.append(_exact_entry(
        "verdict: essential values trapped to {0}, not a coboundary "
        "(non-regular)", trapped, trapped, True,
        "lattice intersection argument"))
    return ReproReport("appendix-d", tuple(entries))


def run_case(case: str, ctx: PrecisionContext | None = None) -> list:
    """Run one named case (or 'all'); returns a list of reports."""
    cases = {"example-7-2": example_7_2,
             "appendix-b": appendix_b,
             "appendix-d": appendix_d}
    if case == "all":
        return [fn(ctx=ctx) for fn in cases.values()]
    if case not in cases:
        raise DomainError(f"unknown case {case!r}; choose from "
                          f"{sorted(cases)} or 'all'")
    return [cases[case](ctx=ctx)]
