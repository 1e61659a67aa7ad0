"""The benchmark's hooks into the library still fit it.

``bench/run.py --trace 1`` wraps named library functions and methods; a
refactor that renames or removes one of them breaks the traced run but
no library test.  ``bench/selftest.py`` shows that every benchmark check
rejects a corrupted result, against the current library.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from iet_lab import cocycles, intmat
from iet_lab.perms import make_symmetric_pair
from iet_lab.rauzy import build_periodic_from_matrix
from iet_lab.repro import FIVE_MATRIX, GROUPED_MATRIX
from iet_lab.shadow import TOWER_HEIGHT

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attribute):
    return owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)


def test_tracer_layers_install_and_uninstall():
    tracer = load("tracer").Tracer()
    try:
        load("run").install_layers(tracer)
        installed = list(tracer._installed)
    finally:
        tracer.uninstall()
    assert installed
    for owner, attribute, original in installed:
        assert current(owner, attribute) is original


def test_traced_walker_counts_its_steps(periodic4):
    tracer = load("tracer").Tracer()
    try:
        load("run").install_layers(tracer)
        # a start on a left endpoint escalates to exact signs at once
        wk = cocycles.ExactWalker(periodic4.iet,
                                  periodic4.iet.lattice.lefts[1])
        wk.run(10000)
    finally:
        tracer.uninstall()
    assert tracer.layers["cocycles.walker"].counts["steps"] == 10000
    assert wk.escalations >= 1
    assert tracer.layers["cocycles.lattice_sign"].calls >= wk.escalations


def test_traced_climb_counts_every_chunk(periodic5):
    """A full depth-2 climb, longer than TOWER_HEIGHT steps, walks in
    tower-predicted chunks; the traced step count is its column sum, as
    each ``exact_orbits`` climb's must be."""
    p = periodic5
    lc, wc = cocycles.depth_interval_coeffs(p, 2, 0)
    coeffs = [1009 * left + 500 * w for left, w in zip(lc, wc)]
    column = [row[0] for row in intmat.matpow(p.step_matrix, 2)]
    assert sum(column) > TOWER_HEIGHT
    tracer = load("tracer").Tracer()
    try:
        load("run").install_layers(tracer)
        wk = cocycles.ExactWalker(p.iet, coeffs, 1009)
        counts = wk.run_until_below(
            [1009 * t for t in cocycles.depth_total_coeffs(p, 2)],
            float(p.step_scale ** -2))
    finally:
        tracer.uninstall()
    assert list(counts) == column
    assert tracer.layers["cocycles.walker"].counts["steps"] == sum(column)


def test_selftest_rejects_every_corruption():
    done = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed"


def test_warm_exact_climbs_are_taken_whole(request, monkeypatch):
    """The ``exact_orbits`` climbs, two by ``run_until_below`` and two by
    ``birkhoff_visit_counts``, from inner lattice points num/1009 of the
    base interval, move by whole certified climbs once the tower tables
    exist: a second run never calls the shadow step, and the counts are
    the period-matrix columns.  A silent fallback to step-by-step moves
    fails here, not only in the benchmark.  (Starts within a few 1/1009
    of the interval's ends climb along level ends, which the bounds do
    not certify.)"""
    climbs = ((4, 4, 3, "return"), (5, 3, 0, "birkhoff"),
              (7, 4, 5, "return"), (7, 3, 2, "birkhoff"))

    def column(p, k, b):
        return [row[b] for row in intmat.matpow(p.step_matrix, k)]

    def climb(p, k, b, how, num):
        lc, wc = cocycles.depth_interval_coeffs(p, k, b)
        coeffs = [1009 * left + num * w for left, w in zip(lc, wc)]
        if how == "birkhoff":
            return cocycles.birkhoff_visit_counts(
                p.iet, (coeffs, 1009), sum(column(p, k, b)))
        wk = cocycles.ExactWalker(p.iet, coeffs, 1009)
        return wk.run_until_below(
            [1009 * t for t in cocycles.depth_total_coeffs(p, k)],
            float(p.step_scale ** -k))

    for d, k, b, how in climbs:  # builds the tables
        climb(request.getfixturevalue(f"periodic{d}"), k, b, how, 500)
    steps = []
    monkeypatch.setattr(cocycles, "shadow_step",
                        lambda *args, **kwargs: steps.append(args[2]))
    for d, k, b, how in climbs:
        p = request.getfixturevalue(f"periodic{d}")
        for num in (101, 500, 907):
            assert list(climb(p, k, b, how, num)) == column(p, k, b)
    assert steps == []


def test_tower_climbs_invert_once_per_system(ctx, monkeypatch):
    """One criterion-4 climb per (system, depth <= 4, letter), made as
    ``tower_climbs`` makes them: on fresh systems, all of them together
    invert each period matrix at most once, and every climb's counts are
    the letter's column of A."""
    systems = [build_periodic_from_matrix(make_symmetric_pair(d), matrix, ctx)
               for d, matrix in ((4, GROUPED_MATRIX), (5, FIVE_MATRIX))]
    inverted = []
    inverse = intmat.inverse_unimodular

    def counted(a):
        inverted.append(a)
        return inverse(a)

    monkeypatch.setattr(intmat, "inverse_unimodular", counted)
    for p in systems:
        for n in range(5):
            thr = cocycles.depth_total_coeffs(p, n + 1)
            for b in range(p.d):
                lc, wc = cocycles.depth_interval_coeffs(p, n + 1, b)
                coeffs = [1009 * left + 500 * w for left, w in zip(lc, wc)]
                wk = cocycles.ExactWalker.at_depth(p, n, coeffs, 1009)
                counts = wk.run_until_below([1009 * t for t in thr],
                                            float(p.step_scale ** -(n + 1)))
                assert list(counts) == [row[b] for row in p.step_matrix]
    assert len(inverted) <= len(systems)
    assert all(inverted.count(p.step_matrix) <= 1 for p in systems)
