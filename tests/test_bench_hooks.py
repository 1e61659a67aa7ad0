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

from iet_lab import cocycles

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


def test_selftest_rejects_every_corruption():
    done = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed"
