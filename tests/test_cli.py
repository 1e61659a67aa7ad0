"""Command-line dispatch, formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet_lab import intmat, spectral
from iet_lab.cli import run
from iet_lab.cocycles import ExactWalker, cocycle_from_json
from iet_lab.errors import IetLabError
from iet_lab.precision import PrecisionContext
from iet_lab.rauzy import iet_from_json

SEVEN_SPEC = {"pair": {"d": 7, "pi0": [1, 2, 3, 4, 5, 6, 7],
                       "pi1": [6, 7, 4, 5, 3, 1, 2]},
              "loop": [1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1,
                       0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1]}
FOUR_SPEC = {"pair": {"d": 4, "pi0": [1, 2, 3, 4], "pi1": [4, 3, 2, 1]},
             "periodic_matrix": [["10", "24", "18", "7"],
                                 ["4", "11", "8", "2"],
                                 ["1", "2", "2", "0"],
                                 ["3", "7", "5", "3"]]}
FIVE_SPEC = {"pair": {"d": 5, "pi0": [1, 2, 3, 4, 5], "pi1": [5, 4, 3, 2, 1]},
             "periodic_matrix": [["18", "28", "31", "38", "18"],
                                 ["10", "16", "8", "9", "6"],
                                 ["13", "20", "36", "46", "18"],
                                 ["2", "3", "16", "22", "6"],
                                 ["39", "61", "63", "77", "37"]]}
BUNDLED_SPECS = Path(__file__).resolve().parent.parent / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
STEP_SPEC = {"kind": "step", "dim": 1,
             "values": [["1.0"], ["-1.0"], ["2.0"], ["-0.5"]],
             "extra_discontinuities": [{"gamma": "0.21", "jump": ["1.5"]}]}


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, doc in (("seven", SEVEN_SPEC), ("four", FOUR_SPEC),
                      ("five", FIVE_SPEC), ("step", STEP_SPEC)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths

NAN_STEP = json.dumps({"kind": "step", "values": [["nan"], ["1"], ["2"],
                                                  ["-1"]]})
HUGE_STEP = json.dumps({"kind": "step", "values": [["1e308"]] * 4})


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_repro_seven_letter(self, capsys):
        code, out = capture(capsys, ["repro", "--case", "example-7-2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["ok"] is True

    def test_spectrum_from_iet(self, capsys, specs):
        code, out = capture(capsys, ["spectrum", "--iet", specs["five"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["splitting"]["dims"] == [2, 1, 2]
        assert doc["result"]["singularities"]["kappa"] == 2

    def test_spectrum_analyses_the_matrix_once(self, capsys, monkeypatch):
        # every squarefree part of the characteristic polynomial is split
        # once per command, not once for the spectrum and once for the
        # splitting
        calls = []
        split = spectral._split_squarefree
        monkeypatch.setattr(spectral, "_split_squarefree",
                            lambda f: calls.append(tuple(f)) or split(f))
        specs = [spec for spec in sorted(BUNDLED_SPECS.glob("*.json"))
                 if "pair" in json.loads(spec.read_text())]
        assert len(specs) == 3
        for spec in specs:
            matrix = iet_from_json(json.loads(spec.read_text()),
                                   PrecisionContext()).matrix
            calls.clear()
            spectral._factor_charpoly(intmat.charpoly(matrix))
            parts = sorted(calls)
            calls.clear()
            code, _out = capture(capsys, ["spectrum", "--iet", str(spec)])
            assert code == 0
            assert sorted(calls) == parts and parts

    def test_rauzy_steps(self, capsys, specs):
        code, out = capture(capsys, ["rauzy", "--iet", specs["seven"],
                                     "--steps", "30"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["theta"][0] == ["9", "8", "20", "20", "15", "5", "5"]

    def test_build(self, capsys, specs):
        code, out = capture(capsys, ["build", "--iet", specs["four"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["loop_verified"] is False
        assert doc["result"]["positive_power"] == 2

    def test_classify(self, capsys, specs):
        code, out = capture(capsys, ["classify", "--iet", specs["five"],
                                     "--vector=-1,-2,0,-1,1"])
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "CentralUndetermined"

    def test_correct(self, capsys, specs):
        code, out = capture(capsys, ["correct", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--zero-mean",
                                     "--depth", "8", "--k-max", "6"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["h"][0]) == 4
        assert len(doc["result"]["growth_corrected"]) == 7

    def test_deviation_csv(self, capsys, specs):
        code, out = capture(capsys, ["deviation", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n-max", "2000", "--samples", "3",
                                     "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,sup_norm"
        assert lines[2].startswith("1,")

    def test_essential_values_fixed_space(self, capsys, specs):
        code, out = capture(capsys, ["essential-values", "--iet",
                                     specs["five"], "--fixed-space",
                                     "--n-max", "4"])
        assert code == 0
        doc = json.loads(out)
        values = {tuple(c["value"]) for c in doc["result"]["candidates"]}
        assert len(values) >= 4

    def test_simulate(self, capsys, specs):
        code, out = capture(capsys, ["simulate", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n", "2000", "--samples", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["n_steps"] == 2000

    def test_simulate_csv_histogram(self, capsys, specs):
        code, out = capture(capsys, ["simulate", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n", "500", "--samples", "3",
                                     "--format", "csv"])
        assert code == 0
        assert "bin,count" in out

    def test_simulate_repeated_eps_counts_once(self, capsys):
        hits = []
        for eps in ("0.5", "0.5,0.5"):
            code, out = capture(capsys, [
                "simulate", "--iet",
                str(BUNDLED_SPECS / "five_letter_matrix.json"), "--cocycle",
                str(BUNDLED_SPECS / "fixed_space_cocycle.json"), "--n", "1000",
                "--samples", "2", "--eps", eps])
            assert code == 0
            hits.append(json.loads(out)["result"]["hits"])
        assert hits[0] == hits[1] == {"0.5": 519}

    def test_rotations_dk(self, capsys):
        code, out = capture(capsys, ["rotations", "--mode", "dk",
                                     "--n", "10000", "--depth", "15",
                                     "--samples", "10"])
        assert code == 0
        assert json.loads(out)["result"]["violations"] == 0

    def test_rotations_product(self, capsys):
        code, out = capture(capsys, ["rotations", "--mode", "product",
                                     "--n", "50000"])
        assert code == 0
        assert json.loads(out)["result"]["zero_returns"] > 0

    def test_spectrum_from_matrix_file(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(FIVE_SPEC["periodic_matrix"]))
        code, out = capture(capsys, ["spectrum", "--matrix", str(m)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["spectrum"]["zero_multiplicity"] == 1

    @pytest.mark.parametrize("matrix, exponents", [
        ([[1, 1], [1, 0]], [math.log((1 + math.sqrt(5)) / 2),
                            -math.log((1 + math.sqrt(5)) / 2)]),
        ([[2, 0, 2], [1, 2, 0], [0, 2, 3]],
         [math.log(4), math.log(2), math.log(2)]),
        ([[3]], [math.log(3)]),
    ], ids=["golden-quadratic", "cubic-with-quadratic", "one-by-one"])
    def test_spectrum_of_non_reciprocal_factor(self, capsys, tmp_path, matrix,
                                               exponents):
        m = tmp_path / "m.json"
        m.write_text(json.dumps([[str(x) for x in row] for row in matrix]))
        code, out = capture(capsys, ["spectrum", "--matrix", str(m)])
        assert code == 0
        got = json.loads(out)["result"]["spectrum"]["exponents"]
        assert [float(e) for e in got] == pytest.approx(exponents, abs=1e-12)

    def test_deviation_with_workers(self, capsys, specs):
        results = []
        for threads in ("2", "1"):
            code, out = capture(capsys, ["deviation", "--iet", specs["four"],
                                         "--cocycle", specs["step"],
                                         "--n-max", "2000", "--samples", "4",
                                         "--threads", threads])
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]

    def test_birkhoff_csv(self, capsys, specs):
        code, out = capture(capsys, ["birkhoff", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n", "200", "--format", "csv"])
        assert code == 0
        assert "n,sup_norm" in out

    def test_birkhoff_walks_each_segment_once(self, capsys, specs,
                                              monkeypatch):
        walkers = []
        from_point = ExactWalker.from_point.__func__

        def recorded(cls, iet, x):
            walkers.append(from_point(cls, iet, x))
            return walkers[-1]

        monkeypatch.setattr(ExactWalker, "from_point", classmethod(recorded))
        code, _out = capture(capsys, ["birkhoff", "--iet", specs["four"],
                                      "--cocycle", specs["step"],
                                      "--n", "2000"])
        assert code == 0
        # one walk of all 2000 steps (the jump's exact location walks none)
        steps = [wk.steps for wk in walkers]
        assert sum(steps) == max(steps) == 2000


class TestErrors:
    def test_unknown_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        "--seed 4 rotations --mode three-distance --n 10",
        "--format csv rotations --mode three-distance --n 10",
        "--precision-bits -5 spectrum --matrix {four}",
    ], ids=["seed-before-command", "format-before-command",
            "precision-bits-before-command"])
    def test_option_before_command_usage_exit(self, capsys, specs, argv):
        with pytest.raises(SystemExit) as info:
            run(argv.format(**specs).split())
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_is_domain_error(self, capsys):
        code = run(["build", "--iet", "/nonexistent/x.json"])
        assert code == 1

    def test_non_periodic_input_rejected(self, capsys, tmp_path):
        p = tmp_path / "plain.json"
        p.write_text(json.dumps({"pair": FOUR_SPEC["pair"],
                                 "lambda": ["0.4", "0.3", "0.2", "0.1"]}))
        code = run(["build", "--iet", str(p)])
        assert code == 1

    @pytest.mark.parametrize("command, content, named", [
        ("build --iet {bad}", json.dumps({"pair": {"d": 4}}), "'pi0'"),
        ("build --iet {bad}", "{not json", "not valid JSON"),
        ("deviation --iet {four} --cocycle {bad}",
         json.dumps({"kind": "step"}), "'values'"),
        ("birkhoff --iet {four} --cocycle {step} --n 0", "", ">= 1"),
        ("deviation --iet {four} --cocycle {step} --n-max 0", "", ">= 1"),
        ("simulate --iet {four} --cocycle {step} --eps a", "", "--eps"),
        ("classify --iet {five} --vector a,b", "", "--vector"),
        ("spectrum --matrix {bad}", json.dumps([["1", "x"], ["0", "1"]]),
         "matrix file"),
        ("rotations --mode product --n 0", "", ">= 1"),
        ("rotations --mode product --n -5", "", ">= 1"),
        ("spectrum --matrix {bad} --pair {bad}", json.dumps([[2, 1], [1, 1]]),
         "JSON object"),
        ("rotations --mode three-distance --n 0", "", ">= 1"),
        ("rotations --mode three-distance --n -5", "", ">= 1"),
        ("rotations --mode dk --samples -3", "", ">= 0"),
        ("simulate --iet {four} --cocycle {step} --samples -1", "", ">= 1"),
        ("deviation --iet {four} --cocycle {step} --samples 0", "", ">= 1"),
        ("deviation --iet {four} --cocycle {step} --samples -2", "", ">= 1"),
        ("simulate --iet {four} --cocycle {step} --n 0", "", ">= 1"),
        ("birkhoff --iet {five} --cocycle {step}", "", "4 value rows"),
        ("deviation --iet {five} --cocycle {step}", "", "4 value rows"),
        ("deviation --iet {five} --cocycle {step} --zero-mean", "",
         "4 value rows"),
        ("simulate --iet {five} --cocycle {step}", "", "4 value rows"),
        ("correct --iet {five} --cocycle {step} --zero-mean", "",
         "4 value rows"),
        ("essential-values --iet {five} --cocycle {step}", "",
         "4 value rows"),
        ("deviation --iet {five} --cocycle {bad}",
         json.dumps({"kind": "pl", "slope": ["1"], "constants": [["0"]] * 4}),
         "4 slope and 4 constant rows"),
        ("correct --iet {four} --cocycle {step} --zero-mean --k-max 0", "",
         ">= 1"),
        ("correct --iet {four} --cocycle {step} --zero-mean --k-max -2", "",
         ">= 1"),
        ("rauzy --iet {four} --steps -3", "", ">= 0"),
        ("essential-values --iet {five} --fixed-space --n-max -1", "", ">= 0"),
        ("rotations --mode dk --depth 0", "", ">= 1"),
        ("simulate --iet {four} --cocycle {bad}", NAN_STEP, "finite"),
        ("deviation --iet {four} --cocycle {bad}", NAN_STEP, "finite"),
        ("simulate --iet {four} --cocycle {bad}", HUGE_STEP, "overflow"),
        ("deviation --iet {four} --cocycle {bad} --n-max 100", HUGE_STEP,
         "overflow"),
        ("rotations --mode product --n 9223372036854775808", "", "overflow"),
        ("birkhoff --iet {four} --cocycle {step} --x0 nan", "", "finite"),
        ("spectrum --matrix {bad}", json.dumps([[1.5, 1], [1, 0]]),
         "not an integer"),
        ("spectrum --matrix {bad}", json.dumps([[True, 1], [1, 0]]), "bool"),
        ("build --iet {bad}", json.dumps({
            "pair": FOUR_SPEC["pair"],
            "periodic_matrix": [[1.5, 24, 18, 7], *FOUR_SPEC[
                "periodic_matrix"][1:]]}), "not an integer"),
        ("spectrum --matrix {bad}", json.dumps(
            [[1 + i * (i == j) for j in range(17)] for i in range(17)]),
         "limited to degree 16"),
    ], ids=["pair-without-pi0", "not-json", "step-without-values",
            "birkhoff-n-0", "deviation-n-max-0", "simulate-eps-not-a-number",
            "classify-vector-not-numbers", "spectrum-matrix-not-integers",
            "product-n-0", "product-n-negative", "spectrum-pair-not-object",
            "three-distance-n-0", "three-distance-n-negative",
            "dk-samples-negative", "simulate-samples-negative",
            "deviation-samples-0", "deviation-samples-negative",
            "simulate-n-0", "birkhoff-cocycle-rows",
            "deviation-cocycle-rows", "deviation-zero-mean-cocycle-rows",
            "simulate-cocycle-rows", "correct-zero-mean-cocycle-rows",
            "essential-values-cocycle-rows", "deviation-pl-cocycle-rows",
            "correct-k-max-0", "correct-k-max-negative", "rauzy-steps-negative",
            "essential-values-n-max-negative", "dk-depth-0",
            "simulate-nan-entry", "deviation-nan-entry", "simulate-overflow",
            "deviation-overflow", "product-sums-past-int64",
            "birkhoff-x0-nan", "spectrum-matrix-fractional-entry",
            "spectrum-matrix-bool-entry", "spec-periodic-matrix-fractional-entry",
            "spectrum-degree-above-limit"])
    def test_malformed_spec_one_line_error(self, capsys, specs, tmp_path,
                                           command, content, named):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = command.format(bad=bad, **specs).split()
        code = run(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert named in err[0]


SPEC_KEYS = ("pair", "d", "pi0", "pi1", "lambda", "periodic_matrix", "loop",
             "kind", "dim", "values", "extra_discontinuities", "gamma",
             "jump", "slope", "slopes", "constants")
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 4)
               | st.floats(-2, 2) | st.sampled_from(
                   [float("inf"), float("nan"), "0.5", "1", "x", "step", "pl"])
               | st.fixed_dictionaries({"pi0": st.permutations([1, 2, 3]),
                                        "pi1": st.permutations([1, 2, 3])}))
JSON_SPECS = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(SPEC_KEYS), kids,
                                    max_size=4)),
    max_leaves=16)


class TestSpecLoaders:
    @settings(max_examples=300, deadline=None)
    @given(JSON_SPECS)
    def test_only_library_errors_escape(self, data):
        ctx = PrecisionContext(64)
        for load in (iet_from_json, cocycle_from_json):
            try:
                load(data, ctx)
            except IetLabError:
                pass


class TestDeterminism:
    def test_byte_identical_outputs(self, specs):
        argv = [sys.executable, "-m", "iet_lab.cli", "deviation",
                "--iet", specs["four"], "--cocycle", specs["step"],
                "--n-max", "3000", "--samples", "4", "--seed", "7"]
        runs = [subprocess.run(argv, capture_output=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]
        argv_json = [sys.executable, "-m", "iet_lab.cli", "spectrum",
                     "--iet", specs["five"]]
        runs = [subprocess.run(argv_json, capture_output=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["four_letter_matrix",
                                      "five_letter_matrix",
                                      "seven_letter_loop"])
    def test_spectrum_matches_committed_stdout(self, capsys, name):
        # tests/golden holds the stdout of an earlier commit: the certified
        # spectrum and splitting stay byte-identical across commits
        code, out = capture(capsys, ["spectrum", "--iet",
                                     str(BUNDLED_SPECS / f"{name}.json")])
        assert code == 0
        assert out.encode() == (GOLDEN / f"spectrum_{name}.json").read_bytes()

    @pytest.mark.parametrize("command, iet, cocycle, golden", [
        ("simulate --n 20000", "five_letter_matrix", "fixed_space_cocycle",
         "simulate_five_letter_matrix_fixed_space_cocycle"),
        ("simulate --n 20000", "four_letter_matrix", "step_cocycle",
         "simulate_four_letter_matrix_step_cocycle"),
        ("simulate --n 20000", "four_letter_matrix", "pl_cocycle",
         "simulate_four_letter_matrix_pl_cocycle"),
        ("deviation --n-max 20000", "four_letter_matrix", "pl_cocycle",
         "deviation_four_letter_matrix_pl_cocycle"),
        ("deviation --n-max 20000 --zero-mean", "four_letter_matrix",
         "step_cocycle",
         "deviation_four_letter_matrix_step_cocycle_zero_mean"),
    ], ids=["simulate-fixed-space", "simulate-step", "simulate-pl",
            "deviation-pl", "deviation-step-zero-mean"])
    def test_float_lanes_match_committed_stdout(self, capsys, command, iet,
                                                cocycle, golden):
        # tests/golden holds the stdout of the per-step float lanes: the
        # block lanes reproduce it byte for byte
        argv = command.split() + ["--iet", str(BUNDLED_SPECS / f"{iet}.json"),
                                  "--cocycle",
                                  str(BUNDLED_SPECS / f"{cocycle}.json")]
        code, out = capture(capsys, argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{golden}.json").read_bytes()

    @pytest.mark.parametrize("iet, cocycle", [
        ("four_letter_matrix", "pl_cocycle"),
        ("four_letter_matrix", "step_cocycle"),
        ("five_letter_matrix", "fixed_space_cocycle"),
    ], ids=["pl", "step-with-jump", "fixed-space"])
    def test_birkhoff_matches_committed_stdout(self, capsys, iet, cocycle):
        # tests/golden holds the stdout of the per-step mpf orbit, which an
        # exact replay matched at every checkpoint: the exact walk
        # reproduces it byte for byte
        code, out = capture(capsys, [
            "birkhoff", "--n", "100000",
            "--iet", str(BUNDLED_SPECS / f"{iet}.json"),
            "--cocycle", str(BUNDLED_SPECS / f"{cocycle}.json")])
        assert code == 0
        assert out.encode() == (GOLDEN / f"birkhoff_{iet}_{cocycle}.json"
                                ).read_bytes()

    @pytest.mark.parametrize("command, golden", [
        ("build --iet {s}/four_letter_matrix.json", "build_four_letter_matrix"),
        ("rauzy --iet {s}/four_letter_matrix.json", "rauzy_four_letter_matrix"),
        ("correct --zero-mean --iet {s}/four_letter_matrix.json "
         "--cocycle {s}/step_cocycle.json",
         "correct_four_letter_matrix_step_cocycle_zero_mean"),
        ("correct --zero-mean --iet {s}/four_letter_matrix.json "
         "--cocycle {s}/pl_cocycle.json",
         "correct_four_letter_matrix_pl_cocycle_zero_mean"),
        ("essential-values --fixed-space --iet {s}/five_letter_matrix.json",
         "essential_values_five_letter_matrix_fixed_space"),
        ("classify --vector=-1,-2,0,-1,1 --lattices=1,0.5 "
         "--iet {s}/five_letter_matrix.json", "classify_five_letter_matrix"),
        ("repro --case example-7-2", "repro_example_7_2"),
        ("repro --case appendix-d", "repro_appendix_d"),
    ], ids=["build", "rauzy", "correct-step", "correct-pl",
            "essential-values", "classify", "repro-example-7-2",
            "repro-appendix-d"])
    def test_commands_match_committed_stdout(self, capsys, command, golden):
        # tests/golden holds the stdout of the commit before the options
        # these commands feed were fixed to their values
        code, out = capture(capsys, [a.format(s=BUNDLED_SPECS)
                                     for a in command.split()])
        assert code == 0
        assert out.encode() == (GOLDEN / f"{golden}.json").read_bytes()

    @pytest.mark.parametrize("command, golden", [
        ("rotations --mode dk --n 1000000 --samples 100", "rotations_dk_readme"),
        ("rotations --mode dk --n 1000000 --depth 30 --samples 50 --seed 7",
         "rotations_dk_seed"),
        ("rotations --mode dk --n 20000 --samples 30 --format csv",
         "rotations_dk_csv"),
        ("rotations --mode dk --n 0", "rotations_dk_n0"),
    ], ids=["readme", "seed", "csv", "n-zero"])
    def test_dk_matches_committed_stdout(self, capsys, command, golden):
        # tests/golden holds the stdout of the per-block walk: the doubling
        # tables reproduce it byte for byte
        code, out = capture(capsys, command.split())
        assert code == 0
        assert out.encode() == (GOLDEN / f"{golden}.json").read_bytes()


class TestRuntimeImports:
    """sympy is the tests' oracle, never a runtime import."""

    def test_commands_never_import_sympy(self):
        commands = [["spectrum", "--iet", str(spec)]
                    for spec in sorted(BUNDLED_SPECS.glob("*.json"))
                    if "pair" in json.loads(spec.read_text())]
        commands.append(["repro", "--case", "appendix-d"])
        script = ("import contextlib, io, json, sys\n"
                  "from iet_lab.cli import run\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert run(argv) == 0, argv\n"
                  "print(sorted(m for m in sys.modules if 'sympy' in m))\n")
        src = str(BUNDLED_SPECS.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(commands)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert len(commands) == 4
        assert done.stdout == "[]\n"

    def test_no_source_file_imports_sympy(self):
        sources = sorted((BUNDLED_SPECS.parent / "src").rglob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text()
            assert not re.search(r"^\s*(import|from)\s+sympy\b", text,
                                 re.MULTILINE), path
