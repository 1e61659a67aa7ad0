"""Command-line dispatch, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet_lab.cli import run
from iet_lab.cocycles import cocycle_from_json
from iet_lab.errors import IetLabError
from iet_lab.precision import PrecisionContext
from iet_lab.rauzy import Iet, iet_from_json

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

    def test_deviation_with_workers(self, capsys, specs):
        code, out = capture(capsys, ["deviation", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n-max", "2000", "--samples", "4",
                                     "--threads", "2"])
        assert code == 0

    def test_birkhoff_csv(self, capsys, specs):
        code, out = capture(capsys, ["birkhoff", "--iet", specs["four"],
                                     "--cocycle", specs["step"],
                                     "--n", "200", "--format", "csv"])
        assert code == 0
        assert "n,sup_norm" in out

    def test_birkhoff_walks_each_segment_once(self, capsys, specs,
                                              monkeypatch):
        calls = []
        apply = Iet.apply

        def counted(self, x, step_index=None):
            calls.append(step_index)
            return apply(self, x, step_index)

        monkeypatch.setattr(Iet, "apply", counted)
        code, _out = capture(capsys, ["birkhoff", "--iet", specs["four"],
                                      "--cocycle", specs["step"],
                                      "--n", "2000"])
        assert code == 0
        assert len(calls) == 2000


class TestErrors:
    def test_unknown_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

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
    ], ids=["pair-without-pi0", "not-json", "step-without-values",
            "birkhoff-n-0", "deviation-n-max-0", "simulate-eps-not-a-number",
            "classify-vector-not-numbers", "spectrum-matrix-not-integers",
            "product-n-0", "product-n-negative", "spectrum-pair-not-object"])
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
