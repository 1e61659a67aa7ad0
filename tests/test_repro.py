"""Bundled benchmark cases."""

import pytest

from iet_lab import repro
from iet_lab.repro import (_refinement_agrees, appendix_b, appendix_d,
                           example_7_2, grouped_exchange, run_case)


class TestCases:
    def test_seven_letter_case_passes(self, ctx):
        report = example_7_2(ctx)
        assert report.ok, report.to_table()

    def test_refinement_compares_every_sample(self, ctx, periodic7,
                                              monkeypatch):
        iet4 = grouped_exchange(periodic7)
        assert _refinement_agrees(periodic7, iet4, ctx)
        images = []

        def broken(iet, x):
            images.append(x)
            raise TypeError("no image")

        monkeypatch.setattr(repro, "_image", broken)
        with pytest.raises(TypeError):
            _refinement_agrees(periodic7, iet4, ctx)
        assert len(images) == 1

    def test_five_letter_case_passes(self, ctx):
        report = appendix_d(ctx)
        assert report.ok, report.to_table()

    def test_family_case_known_defect(self, ctx):
        # eigenvalue formulas pass; the head of the ratio sequence rises,
        # so the strict-monotone entry records an honest failure
        report = appendix_b(n_values=[1, 2, 3], ratio_scan=30,
                            far_index=10_000, ctx=ctx)
        failing = [e for e in report.entries if not e.passed]
        assert len(failing) == 1
        assert "strictly decreasing 1..30" in failing[0].name
        tail_ok = [e for e in report.entries
                   if "strictly decreasing 2..30" in e.name]
        assert tail_ok and tail_ok[0].passed

    def test_run_case_all(self, ctx):
        reports = run_case("all", ctx)
        assert {r.case for r in reports} \
            == {"appendix-b", "example-7-2", "appendix-d"}

    def test_unknown_case(self, ctx):
        with pytest.raises(Exception):
            run_case("nope", ctx)

    def test_report_serialization(self, ctx):
        report = appendix_d(ctx)
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["case"] == "appendix-d"
        assert all({"name", "computed", "reference", "delta", "tolerance",
                    "passed", "provenance"} <= set(e) for e in doc["entries"])
        assert "PASS" in report.to_table()
