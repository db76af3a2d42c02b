"""The negative controls pinned by the acceptance criteria.

A verification harness is only trustworthy if it demonstrably catches
the regressions it guards against: deliberately perturbing one TSK
consequent coefficient must make both the differential sweep and the
golden drift diff fail *naming the ``tsk`` stage*.
"""

import pytest

from repro.verify import (DifferentialRunner, GoldenTrace, StageFault,
                          default_golden_path, diff_traces, capture_trace)


def _perturb_one_consequent(system):
    """The canonical injected bug: one coefficient off by 1e-3."""
    system.coefficients[0, 0] += 1e-3
    return system


class TestDifferentialNegativeControl:
    def test_perturbed_consequent_fails_naming_tsk(self):
        runner = DifferentialRunner(
            seeds=(7,), fault=StageFault("tsk", _perturb_one_consequent))
        report = runner.run()
        assert not report.passed
        assert report.first_failure == "tsk"

    def test_untouched_stages_still_pass(self):
        runner = DifferentialRunner(
            seeds=(7,), stages=["membership", "tsk", "normalization"],
            fault=StageFault("tsk", _perturb_one_consequent))
        report = runner.run()
        by_name = {s.stage: s for s in report.stages}
        assert by_name["membership"].passed
        assert by_name["normalization"].passed
        assert not by_name["tsk"].passed

    def test_failure_text_names_stage_and_case(self):
        report = DifferentialRunner(
            seeds=(7,), stages=["tsk"],
            fault=StageFault("tsk", _perturb_one_consequent)).run()
        text = report.to_text()
        assert "FIRST DIVERGING STAGE: tsk" in text
        assert "worst:" in text

    def test_fault_caught_by_tsk_alone(self):
        """Run on its own, the ``tsk`` stage still catches the fault: its
        tolerance is orders of magnitude below the injected 1e-3."""
        report = DifferentialRunner(
            seeds=(7,), stages=["tsk"],
            fault=StageFault("tsk", _perturb_one_consequent)).run()
        assert not report.passed
        assert report.first_failure == "tsk"


class TestGoldenNegativeControl:
    @pytest.fixture(scope="class")
    def golden(self):
        path = default_golden_path(seed=7)
        assert path.exists(), "shipped golden trace is missing"
        return GoldenTrace.load(path)

    def test_mutated_system_drifts_at_tsk(self, golden):
        mutated = capture_trace(seed=7,
                                system_mutator=_perturb_one_consequent)
        diff = diff_traces(mutated, golden)
        assert not diff.passed
        assert diff.first_diverging_stage == "tsk"

    def test_drift_text_names_tsk(self, golden):
        mutated = capture_trace(seed=7,
                                system_mutator=_perturb_one_consequent)
        diff = diff_traces(mutated, golden)
        assert "FIRST DIVERGING STAGE: tsk" in diff.to_text()
