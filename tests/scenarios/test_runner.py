"""Tests for the scenario runner and trace capture."""

import numpy as np
import pytest

from repro.exceptions import ScenarioError
from repro.scenarios import registry
from repro.scenarios.models import model_for
from repro.scenarios.runner import (capture_scenario_trace, run_scenario,
                                    run_scenario_on)
from repro.scenarios.spec import (ApplianceSpec, ScenarioSpec,
                                  SegmentSpec, SensorSpec)
from repro.verify.golden import diff_traces


class TestAwareOfficeEquivalence:
    def test_gate_rejects_something_ungated_accepts(self, scenario_runs):
        gated = scenario_runs("awarepen-baseline").cameras[0]
        ungated = scenario_runs("awarepen-ungated").cameras[0]
        assert gated.rejected_events > 0
        assert ungated.rejected_events == 0
        assert (ungated.accepted_events
                == gated.accepted_events + gated.rejected_events)


class TestMicroBatching:
    @pytest.mark.parametrize("transport", ["eventbus", "broker"])
    def test_one_predict_call_per_sensing_appliance(self, scenario_runs,
                                                    monkeypatch, transport):
        """Each sensing appliance classifies all its windows in one call;
        the events stay those of the cached (golden-checked) run."""
        spec = registry.get("awareoffice-situations")
        calls = {}
        for app in spec.appliances:
            if app.kind not in ("pen", "chair"):
                continue
            clf_spec = (app.classifier if app.classifier is not None
                        else spec.classifier)
            classifier = model_for(app.kind, clf_spec, 7).augmented.classifier
            rows = calls.setdefault(app.name, [])
            original = classifier.predict_indices

            def spy(x, _original=original, _rows=rows):
                _rows.append(np.atleast_2d(x).shape[0])
                return _original(x)

            monkeypatch.setattr(classifier, "predict_indices", spy)
        result = run_scenario_on(spec, seed=7, transport=transport)
        windows = {rec.name: rec.times.size for rec in result.events}
        assert set(calls) == set(windows) == {"pen", "chair"}
        for name, rows in calls.items():
            assert rows == [windows[name]]
        diff = diff_traces(capture_scenario_trace(result),
                           capture_scenario_trace(
                               scenario_runs("awareoffice-situations")),
                           rtol=0.0, atol=0.0)
        assert diff.passed, diff.to_text()


class TestDeterminism:
    def test_rerun_is_bit_identical(self, scenario_runs):
        cached = capture_scenario_trace(scenario_runs("awarepen-ungated"))
        fresh = capture_scenario_trace(
            run_scenario(registry.get("awarepen-ungated"), seed=7))
        diff = diff_traces(fresh, cached, rtol=0.0, atol=0.0)
        assert diff.passed, diff.to_text()
        assert not diff.hash_mismatches

    def test_seed_changes_the_stream(self, scenario_runs):
        seed7 = scenario_runs("faults-overlap-composed")
        seed8 = run_scenario(registry.get("faults-overlap-composed"),
                             seed=8)
        assert not np.array_equal(seed7.events[0].qualities,
                                  seed8.events[0].qualities)


class TestRunnerSurface:
    def test_events_follow_spec_appliance_order(self, scenario_runs):
        spec = registry.get("awareoffice-situations")
        result = scenario_runs("awareoffice-situations")
        sensing = [a.name for a in spec.sensing_appliances()]
        assert [r.name for r in result.events] == sensing
        assert [s.name for s in result.situations] == ["situations"]

    def test_situation_report_is_consistent(self, scenario_runs):
        report = scenario_runs("awareoffice-situations").situations[0]
        assert report.n_states == report.confidences.size
        assert report.n_states > 0

    def test_multipen_merges_both_streams(self, scenario_runs):
        result = scenario_runs("awareoffice-multipen")
        assert len(result.events) == 2
        assert len(result.cameras) == 2
        assert result.n_windows == sum(r.times.size
                                       for r in result.events)

    def test_invalid_spec_rejected_before_running(self):
        bad = ScenarioSpec(
            name="bad",
            sensors=(SensorSpec(
                name="s", family="pen",
                segments=(SegmentSpec(activity="writing",
                                      duration_s=1.0),)),),
            appliances=(ApplianceSpec(name="pen", kind="pen",
                                      sensor="ghost"),))
        with pytest.raises(ScenarioError, match="dangling"):
            run_scenario(bad, seed=7)

    def test_unknown_transport(self):
        spec = registry.get("awarepen-ungated")
        with pytest.raises(ScenarioError, match="transport 'carrier'"):
            run_scenario_on(spec, transport="carrier")

    def test_broker_transport_persists_a_log(self, tmp_path):
        spec = registry.get("faults-overlap-composed")
        result = run_scenario_on(spec, seed=7, transport="broker",
                                 log_dir=tmp_path)
        assert result.n_windows > 0
        assert any(tmp_path.rglob("*"))


class TestTraceCapture:
    def test_trace_covers_every_report(self, scenario_runs):
        result = scenario_runs("awareoffice-situations")
        trace = capture_scenario_trace(result)
        stages = [s.stage for s in trace.stages]
        for record in result.events:
            assert f"events:{record.name}" in stages
        for sit in result.situations:
            assert f"situation:{sit.name}" in stages
        assert stages[-1] == "summary"

    def test_trace_roundtrips_through_json(self, tmp_path, scenario_runs):
        from repro.verify.golden import GoldenTrace

        trace = capture_scenario_trace(scenario_runs("awarepen-ungated"))
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = GoldenTrace.load(path)
        diff = diff_traces(trace, loaded, rtol=0.0, atol=0.0)
        assert diff.passed and not diff.hash_mismatches
