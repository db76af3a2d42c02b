"""Schema-validation tests for the declarative scenario spec layer."""

import dataclasses

import pytest

from repro.datasets.dsl import parse_scenario
from repro.exceptions import ConfigurationError, ScenarioError
from repro.scenarios.activities import FAMILY_MODELS
from repro.scenarios.spec import (ApplianceSpec, ClassifierSpec,
                                  FaultWindowSpec, ScenarioSpec,
                                  SegmentSpec, SensorSpec, StyleSpec,
                                  office_spec)
from repro.sensors.accelerometer import (ACTIVITY_MODELS, UserStyle,
                                         WritingModel)
from repro.sensors.node import Segment


def payload(**over):
    """A minimal valid scenario payload, with overrides."""
    base = {
        "name": "unit",
        "sensors": [{
            "name": "accel",
            "family": "pen",
            "segments": [{"activity": "writing", "duration_s": 2.0}],
        }],
        "appliances": [{"name": "pen", "kind": "pen", "sensor": "accel"}],
    }
    base.update(over)
    return base


def spec_with(**over):
    return ScenarioSpec.from_dict(payload(**over))


class TestStrictLoading:
    def test_minimal_payload_validates(self):
        assert spec_with().validate().name == "unit"

    def test_unknown_toplevel_field(self):
        with pytest.raises(ScenarioError, match="unknown field.*typo"):
            spec_with(typo=1)

    def test_unknown_sensor_field(self):
        bad = payload()
        bad["sensors"][0]["frequency"] = 10
        with pytest.raises(ScenarioError, match="unknown field"):
            ScenarioSpec.from_dict(bad)

    def test_unknown_segment_field(self):
        bad = payload()
        bad["sensors"][0]["segments"][0]["speed"] = 2
        with pytest.raises(ScenarioError, match="unknown field"):
            ScenarioSpec.from_dict(bad)

    def test_missing_required_field(self):
        bad = payload()
        del bad["sensors"][0]["family"]
        with pytest.raises(ScenarioError, match="missing required"):
            ScenarioSpec.from_dict(bad)

    def test_bool_is_not_a_number(self):
        bad = payload()
        bad["sensors"][0]["segments"][0]["duration_s"] = True
        with pytest.raises(ScenarioError, match="expected a number"):
            ScenarioSpec.from_dict(bad)

    def test_bad_scenario_name(self):
        with pytest.raises(ScenarioError, match="must match"):
            spec_with(name="Bad Name")

    def test_sensors_must_be_a_list(self):
        with pytest.raises(ScenarioError, match="must be a list"):
            spec_with(sensors="accel")

    def test_needs_at_least_one_sensor(self):
        with pytest.raises(ScenarioError, match="at least one sensor"):
            ScenarioSpec(name="x", sensors=(),
                         appliances=(ApplianceSpec(name="d",
                                                   kind="display"),))


class TestFaultWindowSpec:
    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="fault kind 'gremlin'"):
            FaultWindowSpec(kind="gremlin")

    def test_intensity_range(self):
        with pytest.raises(ScenarioError, match="intensity"):
            FaultWindowSpec(kind="dropout", intensity=1.5)

    def test_unknown_param_names_alternatives(self):
        with pytest.raises(ScenarioError, match="unknown param 'speed'"):
            FaultWindowSpec(kind="dropout", params=(("speed", 1.0),))

    def test_build_casts_int_typed_params(self):
        scheduled = FaultWindowSpec(kind="dropout",
                                    params=(("gap", 5.0),)).build()
        assert scheduled.fault.gap == 5
        assert isinstance(scheduled.fault.gap, int)

    def test_build_applies_intensity(self):
        scheduled = FaultWindowSpec(kind="dropout", intensity=0.5,
                                    params=(("rate", 0.4),)).build()
        assert scheduled.fault.rate == pytest.approx(0.2)

    def test_build_wraps_configuration_errors(self):
        bad = FaultWindowSpec(kind="dropout", params=(("rate", 2.0),))
        with pytest.raises(ScenarioError, match="fault 'dropout'"):
            bad.build()

    def test_inverted_window_rejected_on_build(self):
        bad = FaultWindowSpec(kind="dropout", start_s=5.0, end_s=1.0)
        with pytest.raises((ScenarioError, ConfigurationError)):
            bad.build()

    def test_roundtrip_keeps_params(self):
        spec = FaultWindowSpec(kind="stuck", start_s=1.0, end_s=4.0,
                               intensity=0.7, params=(("fraction", 0.5),))
        assert FaultWindowSpec.from_dict(spec.to_dict()) == spec


class TestSegmentAndStyle:
    def test_duration_must_be_positive(self):
        with pytest.raises(ScenarioError, match="duration_s"):
            SegmentSpec(activity="writing", duration_s=0.0)

    def test_unknown_activity_is_actionable(self):
        spec = spec_with()
        bad = dataclasses.replace(
            spec, sensors=(dataclasses.replace(
                spec.sensors[0],
                segments=(SegmentSpec(activity="juggling",
                                      duration_s=1.0),)),))
        with pytest.raises(ScenarioError,
                           match="unknown activity 'juggling'.*available"):
            bad.validate()

    def test_unknown_style_is_actionable(self):
        bad = payload()
        bad["sensors"][0]["segments"][0]["style"] = "martian"
        with pytest.raises(ScenarioError, match="unknown style 'martian'"):
            ScenarioSpec.from_dict(bad).validate()

    def test_custom_style_resolves(self):
        spec = spec_with(styles=[{"name": "frantic",
                                  "amplitude_scale": 2.0}])
        spec.validate()
        assert spec.resolved_styles()["frantic"].amplitude_scale == 2.0

    def test_shadowing_builtin_style_rejected(self):
        spec = spec_with(styles=[{"name": "erratic"}])
        with pytest.raises(ScenarioError, match="shadow builtin"):
            spec.validate()

    def test_invalid_style_parameters_surface_on_validate(self):
        spec = spec_with(styles=[{"name": "broken",
                                  "amplitude_scale": -1.0}])
        with pytest.raises(ScenarioError, match="style 'broken'"):
            spec.validate()


class TestClassifierSpec:
    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="classifier kind"):
            ClassifierSpec(kind="svm")

    def test_unknown_param(self):
        with pytest.raises(ScenarioError, match="unknown param"):
            ClassifierSpec(kind="tsk", params=(("depth", 3.0),))

    def test_ensemble_needs_two_members(self):
        with pytest.raises(ScenarioError, match=">= 2 members"):
            ClassifierSpec(kind="ensemble", members=("knn",))

    def test_ensemble_members_cannot_nest(self):
        with pytest.raises(ScenarioError, match="non-ensemble"):
            ClassifierSpec(kind="ensemble", members=("knn", "ensemble"))

    def test_non_ensemble_rejects_members(self):
        with pytest.raises(ScenarioError, match="does not take members"):
            ClassifierSpec(kind="knn", members=("tsk", "mlp"))


class TestGraphValidation:
    def test_dangling_sensor_reference(self):
        bad = payload()
        bad["appliances"][0]["sensor"] = "ghost"
        with pytest.raises(ScenarioError,
                           match="dangling sensor reference 'ghost'"):
            ScenarioSpec.from_dict(bad).validate()

    def test_dangling_input_reference(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "cam", "kind": "camera", "inputs": ["ghost"]},
        ])
        with pytest.raises(ScenarioError, match="dangling reference"):
            ScenarioSpec.from_dict(bad).validate()

    def test_self_input_rejected(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "hud", "kind": "display", "inputs": ["hud"]},
        ])
        with pytest.raises(ScenarioError, match="cannot input itself"):
            ScenarioSpec.from_dict(bad).validate()

    def test_cycle_names_the_path(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "a", "kind": "display", "inputs": ["b"]},
            {"name": "b", "kind": "display", "inputs": ["a"]},
        ])
        with pytest.raises(ScenarioError, match="cycle: a -> b -> a"):
            ScenarioSpec.from_dict(bad).validate()

    def test_duplicate_appliance_names(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "pen", "kind": "display"},
        ])
        with pytest.raises(ScenarioError, match="must be unique"):
            ScenarioSpec.from_dict(bad).validate()

    def test_sensor_feeds_exactly_one_appliance(self):
        bad = payload(appliances=[
            {"name": "pen-a", "kind": "pen", "sensor": "accel"},
            {"name": "pen-b", "kind": "pen", "sensor": "accel",
             "topic": "context.other"},
        ])
        with pytest.raises(ScenarioError, match="exactly one appliance"):
            ScenarioSpec.from_dict(bad).validate()

    def test_unused_sensor_rejected(self):
        bad = payload()
        bad["sensors"].append({
            "name": "spare", "family": "pen",
            "segments": [{"activity": "lying", "duration_s": 1.0}]})
        with pytest.raises(ScenarioError, match="not attached"):
            ScenarioSpec.from_dict(bad).validate()

    def test_sensing_topics_unique(self):
        good = payload()
        good["sensors"].append({
            "name": "accel2", "family": "pen",
            "segments": [{"activity": "lying", "duration_s": 1.0}]})
        good["appliances"] = [
            {"name": "pen-a", "kind": "pen", "sensor": "accel",
             "topic": "context.pen"},
            {"name": "pen-b", "kind": "pen", "sensor": "accel2",
             "topic": "context.pen"},
        ]
        with pytest.raises(ScenarioError, match="must be unique"):
            ScenarioSpec.from_dict(good).validate()


class TestKindRules:
    def test_sensing_topic_prefix(self):
        bad = payload()
        bad["appliances"][0]["topic"] = "raw.pen"
        with pytest.raises(ScenarioError, match="must start"):
            ScenarioSpec.from_dict(bad).validate()

    def test_family_must_match_kind(self):
        bad = payload()
        bad["appliances"][0]["kind"] = "chair"
        with pytest.raises(ScenarioError, match="family"):
            ScenarioSpec.from_dict(bad).validate()

    def test_pen_rejects_camera_fields(self):
        bad = payload()
        bad["appliances"][0]["gated"] = False
        with pytest.raises(ScenarioError, match="does not apply"):
            ScenarioSpec.from_dict(bad).validate()

    def test_camera_rejects_sensor(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "cam", "kind": "camera", "inputs": ["pen"],
             "sensor": "accel"},
        ])
        with pytest.raises(ScenarioError, match="does not apply"):
            ScenarioSpec.from_dict(bad).validate()

    def test_camera_needs_exactly_one_pen_input(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "cam", "kind": "camera", "inputs": []},
        ])
        with pytest.raises(ScenarioError, match="exactly one input"):
            ScenarioSpec.from_dict(bad).validate()

    def test_camera_input_must_be_a_pen(self):
        bad = payload()
        bad["sensors"][0]["family"] = "chair"
        bad["sensors"][0]["segments"] = [
            {"activity": "sitting", "duration_s": 2.0}]
        bad["appliances"] = [
            {"name": "chair", "kind": "chair", "sensor": "accel"},
            {"name": "cam", "kind": "camera", "inputs": ["chair"]},
        ]
        with pytest.raises(ScenarioError, match="expected 'pen'"):
            ScenarioSpec.from_dict(bad).validate()

    def test_situation_needs_pen_and_chair(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "sit", "kind": "situation", "inputs": ["pen"]},
        ])
        with pytest.raises(ScenarioError, match="one pen and one chair"):
            ScenarioSpec.from_dict(bad).validate()

    def test_display_rejects_threshold(self):
        bad = payload(appliances=[
            {"name": "pen", "kind": "pen", "sensor": "accel"},
            {"name": "hud", "kind": "display", "threshold": 0.5},
        ])
        with pytest.raises(ScenarioError, match="does not apply"):
            ScenarioSpec.from_dict(bad).validate()

    def test_threshold_range_checked_at_load(self):
        with pytest.raises(ScenarioError, match="threshold"):
            ApplianceSpec(name="cam", kind="camera", inputs=("pen",),
                          threshold=1.5)

    def test_min_session_events_floor(self):
        with pytest.raises(ScenarioError, match="min_session_events"):
            ApplianceSpec(name="cam", kind="camera", inputs=("pen",),
                          min_session_events=0)


class TestResolution:
    def test_resolved_topic_defaults_to_name(self):
        app = ApplianceSpec(name="pen-a", kind="pen", sensor="s")
        assert app.resolved_topic() == "context.pen-a"

    def test_explicit_topic_wins(self):
        app = ApplianceSpec(name="pen-a", kind="pen", sensor="s",
                            topic="context.custom")
        assert app.resolved_topic() == "context.custom"

    def test_sensor_builds_faulted_node(self):
        sensor = SensorSpec.from_dict({
            "name": "accel", "family": "pen",
            "segments": [{"activity": "writing", "duration_s": 2.0}],
            "faults": [{"kind": "dropout", "start_s": 1.0}],
        })
        node = sensor.build_node()
        assert node.sensor.fault is not None

    def test_styles_roundtrip(self):
        spec = StyleSpec(name="slow", tempo_scale=0.5)
        assert StyleSpec.from_dict(spec.to_dict()) == spec


class TestOfficeSpec:
    def test_converts_segments_by_name(self):
        segments = parse_scenario("writing:6 playing:2@erratic lying:3")
        spec = office_spec(segments).validate()
        [sensor] = spec.sensors
        assert sensor.segments == (
            SegmentSpec("writing", 6.0),
            SegmentSpec("playing", 2.0, style="erratic"),
            SegmentSpec("lying", 3.0))
        assert sensor.build_segments(spec.resolved_styles(),
                                     FAMILY_MODELS["pen"]) == segments

    @pytest.mark.parametrize("gated", [True, False])
    def test_pen_and_camera_wiring(self, gated):
        spec = office_spec(parse_scenario("writing:2"), gated=gated)
        pen, camera = spec.appliances
        assert (pen.name, pen.kind, pen.resolved_topic()) == (
            "awarepen", "pen", "context.pen")
        assert (camera.name, camera.kind, camera.inputs, camera.gated) == (
            "whiteboard-camera", "camera", ("awarepen",), gated)

    def test_unnamed_style_rejected(self):
        odd = Segment(ACTIVITY_MODELS["writing"], 2.0,
                      style=UserStyle(amplitude_scale=3.0))
        with pytest.raises(ScenarioError, match="not a named style"):
            office_spec([odd])

    def test_unregistered_model_rejected(self):
        with pytest.raises(ScenarioError, match="registered pen model"):
            office_spec([Segment(WritingModel(), 2.0)])
