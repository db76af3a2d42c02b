"""Tests for repro.bus.replay — log replay into golden traces."""

import dataclasses

import numpy as np
import pytest

from repro.appliances.awarepen import PEN_TOPIC
from repro.appliances.bus import EventBus
from repro.appliances.camera import CameraReport, WhiteboardCamera
from repro.bus.broker import BrokerCore, BusConfig
from repro.bus.drill import scripted_pen_events
from repro.bus.replay import (RunMeta, capture_bus_trace, check_replay,
                              dedupe_events, read_log_events, replay_log)
from repro.core.filtering import EpsilonPolicy, QualityFilter
from repro.exceptions import BusError, ConfigurationError
from repro.verify.golden import diff_traces


def pen_events(n=40, seed=3):
    return scripted_pen_events(seed, n)


class TestRunMeta:
    def test_save_load_roundtrip(self, tmp_path):
        meta = RunMeta(seed=7, gate_threshold=0.55,
                       gate_epsilon_policy="accept",
                       camera_topic=PEN_TOPIC)
        meta.save(tmp_path)
        assert RunMeta.load(tmp_path) == meta

    def test_load_missing_sidecar(self, tmp_path):
        with pytest.raises(BusError, match="meta.json"):
            RunMeta.load(tmp_path)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            RunMeta.from_dict({"kind": "other", "seed": 1})

    def test_gate_reconstruction(self):
        assert RunMeta(seed=1).gate() is None
        gate = RunMeta(seed=1, gate_threshold=0.6,
                       gate_epsilon_policy="accept").gate()
        assert gate == QualityFilter(0.6, EpsilonPolicy.ACCEPT)


class TestDedupeEvents:
    def test_keeps_first_arrival_per_identity(self):
        events = pen_events(10)
        noisy = events + events[3:7] + [events[0]]
        assert dedupe_events(noisy) == events

    def test_distinct_sources_do_not_collide(self):
        a = scripted_pen_events(1, 5, source="pen-a")
        b = scripted_pen_events(1, 5, source="pen-b")
        assert len(dedupe_events(a + b)) == 10


class TestCaptureBusTrace:
    def test_per_source_stages_sorted(self):
        a = scripted_pen_events(1, 5, source="pen-b")
        b = scripted_pen_events(1, 5, source="pen-a")
        trace = capture_bus_trace(7, a + b)
        assert [s.stage for s in trace.stages] == ["events:pen-a",
                                                   "events:pen-b"]

    def test_insensitive_to_interleaving(self):
        events = pen_events(20)
        shuffled = list(events)
        np.random.default_rng(0).shuffle(shuffled)
        base = capture_bus_trace(7, events)
        other = capture_bus_trace(7, shuffled)
        assert diff_traces(base, other, rtol=0.0, atol=0.0).passed

    def test_epsilon_encoded_as_nan(self):
        events = pen_events(50)  # the script emits ~5% epsilon events
        assert any(e.quality is None for e in events)
        [stage] = capture_bus_trace(7, events).stages
        arrays = {a.name: a for a in stage.arrays}
        assert arrays["qualities"].n_nan == sum(
            1 for e in events if e.quality is None)


class TestReplayLog:
    def make_log(self, tmp_path, events):
        config = BusConfig(n_partitions=2, fsync_every=1)
        with BrokerCore(tmp_path, config) as core:
            for e in events:
                core.publish(e.to_wire())

    def test_read_log_events_in_offset_order(self, tmp_path):
        events = pen_events(15)
        self.make_log(tmp_path, events)
        assert read_log_events(tmp_path) == events

    def test_replay_without_camera(self, tmp_path):
        events = pen_events(15)
        self.make_log(tmp_path, events)
        RunMeta(seed=7).save(tmp_path)
        replayed = replay_log(tmp_path)
        live = capture_bus_trace(7, events)
        assert diff_traces(replayed, live, rtol=0.0, atol=0.0).passed

    def test_replay_rebuilds_camera_bit_identically(self, tmp_path):
        events = pen_events(60)
        self.make_log(tmp_path, events)
        meta = RunMeta(seed=7, gate_threshold=0.5, camera_topic=PEN_TOPIC)
        meta.save(tmp_path)

        # The live run: a gated camera fed by the same event stream.
        bus = EventBus()
        camera = WhiteboardCamera(bus, gate=QualityFilter(0.5))
        for e in events:
            bus.publish(e)
        camera.flush(max(e.time_s for e in events))
        assert camera.accepted_events > 0
        live = capture_bus_trace(7, events, camera=CameraReport.of(camera))

        golden_path = tmp_path / "golden.json"
        live.save(golden_path)
        diff = check_replay(tmp_path, golden_path)
        assert diff.passed
        assert diff.first_diverging_stage is None

    def test_divergence_detected(self, tmp_path):
        events = pen_events(20)
        self.make_log(tmp_path, events)
        RunMeta(seed=7).save(tmp_path)
        # Tamper with one event: a different quality on the same seq.
        tampered = list(events)
        tampered[4] = dataclasses.replace(tampered[4], quality=0.123456)
        golden_path = tmp_path / "golden.json"
        capture_bus_trace(7, tampered).save(golden_path)
        diff = check_replay(tmp_path, golden_path)
        assert not diff.passed
        assert diff.first_diverging_stage == "events:awarepen"
