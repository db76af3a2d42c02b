"""Tests for repro.appliances.awarepen."""

import numpy as np
import pytest

from repro.appliances.awarepen import PEN_TOPIC, AwarePen
from repro.appliances.bus import EventBus


@pytest.fixture
def pen(experiment):
    return AwarePen(EventBus(), experiment.augmented)


class TestAwarePen:
    def test_process_window_publishes(self, pen, material):
        received = []
        pen.bus.subscribe(PEN_TOPIC, received.append)
        event = pen.process_window(material.evaluation.cues[0], time_s=1.5)
        assert len(received) == 1
        assert received[0] is event
        assert event.source == "awarepen"
        assert event.time_s == 1.5

    def test_event_matches_augmented_classifier(self, pen, material,
                                                experiment):
        cues = material.evaluation.cues[0]
        event = pen.process_window(cues)
        direct = experiment.augmented.classify(cues)
        assert event.context.index == direct.context.index
        if direct.quality is None:
            assert event.quality is None
        else:
            assert event.quality == pytest.approx(direct.quality)

    def test_history_accumulates(self, pen, material):
        for cues in material.evaluation.cues[:5]:
            pen.process_window(cues)
        assert len(pen.history) == 5
        assert len(pen.published_events) == 5

    def test_last_quality(self, pen, material):
        assert pen.last_quality() is None
        pen.process_window(material.evaluation.cues[0])
        last = pen.last_quality()
        assert last is None or 0.0 <= last <= 1.0

    def test_process_stream(self, pen, material, rng):
        from repro.datasets.activities import evaluation_script
        from repro.sensors.node import SensorNode
        node = SensorNode()
        windows = node.collect(evaluation_script(rng, blocks=1), rng,
                               pen.augmented.classes)
        events = pen.process_stream(windows)
        assert len(events) == len(windows)
        times = [e.time_s for e in events]
        assert times == sorted(times)

    def test_stream_matches_window_by_window(self, experiment, rng):
        """One batched classify per stream emits exactly the events that
        classifying each window on its own does."""
        from repro.datasets.activities import evaluation_script
        from repro.sensors.node import SensorNode
        windows = SensorNode().collect(evaluation_script(rng, blocks=1),
                                       rng, experiment.augmented.classes)
        batched = AwarePen(EventBus(), experiment.augmented)
        single = AwarePen(EventBus(), experiment.augmented)
        streamed = batched.process_stream(windows)
        one_by_one = [single.process_window(w.cues, time_s=w.time_s)
                      for w in windows]
        assert [event_fields(e) for e in streamed] == \
            [event_fields(e) for e in one_by_one]
        assert [h.quality for h in batched.history] == \
            [h.quality for h in single.history]

    def test_empty_stream_publishes_nothing(self, pen):
        assert pen.process_stream([]) == []
        assert pen.published_events == []

    def test_describe(self, pen):
        assert "AwarePen" in pen.describe()


def event_fields(event):
    """Everything a subscriber sees of an event except its global id."""
    return (event.source, event.topic, event.context.index, event.quality,
            event.seq, event.time_s)
