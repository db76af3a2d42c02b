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

    def test_stream_matches_window_by_window(
            self, runner_and_window_by_window):
        """The runner's one batched classify per stream publishes exactly
        the events that processing each window on its own does."""
        events, (times, classes, q) = runner_and_window_by_window(
            "awarepen-baseline", AwarePen)
        assert events.times.size > 0
        assert np.array_equal(events.times, times)
        assert np.array_equal(events.predicted_indices, classes)
        assert np.array_equal(events.qualities, q, equal_nan=True)
        assert np.isnan(q).any()  # the stream exercises epsilon

    def test_describe(self, pen):
        assert "AwarePen" in pen.describe()

