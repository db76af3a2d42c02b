"""Tests for repro.appliances.chair — the AwareChair appliance."""

import numpy as np
import pytest

from repro.appliances.bus import EventBus
from repro.appliances.chair import CHAIR_TOPIC, AwareChair
from repro.classifiers import NearestCentroidClassifier
from repro.core import (ConstructionConfig, QualityAugmentedClassifier,
                        build_quality_measure)
from repro.datasets.generator import generate_dataset
from repro.sensors.chair import AWARECHAIR_CLASSES, CHAIR_MODELS
from repro.sensors.node import Segment


def chair_script(rng, repetitions=3):
    segments = []
    for _ in range(repetitions):
        for name in ("empty", "sitting", "fidgeting"):
            segments.append(Segment(CHAIR_MODELS[name],
                                    duration_s=float(rng.uniform(4, 7))))
    return segments


@pytest.fixture(scope="module")
def chair_augmented():
    train = generate_dataset(chair_script, seed=80,
                             classes=AWARECHAIR_CLASSES)
    quality_train = generate_dataset(chair_script, seed=81,
                                     classes=AWARECHAIR_CLASSES)
    check = generate_dataset(lambda r: chair_script(r, repetitions=2),
                             seed=82, classes=AWARECHAIR_CLASSES)
    clf = NearestCentroidClassifier(AWARECHAIR_CLASSES)
    clf.fit(train.cues, train.labels)
    result = build_quality_measure(clf, quality_train, check,
                                   config=ConstructionConfig(epochs=10))
    return QualityAugmentedClassifier(clf, result.quality)


class TestAwareChair:
    def test_publishes_on_chair_topic(self, chair_augmented):
        bus = EventBus()
        received = []
        bus.subscribe(CHAIR_TOPIC, received.append)
        chair = AwareChair(bus, chair_augmented)
        dataset = generate_dataset(lambda r: chair_script(r, 1), seed=83,
                                   classes=AWARECHAIR_CLASSES)
        event = chair.process_window(dataset.cues[0], time_s=0.5)
        assert received == [event]
        assert event.topic == CHAIR_TOPIC
        assert event.source == "awarechair"

    def test_contexts_are_chair_classes(self, chair_augmented):
        bus = EventBus()
        chair = AwareChair(bus, chair_augmented)
        dataset = generate_dataset(lambda r: chair_script(r, 1), seed=84,
                                   classes=AWARECHAIR_CLASSES)
        for cues in dataset.cues[:10]:
            event = chair.process_window(cues)
            assert event.context.name in {"empty", "sitting", "fidgeting"}

    def test_classifies_chair_states_correctly(self, chair_augmented):
        bus = EventBus()
        chair = AwareChair(bus, chair_augmented)
        dataset = generate_dataset(lambda r: chair_script(r, 2), seed=85,
                                   classes=AWARECHAIR_CLASSES)
        right = total = 0
        for cues, label, transition in zip(dataset.cues, dataset.labels,
                                           dataset.transition):
            event = chair.process_window(cues)
            if transition:
                continue  # ambiguous crossfade windows are the CQM's job
            total += 1
            right += int(event.context.index == label)
        assert right / total > 0.8

    def test_history(self, chair_augmented):
        bus = EventBus()
        chair = AwareChair(bus, chair_augmented)
        dataset = generate_dataset(lambda r: chair_script(r, 1), seed=86,
                                   classes=AWARECHAIR_CLASSES)
        chair.process_window(dataset.cues[0])
        chair.process_window(dataset.cues[1])
        assert len(chair.history) == 2
        assert "AwareChair" in chair.describe()

    def test_stream_matches_window_by_window(
            self, runner_and_window_by_window):
        """The runner's one batched classify per stream publishes exactly
        the events that processing each window on its own does."""
        events, (times, classes, q) = runner_and_window_by_window(
            "awarechair-baseline", AwareChair)
        assert events.times.size > 0
        assert np.array_equal(events.times, times)
        assert np.array_equal(events.predicted_indices, classes)
        assert np.array_equal(events.qualities, q, equal_nan=True)
