"""Tests for repro.sensors.node — scenario rendering and streaming."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sensors.accelerometer import (ACTIVITY_MODELS, AWAREPEN_CLASSES,
                                         LYING, PLAYING, WRITING)
from repro.sensors.node import CueWindow, Segment, SensorNode


def two_segment_scenario():
    return [Segment(ACTIVITY_MODELS["lying"], duration_s=3.0),
            Segment(ACTIVITY_MODELS["playing"], duration_s=3.0)]


class TestSegment:
    def test_duration_positive(self):
        with pytest.raises(ConfigurationError):
            Segment(ACTIVITY_MODELS["lying"], duration_s=0.0)


class TestNodeValidation:
    def test_rate_positive(self):
        with pytest.raises(ConfigurationError):
            SensorNode(rate_hz=0.0)

    def test_window_min(self):
        with pytest.raises(ConfigurationError):
            SensorNode(window=1)

    def test_hop_min(self):
        with pytest.raises(ConfigurationError):
            SensorNode(hop=0)

    def test_transition_nonnegative(self):
        with pytest.raises(ConfigurationError):
            SensorNode(transition_s=-1.0)

    def test_empty_scenario(self, rng):
        with pytest.raises(ConfigurationError):
            SensorNode().render_scenario([], rng)


class TestRenderScenario:
    def test_shapes(self, rng):
        node = SensorNode(rate_hz=100.0)
        signal, labels, transition = node.render_scenario(
            two_segment_scenario(), rng)
        assert signal.shape == (600, 3)
        assert labels.shape == (600,)
        assert transition.shape == (600,)

    def test_labels_follow_segments(self, rng):
        node = SensorNode(rate_hz=100.0, transition_s=0.0)
        _, labels, _ = node.render_scenario(two_segment_scenario(), rng)
        assert set(labels[:300]) == {LYING.index}
        assert set(labels[300:]) == {PLAYING.index}

    def test_transition_marked(self, rng):
        node = SensorNode(rate_hz=100.0, transition_s=0.5)
        _, _, transition = node.render_scenario(two_segment_scenario(), rng)
        # The crossfade lives at the start of the second segment.
        assert np.any(transition[300:350])
        assert not np.any(transition[:300])

    def test_short_segment_padded_to_window(self, rng):
        node = SensorNode(rate_hz=100.0, window=100)
        segments = [Segment(ACTIVITY_MODELS["lying"], duration_s=0.1)]
        signal, _, _ = node.render_scenario(segments, rng)
        assert signal.shape[0] >= 100


class TestStream:
    def test_window_objects(self, rng):
        node = SensorNode(rate_hz=100.0, window=100, hop=50)
        windows = node.collect(two_segment_scenario(), rng, AWAREPEN_CLASSES)
        assert len(windows) == (600 - 100) // 50 + 1
        assert all(isinstance(w, CueWindow) for w in windows)
        assert all(w.cues.shape == (3,) for w in windows)

    def test_majority_labels(self, rng):
        node = SensorNode(rate_hz=100.0, window=100, hop=50,
                          transition_s=0.0)
        windows = node.collect(two_segment_scenario(), rng, AWAREPEN_CLASSES)
        assert windows[0].true_context.index == LYING.index
        assert windows[-1].true_context.index == PLAYING.index

    def test_boundary_window_flagged_as_transition(self, rng):
        node = SensorNode(rate_hz=100.0, window=100, hop=50,
                          transition_s=0.0)
        windows = node.collect(two_segment_scenario(), rng, AWAREPEN_CLASSES)
        boundary = [w for w in windows if 200 < w.start_sample < 300]
        assert any(w.is_transition for w in boundary)

    def test_time_stamps(self, rng):
        node = SensorNode(rate_hz=100.0, window=100, hop=50)
        windows = node.collect(two_segment_scenario(), rng, AWAREPEN_CLASSES)
        assert windows[0].time_s == 0.0
        assert windows[1].time_s == pytest.approx(0.5)

    def test_missing_class_registration(self, rng):
        node = SensorNode()
        with pytest.raises(ConfigurationError):
            node.collect(two_segment_scenario(), rng, (WRITING,))

    def test_cue_separation_between_activities(self, rng):
        # Windowed std must separate lying from playing clearly.
        node = SensorNode(rate_hz=100.0, window=100, hop=100,
                          transition_s=0.0)
        windows = node.collect(two_segment_scenario(), rng, AWAREPEN_CLASSES)
        lying_cues = np.array([w.cues for w in windows
                               if w.true_context.index == LYING.index])
        playing_cues = np.array([w.cues for w in windows
                                 if w.true_context.index == PLAYING.index])
        assert lying_cues.mean() < 0.1
        assert playing_cues.mean() > 0.3


def reference_stream(node, segments, rng, classes):
    """The per-window definition of :meth:`SensorNode.stream`."""
    by_index = {c.index: c for c in classes}
    signal, labels, transition = node.render_scenario(segments, rng)
    out = []
    for start in range(0, signal.shape[0] - node.window + 1, node.hop):
        stop = start + node.window
        window_labels = labels[start:stop]
        majority = int(np.bincount(window_labels).argmax())
        if majority not in by_index:
            raise ConfigurationError(
                f"no ContextClass registered for index {majority}")
        out.append(CueWindow(
            start_sample=start,
            time_s=start / node.rate_hz,
            cues=node.cues.extract(signal[start:stop]),
            true_context=by_index[majority],
            is_transition=bool(np.any(transition[start:stop])
                               or len(np.unique(window_labels)) > 1)))
    return out


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.start_sample == w.start_sample
        assert g.time_s == w.time_s
        assert g.cues.shape == w.cues.shape
        assert np.array_equal(g.cues, w.cues)
        assert g.true_context == w.true_context
        assert g.is_transition is w.is_transition


class TestStreamMatchesReference:
    """The batched stream equals a per-window loop, field by field."""

    @pytest.mark.parametrize("window,hop,transition_s", [
        (100, 50, 0.5), (100, 50, 0.0), (64, 17, 0.3), (40, 120, 0.5),
        (100, 1, 0.5)])
    def test_matches_per_window_loop(self, window, hop, transition_s):
        node = SensorNode(rate_hz=100.0, window=window, hop=hop,
                          transition_s=transition_s)
        segments = [Segment(ACTIVITY_MODELS["writing"], duration_s=2.3),
                    Segment(ACTIVITY_MODELS["lying"], duration_s=1.7),
                    Segment(ACTIVITY_MODELS["playing"], duration_s=2.0),
                    Segment(ACTIVITY_MODELS["writing"], duration_s=1.1)]
        got = node.collect(segments, np.random.default_rng(5),
                           AWAREPEN_CLASSES)
        want = reference_stream(node, segments, np.random.default_rng(5),
                                AWAREPEN_CLASSES)
        assert_same_windows(got, want)

    def test_majority_tie_goes_to_smallest_index(self):
        # 3 s segments, 100-sample windows every 50: the window at 250
        # holds 50 playing then 50 lying samples.
        node = SensorNode(rate_hz=100.0, window=100, hop=50,
                          transition_s=0.0)
        segments = [Segment(ACTIVITY_MODELS["playing"], duration_s=3.0),
                    Segment(ACTIVITY_MODELS["lying"], duration_s=3.0)]
        got = node.collect(segments, np.random.default_rng(1),
                           AWAREPEN_CLASSES)
        tie = [w for w in got if w.start_sample == 250]
        assert len(tie) == 1
        assert LYING.index < PLAYING.index
        assert tie[0].true_context == LYING
        assert tie[0].is_transition
        assert_same_windows(got, reference_stream(
            node, segments, np.random.default_rng(1), AWAREPEN_CLASSES))

    def test_crossfade_and_boundary_flags(self):
        node = SensorNode(rate_hz=100.0, window=100, hop=25,
                          transition_s=0.5)
        got = node.collect(two_segment_scenario(),
                           np.random.default_rng(2), AWAREPEN_CLASSES)
        # Boundary at sample 300, crossfade over samples 300..349.
        flagged = [w.start_sample for w in got if w.is_transition]
        assert flagged == list(range(225, 350, 25))
        assert_same_windows(got, reference_stream(
            node, two_segment_scenario(), np.random.default_rng(2),
            AWAREPEN_CLASSES))

    def test_one_window_signal(self):
        node = SensorNode(rate_hz=100.0, window=100, hop=50)
        segments = [Segment(ACTIVITY_MODELS["writing"], duration_s=1.0)]
        got = node.collect(segments, np.random.default_rng(3),
                           AWAREPEN_CLASSES)
        assert len(got) == 1
        assert got[0].true_context == WRITING
        assert not got[0].is_transition
        assert_same_windows(got, reference_stream(
            node, segments, np.random.default_rng(3), AWAREPEN_CLASSES))

    def test_unregistered_class_raises_like_reference(self):
        node = SensorNode(rate_hz=100.0, window=100, hop=50)
        classes = (LYING, WRITING)
        with pytest.raises(ConfigurationError) as got:
            node.collect(two_segment_scenario(), np.random.default_rng(4),
                         classes)
        with pytest.raises(ConfigurationError) as want:
            reference_stream(node, two_segment_scenario(),
                             np.random.default_rng(4), classes)
        assert str(got.value) == str(want.value)
