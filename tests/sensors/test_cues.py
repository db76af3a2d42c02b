"""Tests for repro.sensors.cues — cue extraction pipelines."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import ConfigurationError, DimensionError
from repro.sensors.cues import (AWAREPEN_CUES, CueExtractor, CuePipeline,
                                EnergyCue, MeanCrossingRateCue, MeanCue,
                                RangeCue, StdCue, sliding_window_matrix,
                                sliding_windows)


class TestSlidingWindows:
    def test_counts_and_starts(self):
        signal = np.zeros((10, 2))
        windows = list(sliding_windows(signal, window=4, hop=2))
        assert [s for s, _ in windows] == [0, 2, 4, 6]
        assert all(w.shape == (4, 2) for _, w in windows)

    def test_tail_dropped(self):
        signal = np.zeros((7, 1))
        windows = list(sliding_windows(signal, window=4, hop=4))
        assert len(windows) == 1

    def test_validation(self):
        with pytest.raises(DimensionError):
            list(sliding_windows(np.zeros(5), 2, 1))
        with pytest.raises(ConfigurationError):
            list(sliding_windows(np.zeros((5, 1)), 0, 1))
        with pytest.raises(ConfigurationError):
            list(sliding_windows(np.zeros((5, 1)), 2, 0))


class TestStdCue:
    def test_matches_numpy(self, rng):
        window = rng.normal(size=(50, 3))
        np.testing.assert_allclose(StdCue().extract(window),
                                   np.std(window, axis=0))

    def test_constant_window_is_zero(self):
        window = np.ones((20, 3))
        np.testing.assert_allclose(StdCue().extract(window), 0.0)

    def test_names(self):
        assert StdCue().cue_names(3) == ["std_x", "std_y", "std_z"]

    def test_too_short_window(self):
        with pytest.raises(DimensionError):
            StdCue().extract(np.zeros((1, 3)))


class TestOtherCues:
    def test_mean(self, rng):
        window = rng.normal(2.0, 1.0, size=(100, 2))
        out = MeanCue().extract(window)
        np.testing.assert_allclose(out, np.mean(window, axis=0))

    def test_energy_is_std_for_zero_mean(self, rng):
        window = rng.normal(size=(200, 3))
        np.testing.assert_allclose(EnergyCue().extract(window),
                                   np.std(window, axis=0), rtol=1e-10)

    def test_range(self):
        window = np.array([[0.0, -1.0], [2.0, 3.0], [1.0, 1.0]])
        np.testing.assert_allclose(RangeCue().extract(window), [2.0, 4.0])

    def test_mcr_alternating(self):
        window = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])
        out = MeanCrossingRateCue().extract(window)
        assert out[0] == pytest.approx(1.0)

    def test_mcr_constant_signal(self):
        window = np.zeros((10, 2))
        out = MeanCrossingRateCue().extract(window)
        np.testing.assert_allclose(out, 0.0)


class TestCuePipeline:
    def test_concatenation(self, rng):
        pipeline = CuePipeline(extractors=(StdCue(), MeanCue()))
        window = rng.normal(size=(50, 3))
        out = pipeline.extract(window)
        assert out.shape == (6,)
        np.testing.assert_allclose(out[:3], np.std(window, axis=0))
        np.testing.assert_allclose(out[3:], np.mean(window, axis=0))

    def test_names(self):
        pipeline = CuePipeline(extractors=(StdCue(), RangeCue()))
        assert pipeline.cue_names(2) == ["std_x", "std_y",
                                         "range_x", "range_y"]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            CuePipeline(extractors=())

    def test_extract_all(self, rng):
        pipeline = AWAREPEN_CUES
        signal = rng.normal(size=(100, 3))
        starts, cues = pipeline.extract_all(signal, window=20, hop=10)
        assert len(starts) == 9
        assert cues.shape == (9, 3)

    def test_extract_all_signal_too_short(self, rng):
        with pytest.raises(DimensionError):
            AWAREPEN_CUES.extract_all(rng.normal(size=(5, 3)),
                                      window=20, hop=10)

    def test_awarepen_default_is_std_only(self):
        assert AWAREPEN_CUES.cue_names(3) == ["std_x", "std_y", "std_z"]


class TestSlidingWindowMatrix:
    @pytest.mark.parametrize("n,window,hop", [
        (10, 4, 2),     # clean tiling
        (7, 4, 4),      # ragged tail dropped
        (100, 20, 7),   # hop not dividing anything
        (5, 5, 1),      # exactly one window
        (4, 5, 1),      # signal shorter than window
    ])
    def test_matches_generator(self, n, window, hop):
        rng = np.random.default_rng(n * 1000 + window * 10 + hop)
        signal = rng.normal(size=(n, 2))
        starts, windows = sliding_window_matrix(signal, window, hop)
        expected = list(sliding_windows(signal, window, hop))
        assert list(starts) == [s for s, _ in expected]
        assert windows.shape == (len(expected), window, 2)
        for i, (_, w) in enumerate(expected):
            np.testing.assert_array_equal(windows[i], w)

    def test_validation_mirrors_generator(self):
        with pytest.raises(DimensionError):
            sliding_window_matrix(np.zeros(5), 2, 1)
        with pytest.raises(ConfigurationError):
            sliding_window_matrix(np.zeros((5, 1)), 0, 1)
        with pytest.raises(ConfigurationError):
            sliding_window_matrix(np.zeros((5, 1)), 2, 0)

    def test_view_is_zero_copy_for_hop_one(self):
        signal = np.arange(20.0).reshape(10, 2)
        _, windows = sliding_window_matrix(signal, 4, 1)
        assert np.shares_memory(windows, signal)


class _MedianCue(CueExtractor):
    """Scalar-only extractor: exercises the batch fallback loop."""

    def extract(self, window):
        return np.median(np.asarray(window, dtype=float), axis=0)

    def cue_names(self, n_axes):
        return [f"median_{i}" for i in range(n_axes)]


class TestBatchedExtraction:
    EXTRACTORS = (StdCue(), MeanCue(), EnergyCue(), RangeCue(),
                  MeanCrossingRateCue())

    @pytest.mark.parametrize("extractor", EXTRACTORS,
                             ids=lambda e: type(e).__name__)
    def test_builtin_batch_matches_per_window(self, extractor, rng):
        _, windows = sliding_window_matrix(rng.normal(size=(120, 3)), 25, 10)
        batch = extractor.extract_batch(windows)
        loop = np.vstack([extractor.extract(w) for w in windows])
        assert batch.shape == loop.shape
        np.testing.assert_array_equal(batch, loop)

    def test_base_class_fallback_loop(self, rng):
        _, windows = sliding_window_matrix(rng.normal(size=(60, 2)), 10, 5)
        cue = _MedianCue()
        batch = cue.extract_batch(windows)
        loop = np.vstack([cue.extract(w) for w in windows])
        np.testing.assert_array_equal(batch, loop)

    def test_batch_dimension_validated(self):
        with pytest.raises(DimensionError):
            StdCue().extract_batch(np.zeros((4, 10)))
        with pytest.raises(DimensionError):
            StdCue().extract_batch(np.zeros((4, 1, 3)))

    def test_pipeline_batch_stacks_columns(self, rng):
        pipeline = CuePipeline(extractors=(StdCue(), _MedianCue()))
        _, windows = sliding_window_matrix(rng.normal(size=(80, 3)), 20, 10)
        batch = pipeline.extract_batch(windows)
        loop = np.vstack([pipeline.extract(w) for w in windows])
        assert batch.shape == loop.shape == (len(windows), 6)
        np.testing.assert_array_equal(batch, loop)


class TestExtractAllEquivalence:
    """``extract_all`` equals extracting each sliding window on its own."""

    @given(n_samples=st.integers(5, 150),
           window=st.integers(2, 40),
           hop=st.integers(1, 45),
           n_axes=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_generator(self, n_samples, window, hop,
                                       n_axes, seed):
        """Bit-identical for ``n_axes >= 2`` (every zoo sensor is 3-axis).

        A one-axis window is a single contiguous column, which numpy
        sums pairwise in :meth:`extract`, while the batched layout sums
        it in sequence; the two may differ by an ulp there (found at
        ``n_samples=9, window=8, hop=1``), so that case keeps a tolerance.
        """
        assume(n_samples >= window)
        signal = np.random.default_rng(seed).normal(size=(n_samples, n_axes))
        pipeline = CuePipeline(extractors=(StdCue(), MeanCue(), RangeCue()))
        reference = [(start, pipeline.extract(win))
                     for start, win in sliding_windows(signal, window, hop)]
        starts_gen = np.array([start for start, _ in reference])
        cues_gen = np.vstack([cues for _, cues in reference])
        starts_bat, cues_bat = pipeline.extract_all(signal, window, hop)
        np.testing.assert_array_equal(starts_gen, starts_bat)
        assert cues_gen.shape == cues_bat.shape
        if n_axes >= 2:
            np.testing.assert_array_equal(cues_bat, cues_gen)
        else:
            np.testing.assert_allclose(cues_bat, cues_gen,
                                       rtol=1e-10, atol=1e-12)

    def test_both_paths_reject_short_signal(self, rng):
        signal = rng.normal(size=(5, 3))
        assert list(sliding_windows(signal, window=20, hop=10)) == []
        with pytest.raises(DimensionError):
            AWAREPEN_CUES.extract_all(signal, window=20, hop=10)
