"""Cross-cutting property and seed-robustness tests.

The reproduction must not be a single lucky seed: the pipeline's
qualitative properties have to hold across data seeds, and the library's
accounting identities have to hold for arbitrary inputs (hypothesis).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.normalization import normalize_array, normalize_scalar
from repro.stats.metrics import filter_outcome
from repro.experiment import run_awarepen_experiment


@pytest.mark.parametrize("seed", [3, 11, 19, 42])
class TestSeedRobustness:
    """The paper's qualitative results across independent data seeds."""

    @pytest.fixture()
    def result(self, seed):
        return run_awarepen_experiment(seed=seed)

    def test_threshold_well_placed(self, seed, result):
        assert 0.0 < result.threshold < 1.0
        est = result.calibration.estimates
        assert est.right.mu > est.wrong.mu
        assert est.wrong.mu < result.threshold < est.right.mu

    def test_filtering_never_hurts_much(self, seed, result):
        outcome = result.evaluation_outcome
        # Filtering must not reduce accuracy by more than noise allows.
        assert outcome.accuracy_after >= outcome.accuracy_before - 0.05

    def test_accounting_identities(self, seed, result):
        outcome = result.evaluation_outcome
        assert outcome.n_kept + outcome.n_discarded == outcome.n_total
        assert outcome.n_wrong_kept <= outcome.n_wrong_total
        assert outcome.n_right_discarded <= outcome.n_total
        assert 0.0 <= outcome.discard_fraction <= 1.0
        assert 0.0 <= outcome.wrong_elimination <= 1.0

    def test_qualities_in_codomain(self, seed, result):
        q = result.evaluation_qualities
        defined = q[~np.isnan(q)]
        assert np.all((defined >= 0.0) & (defined <= 1.0))

    def test_quality_separates_on_average(self, seed, result):
        q = result.evaluation_qualities
        correct = result.evaluation_correct
        usable = ~np.isnan(q)
        if np.any(usable & correct) and np.any(usable & ~correct):
            assert (np.mean(q[usable & correct])
                    > np.mean(q[usable & ~correct]))


class TestNormalizationProperties:
    @given(x=st.floats(-0.5, 1.5, allow_nan=False))
    def test_idempotent_on_mappable_band(self, x):
        once = normalize_scalar(x)
        assert once is not None
        twice = normalize_scalar(once)
        assert twice == pytest.approx(once)

    @given(xs=st.lists(st.floats(-10, 10, allow_nan=False),
                       min_size=1, max_size=50))
    def test_array_scalar_agreement(self, xs):
        arr = normalize_array(np.array(xs))
        for x, q in zip(xs, arr):
            scalar = normalize_scalar(x)
            if scalar is None:
                assert np.isnan(q)
            else:
                assert q == pytest.approx(scalar)

    @pytest.mark.parametrize("edge", [-0.5, -0.0, 0.0, 1.0, 1.5])
    def test_scalar_equals_array_at_band_edges(self, edge):
        """``L`` agrees bit for bit across both APIs at each band edge,
        its floating-point neighbours, and the non-finite inputs."""
        xs = np.array([np.nextafter(edge, -np.inf), edge,
                       np.nextafter(edge, np.inf),
                       np.inf, -np.inf, np.nan])
        arr = normalize_array(xs)
        for x, q in zip(xs, arr):
            scalar = normalize_scalar(x)
            if scalar is None:
                assert np.isnan(q), x
            else:
                assert np.float64(scalar).tobytes() == q.tobytes(), x

    @given(x=st.floats(-0.5, 1.5, allow_nan=False))
    def test_symmetry_about_half(self, x):
        """L(x) and L(1 - x) are reflections: L(1-x) = 1 - L(x) on the
        mappable band (the designated outputs 0 and 1 are symmetric)."""
        a = normalize_scalar(x)
        b = normalize_scalar(1.0 - x)
        assert a is not None and b is not None
        assert b == pytest.approx(1.0 - a, abs=1e-12)


class TestFilterOutcomeProperties:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_accounting_for_random_inputs(self, data):
        n = data.draw(st.integers(1, 60))
        correct = np.array(data.draw(st.lists(st.booleans(),
                                              min_size=n, max_size=n)))
        qualities = np.array(data.draw(st.lists(
            st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)))
        threshold = data.draw(st.floats(0, 1, allow_nan=False))
        outcome = filter_outcome(correct, qualities, threshold)
        assert outcome.n_kept + outcome.n_discarded == n
        assert outcome.n_wrong_total == int(np.sum(~correct))
        assert 0.0 <= outcome.accuracy_before <= 1.0
        assert 0.0 <= outcome.accuracy_after <= 1.0
        # Kept wrong plus removed wrong equals total wrong.
        removed_wrong = (outcome.n_discarded - outcome.n_right_discarded)
        assert outcome.n_wrong_kept + removed_wrong == outcome.n_wrong_total

    @settings(max_examples=50)
    @given(threshold=st.floats(0, 1, allow_nan=False))
    def test_perfect_scores_give_perfect_filtering(self, threshold):
        correct = np.array([True] * 10 + [False] * 5)
        qualities = np.where(correct, 1.0, 0.0)
        outcome = filter_outcome(correct, qualities, threshold)
        if threshold < 1.0:
            assert outcome.n_wrong_kept == 0
            assert outcome.accuracy_after == 1.0


class TestQualityMeasureBatchAgreement:
    """``measure`` and ``measure_batch`` are the same function: batch
    entry i must equal the scalar call on row i bit for bit, with the
    scalar ``None`` epsilon matching the batch ``NaN``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_elementwise_agreement(self, data, experiment):
        quality = experiment.augmented.quality
        n = data.draw(st.integers(1, 12))
        # Far-field values (|v| up to 1e3, +-inf) drive every rule
        # weight to zero: the uniform-weight fallback branch.
        cue_value = st.one_of(st.floats(-6, 6, allow_nan=False),
                              st.floats(-1e3, 1e3, allow_nan=False),
                              st.sampled_from([float("nan"), float("inf"),
                                               float("-inf")]))
        cues = np.array(data.draw(st.lists(
            st.lists(cue_value, min_size=quality.n_cues,
                     max_size=quality.n_cues),
            min_size=n, max_size=n)))
        indices = np.array(data.draw(st.lists(
            st.integers(0, 4), min_size=n, max_size=n)))
        with np.errstate(invalid="ignore"):  # inf - inf in the output
            batch = quality.measure_batch(cues, indices)
            scalars = [quality.measure(cues[i], int(indices[i]))
                       for i in range(n)]
        assert batch.shape == (n,)
        for i, scalar in enumerate(scalars):
            if scalar is None:
                assert np.isnan(batch[i]), (
                    f"row {i}: scalar epsilon but batch {batch[i]!r}")
            else:
                assert not np.isnan(batch[i])
                assert batch[i] == scalar

    def test_nan_cues_force_epsilon_both_ways(self, experiment):
        quality = experiment.augmented.quality
        cues = np.full((3, quality.n_cues), np.nan)
        batch = quality.measure_batch(cues, np.zeros(3))
        assert np.all(np.isnan(batch))
        assert quality.measure(cues[0], 0) is None
