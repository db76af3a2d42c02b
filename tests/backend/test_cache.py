"""ForwardCache keying, invalidation, and bit-identical reuse.

The cache lives in :mod:`repro.anfis.cache`; this module keeps its
original location so the test IDs stay stable.
"""

import numpy as np
import pytest

from repro.anfis.cache import ForwardCache
from repro.anfis.gradient import (PremiseGradients, apply_gradient_step,
                                  premise_gradients)
from repro.anfis.lse import design_matrix
from repro.fuzzy.tsk import TSKSystem


@pytest.fixture
def system(rng):
    means = rng.normal(size=(3, 2))
    sigmas = rng.uniform(0.5, 2.0, size=(3, 2))
    coefficients = rng.normal(size=(3, 3))
    return TSKSystem(means, sigmas, coefficients, order=1)


@pytest.fixture
def x(rng):
    return rng.normal(size=(32, 2))


class TestForwardCache:
    def test_hit_returns_identical_arrays(self, system, x):
        cache = ForwardCache(system, x)
        first = cache.firing()
        second = cache.firing()
        assert cache.misses == 1 and cache.hits == 1
        for a, b in zip(first, second):
            assert a is b

    def test_matches_is_identity_based(self, system, x):
        cache = ForwardCache(system, x)
        assert cache.matches(system, x)
        assert not cache.matches(system, x.copy())
        assert not cache.matches(system.copy(), x)

    def test_gradient_step_invalidates(self, system, x):
        cache = ForwardCache(system, x)
        w_before, _, _ = cache.firing()
        grads = premise_gradients(system, x, np.zeros(x.shape[0]))
        apply_gradient_step(system, grads, learning_rate=0.05)
        w_after, _, _ = cache.firing()
        assert cache.misses == 2
        assert w_after is not w_before

    def test_rebinding_premises_invalidates(self, system, x):
        cache = ForwardCache(system, x)
        cache.firing()
        system.means = system.means.copy()   # snapshot-restore pattern
        cache.firing()
        assert cache.misses == 2

    def test_cached_firing_matches_system(self, system, x):
        cache = ForwardCache(system, x)
        w, wbar, total = cache.firing()
        assert np.array_equal(w, system.firing_strengths(x))
        assert np.array_equal(wbar, system.normalized_firing_strengths(x))
        assert np.array_equal(total, np.sum(w, axis=1))


class TestCachedConsumers:
    def test_design_matrix_cached_is_bit_identical(self, system, x):
        cache = ForwardCache(system, x)
        a_cached = design_matrix(system, x, cache=cache)
        a_plain = design_matrix(system, x)
        assert cache.misses == 1
        assert np.array_equal(a_cached, a_plain)

    def test_gradients_cached_are_bit_identical(self, system, x, rng):
        y = (rng.random(x.shape[0]) > 0.5).astype(float)
        cache = ForwardCache(system, x)
        with_cache = premise_gradients(system, x, y, cache=cache)
        without = premise_gradients(system, x, y)
        assert cache.misses == 1
        assert np.array_equal(with_cache.d_means, without.d_means)
        assert np.array_equal(with_cache.d_sigmas, without.d_sigmas)
        assert with_cache.loss == without.loss

    def test_unmatched_cache_is_ignored(self, system, x, rng):
        """A cache bound to different data must never be consulted."""
        other = rng.normal(size=(8, 2))
        cache = ForwardCache(system, other)
        y = np.zeros(x.shape[0])
        grads = premise_gradients(system, x, y, cache=cache)
        assert isinstance(grads, PremiseGradients)
        assert cache.misses == 0 and cache.hits == 0

    def test_premise_version_counts_steps(self, system, x):
        y = np.zeros(x.shape[0])
        assert system.premise_version == 0
        for step in range(1, 4):
            grads = premise_gradients(system, x, y)
            apply_gradient_step(system, grads, learning_rate=0.01)
            assert system.premise_version == step

    def test_copy_resets_version_but_not_sharing(self, system):
        system.touch_premises()
        clone = system.copy()
        assert clone.premise_version == 0
        assert clone.means is not system.means
