"""Regression: the epoch-level forward cache must not change training.

``HybridTrainer`` reuses the premise-side firing sweep across the
per-epoch gradient, LSE and RMSE consumers.  These tests pin the
contract that the cached run is *bit-identical* to the uncached one and
that the cache actually removes the redundant sweeps it claims to.
"""

import numpy as np
import pytest

from repro.anfis.training import HybridTrainer
from repro.fuzzy import kernels
from repro.fuzzy.tsk import TSKSystem


@pytest.fixture
def workload(rng):
    x = rng.normal(size=(96, 3))
    y = (rng.random(96) > 0.5).astype(float)
    means = rng.normal(size=(4, 3))
    sigmas = rng.uniform(0.5, 2.0, size=(4, 3))
    coefficients = rng.normal(size=(4, 4))
    template = TSKSystem(means, sigmas, coefficients, order=1)
    return x, y, template


def _train(template, x, y, use_cache, check=True):
    system = template.copy()
    trainer = HybridTrainer(epochs=12, use_cache=use_cache, patience=4)
    kwargs = (dict(x_check=x[:32], y_check=y[:32]) if check else {})
    report = trainer.train(system, x, y, **kwargs)
    return system, report


class TestCachedTrainingBitIdentity:
    def test_trained_parameters_identical(self, workload):
        x, y, template = workload
        cached, rep_c = _train(template, x, y, True)
        plain, rep_p = _train(template, x, y, False)
        assert np.array_equal(cached.means, plain.means)
        assert np.array_equal(cached.sigmas, plain.sigmas)
        assert np.array_equal(cached.coefficients, plain.coefficients)

    def test_history_identical(self, workload):
        x, y, template = workload
        _, rep_c = _train(template, x, y, True)
        _, rep_p = _train(template, x, y, False)
        assert [(e.train_rmse, e.check_rmse, e.learning_rate)
                for e in rep_c.history] == \
               [(e.train_rmse, e.check_rmse, e.learning_rate)
                for e in rep_p.history]
        assert rep_c.best_epoch == rep_p.best_epoch
        assert rep_c.stopped_early == rep_p.stopped_early

    def test_no_check_set_path_identical(self, workload):
        x, y, template = workload
        cached, _ = _train(template, x, y, True, check=False)
        plain, _ = _train(template, x, y, False, check=False)
        assert np.array_equal(cached.coefficients, plain.coefficients)


class TestCacheEffectiveness:
    def test_one_firing_sweep_per_epoch(self, workload, monkeypatch):
        """Cache on: epoch 0 pays one sweep, then one per gradient step.

        Uncached, every epoch pays three (gradients, design matrix,
        train RMSE).  Counted by intercepting the firing kernel.
        """
        x, y, template = workload
        calls = {"n": 0}
        original = kernels.firing_strengths

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "firing_strengths", counting)
        epochs = 6
        system = template.copy()
        HybridTrainer(epochs=epochs, use_cache=True).train(system, x, y)
        cached_calls = calls["n"]

        calls["n"] = 0
        system = template.copy()
        HybridTrainer(epochs=epochs, use_cache=False).train(system, x, y)
        uncached_calls = calls["n"]

        # epoch-0 fit + one recompute per epoch's gradient step.
        assert cached_calls == 1 + epochs
        # epoch-0 fit + (gradient, LSE, RMSE) per epoch.
        assert uncached_calls == 1 + 3 * epochs
