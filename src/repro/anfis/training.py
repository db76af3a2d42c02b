"""Hybrid ANFIS learning (Jang 1993; paper section 2.2.4).

Each epoch consists of

* a **backward pass**: gradient descent on the Gaussian premise parameters
  against the squared error between designated and actual output, and
* a **forward pass**: a fresh SVD least-squares solve for the linear
  consequent parameters given the newly adapted membership functions.

"The hybrid learning stops for the data set used when a degradation of the
error for a different check data set is continuously observed" — i.e.
early stopping with patience on a held-out check set, returning the
best-check-error snapshot.

The learning rate follows Jang's adaptive step-size heuristics: increase
by ``step_increase`` after four consecutive error reductions, decrease by
``step_decrease`` after two consecutive up-down oscillations.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

import numpy as np

from .. import observability as obs
from ..exceptions import ConfigurationError, TrainingError
from ..fuzzy import kernels
from ..fuzzy.tsk import TSKSystem
from .cache import ForwardCache
from .gradient import apply_gradient_step, premise_gradients
from .lse import fit_consequents


@dataclasses.dataclass
class EpochRecord:
    """Errors and step size after one hybrid-learning epoch."""

    epoch: int
    train_rmse: float
    check_rmse: Optional[float]
    learning_rate: float


@dataclasses.dataclass
class TrainingReport:
    """Full history of a hybrid-learning run."""

    history: List[EpochRecord]
    best_epoch: int
    best_check_rmse: Optional[float]
    stopped_early: bool

    @property
    def n_epochs(self) -> int:
        return len(self.history)

    @property
    def final_train_rmse(self) -> float:
        return self.history[-1].train_rmse if self.history else float("nan")


def _rmse(system: TSKSystem, x: np.ndarray, y: np.ndarray,
          cache: Optional[ForwardCache] = None) -> float:
    # Single fused forward pass (one validation, one membership sweep);
    # with a matching cache the membership sweep is served from it and
    # only the consequent einsum runs.  The cached expression is the
    # same op sequence kernels.tsk_forward_components performs, so both
    # paths produce identical bits.
    if cache is not None and cache.matches(system, x):
        _, wbar, _ = cache.firing()
        f = kernels.rule_consequents(x, system.coefficients, system.order)
        err = np.sum(wbar * f, axis=1) - y
    else:
        err = system.evaluate_components(x).output - y
    return float(np.sqrt(np.mean(err ** 2)))


class HybridTrainer:
    """Configurable hybrid LSE + gradient-descent trainer.

    Parameters
    ----------
    epochs:
        Maximum epochs.
    learning_rate:
        Initial premise-parameter step size.
    patience:
        Consecutive epochs of check-set degradation tolerated before
        stopping early ("continuously observed" degradation).
    adapt_step:
        Enable Jang's step-size adaptation heuristics.
    step_increase, step_decrease:
        Multiplicative factors for the adaptation.
    min_sigma:
        Floor applied to Gaussian widths after every backward pass.
    use_cache:
        Reuse the premise-side firing sweep across the three per-epoch
        consumers (gradients, LSE design matrix, train RMSE) via a
        :class:`~repro.anfis.cache.ForwardCache`.  On by default; the cached
        run is bit-identical to the uncached one because cache hits
        return the very arrays the first computation produced.
    """

    def __init__(self, epochs: int = 50, learning_rate: float = 0.05,
                 patience: int = 5, adapt_step: bool = True,
                 step_increase: float = 1.1, step_decrease: float = 0.9,
                 min_sigma: float = 1e-4, use_cache: bool = True) -> None:
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be > 0, got {learning_rate}")
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if not step_increase > 1.0:
            raise ConfigurationError(
                f"step_increase must be > 1, got {step_increase}")
        if not 0.0 < step_decrease < 1.0:
            raise ConfigurationError(
                f"step_decrease must be in (0, 1), got {step_decrease}")
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.patience = int(patience)
        self.adapt_step = bool(adapt_step)
        self.step_increase = float(step_increase)
        self.step_decrease = float(step_decrease)
        self.min_sigma = float(min_sigma)
        self.use_cache = bool(use_cache)

    @obs.traced("anfis.train")
    def train(self, system: TSKSystem,
              x_train: np.ndarray, y_train: np.ndarray,
              x_check: Optional[np.ndarray] = None,
              y_check: Optional[np.ndarray] = None) -> TrainingReport:
        """Tune *system* in place; returns the training report.

        When a check set is supplied the system ends at the parameters of
        the epoch with the lowest check RMSE (early-stopping snapshot);
        otherwise at the final epoch.
        """
        x_train = np.asarray(x_train, dtype=float)
        y_train = np.asarray(y_train, dtype=float).ravel()
        if x_train.shape[0] != y_train.shape[0]:
            raise TrainingError(
                f"x_train has {x_train.shape[0]} samples but y_train has "
                f"{y_train.shape[0]}")
        has_check = x_check is not None and y_check is not None
        if has_check:
            x_check = np.asarray(x_check, dtype=float)
            y_check = np.asarray(y_check, dtype=float).ravel()
            if x_check.shape[0] != y_check.shape[0]:
                raise TrainingError("check set sizes do not match")

        lr = self.learning_rate
        history: List[EpochRecord] = []
        train_errors: List[float] = []
        best_check = np.inf
        best_epoch = 0
        best_snapshot = system.copy()
        degradation_streak = 0
        stopped_early = False
        cache = ForwardCache(system, x_train) if self.use_cache else None

        # Epoch 0 forward pass: fit consequents for the initial premises.
        coefficients, _ = fit_consequents(system, x_train, y_train,
                                          cache=cache)
        system.coefficients = coefficients

        for epoch in range(1, self.epochs + 1):
            epoch_start = time.perf_counter()
            # Backward pass: premise gradient step.
            grads = premise_gradients(system, x_train, y_train, cache=cache)
            apply_gradient_step(system, grads, lr, min_sigma=self.min_sigma)
            # Forward pass: re-fit consequents for the adapted premises.
            coefficients, _ = fit_consequents(system, x_train, y_train,
                                              cache=cache)
            system.coefficients = coefficients

            train_rmse = _rmse(system, x_train, y_train, cache=cache)
            check_rmse = (_rmse(system, x_check, y_check)
                          if has_check else None)
            history.append(EpochRecord(epoch=epoch, train_rmse=train_rmse,
                                       check_rmse=check_rmse,
                                       learning_rate=lr))
            train_errors.append(train_rmse)

            if obs.STATE.enabled:
                registry = obs.get_registry()
                registry.inc("anfis.epochs_total")
                registry.observe("anfis.epoch_wall_s",
                                 time.perf_counter() - epoch_start)
                registry.set_gauge("anfis.train_rmse", train_rmse)
                registry.observe("anfis.epoch_train_rmse", train_rmse,
                                 edges=obs.LOSS_EDGES)
                if check_rmse is not None:
                    registry.set_gauge("anfis.check_rmse", check_rmse)
                    registry.observe("anfis.epoch_check_rmse", check_rmse,
                                     edges=obs.LOSS_EDGES)

            if self.adapt_step:
                lr = self._adapted_rate(lr, train_errors)

            if has_check:
                if check_rmse < best_check - 1e-12:
                    best_check = check_rmse
                    best_epoch = epoch
                    best_snapshot = system.copy()
                    degradation_streak = 0
                else:
                    degradation_streak += 1
                    if degradation_streak >= self.patience:
                        stopped_early = True
                        break
            else:
                best_epoch = epoch

        if has_check:
            system.means = best_snapshot.means
            system.sigmas = best_snapshot.sigmas
            system.coefficients = best_snapshot.coefficients

        if obs.STATE.enabled:
            span = obs.current_span()
            if span is not None and span.name == "anfis.train":
                span.attrs.update(n_epochs=len(history),
                                  best_epoch=best_epoch,
                                  stopped_early=stopped_early)

        return TrainingReport(
            history=history,
            best_epoch=best_epoch,
            best_check_rmse=None if not has_check else float(best_check),
            stopped_early=stopped_early,
        )

    def _adapted_rate(self, lr: float, errors: List[float]) -> float:
        """Jang's two heuristics on the recent training-error trajectory."""
        if len(errors) >= 5:
            last = errors[-5:]
            if all(last[i + 1] < last[i] for i in range(4)):
                return lr * self.step_increase
        if len(errors) >= 5:
            e = errors[-5:]
            if (e[1] > e[0] and e[2] < e[1] and e[3] > e[2] and e[4] < e[3]):
                return lr * self.step_decrease
        return lr
