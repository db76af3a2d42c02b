"""Generalized-bell TSK systems and their hybrid training.

Jang's original ANFIS (1993) uses generalized bell membership functions

.. math::

    F_{ij}(x) = \\frac{1}{1 + |(x - c_{ij}) / a_{ij}|^{2 b_{ij}}}

where ``a`` controls the width, ``b`` the slope and ``c`` the center.
The paper's quality FIS uses Gaussians instead; this module provides the
bell alternative — inference, analytic premise gradients and a hybrid
trainer — so the antecedent-shape design choice can be ablated (see the
``conseq-linear``-style antecedent bench).

:class:`BellTSKSystem` is duck-type compatible with
:class:`repro.fuzzy.tsk.TSKSystem` for everything the LSE layer needs
(``n_rules``, ``n_inputs``, ``order``, ``normalized_firing_strengths``,
``rule_outputs``), so :func:`repro.anfis.lse.fit_consequents` works on it
unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..exceptions import ConfigurationError, DimensionError, TrainingError
from ..fuzzy.kernels import WEIGHT_FLOOR
from .lse import fit_consequents

#: Guards against division blow-ups at rule centers and dead inputs.
_MF_FLOOR = 1e-12
#: Slope parameters are kept at or above this so the gradients stay
#: defined (b < 1 makes dF/dc singular at the center).
_MIN_B = 1.0
_MIN_A = 1e-4


class BellTSKSystem:
    """TSK system with generalized-bell antecedents.

    Parameters
    ----------
    a, b, c:
        Arrays of shape ``(n_rules, n_inputs)``: widths (> 0), slopes
        (>= 1) and centers.
    coefficients:
        ``(n_rules, n_inputs + 1)`` consequent coefficients (last column
        is the constant term).
    order:
        0 (constant consequents) or 1 (linear consequents).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 coefficients: np.ndarray, order: int = 1) -> None:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        coefficients = np.asarray(coefficients, dtype=float)
        if order not in (0, 1):
            raise ConfigurationError(f"order must be 0 or 1, got {order}")
        if a.ndim != 2 or a.shape != b.shape or a.shape != c.shape:
            raise DimensionError(
                f"a/b/c must share a 2-D shape, got {a.shape}, {b.shape}, "
                f"{c.shape}")
        n_rules, n_inputs = a.shape
        if coefficients.shape != (n_rules, n_inputs + 1):
            raise DimensionError(
                f"coefficients must have shape {(n_rules, n_inputs + 1)}, "
                f"got {coefficients.shape}")
        if np.any(a <= 0):
            raise ConfigurationError("all widths a must be > 0")
        if np.any(b < _MIN_B):
            raise ConfigurationError(f"all slopes b must be >= {_MIN_B}")
        self.a = a
        self.b = b
        self.c = c
        self.coefficients = coefficients
        self.order = order

    # -- introspection --------------------------------------------------
    @property
    def n_rules(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.a.shape[1]

    def copy(self) -> "BellTSKSystem":
        return BellTSKSystem(self.a.copy(), self.b.copy(), self.c.copy(),
                             self.coefficients.copy(), order=self.order)

    # -- inference -------------------------------------------------------
    def _validate_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise DimensionError(
                f"input must have {self.n_inputs} columns, got {x.shape}")
        return x

    def memberships(self, x: np.ndarray) -> np.ndarray:
        """Bell memberships, shape ``(n_samples, n_rules, n_inputs)``."""
        x = self._validate_input(x)
        z = np.abs((x[:, None, :] - self.c[None, :, :]) / self.a[None, :, :])
        return 1.0 / (1.0 + z ** (2.0 * self.b[None, :, :]))

    def firing_strengths(self, x: np.ndarray) -> np.ndarray:
        return np.prod(self.memberships(x), axis=2)

    def normalized_firing_strengths(self, x: np.ndarray) -> np.ndarray:
        w = self.firing_strengths(x)
        total = np.sum(w, axis=1, keepdims=True)
        dead = total <= WEIGHT_FLOOR
        wbar = w / np.where(dead, 1.0, total)
        if np.any(dead):
            wbar = np.where(dead, 1.0 / self.n_rules, wbar)
        return wbar

    def rule_outputs(self, x: np.ndarray) -> np.ndarray:
        x = self._validate_input(x)
        if self.order == 0:
            return np.broadcast_to(self.coefficients[:, -1],
                                   (x.shape[0], self.n_rules)).copy()
        return x @ self.coefficients[:, :-1].T + self.coefficients[:, -1]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x2 = self._validate_input(x)
        wbar = self.normalized_firing_strengths(x2)
        return np.sum(wbar * self.rule_outputs(x2), axis=1)


def bell_fis_from_clusters(centers: np.ndarray, widths: np.ndarray,
                           order: int = 1, slope: float = 2.0
                           ) -> BellTSKSystem:
    """Initial bell system from cluster centers and per-dimension widths.

    The bell half-width ``a`` is set to the Gaussian-equivalent width,
    slopes start at *slope* everywhere.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2:
        raise DimensionError(
            f"centers must be 2-D, got shape {centers.shape}")
    m, d = centers.shape
    widths = np.asarray(widths, dtype=float)
    if widths.shape == (d,):
        widths = np.tile(widths, (m, 1))
    if widths.shape != (m, d):
        raise DimensionError(
            f"widths must broadcast to {(m, d)}, got {widths.shape}")
    a = np.maximum(widths * np.sqrt(2.0), _MIN_A)
    b = np.full((m, d), max(float(slope), _MIN_B))
    coefficients = np.zeros((m, d + 1))
    return BellTSKSystem(a=a, b=b, c=centers.copy(),
                         coefficients=coefficients, order=order)


@dataclasses.dataclass(frozen=True)
class BellGradients:
    """Gradients of the half-MSE loss w.r.t. the bell parameters."""

    d_a: np.ndarray
    d_b: np.ndarray
    d_c: np.ndarray
    loss: float


def bell_premise_gradients(system: BellTSKSystem, x: np.ndarray,
                           y: np.ndarray) -> BellGradients:
    """Analytic gradients of ``0.5 * mean((S(x) - y)^2)``.

    With ``u = ((x - c)/a)^2`` and ``F = 1 / (1 + u^b)``:

    * ``dF/da =  2 b u^b F^2 / a``
    * ``dF/dc =  2 b u^{b-1} (x - c) F^2 / a^2``
    * ``dF/db = -F^2 u^b ln(u)``  (0 at ``u = 0``)

    and ``dw/dF_ij = w / F_ij`` by the product rule.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[1] != system.n_inputs:
        raise DimensionError(
            f"x must have shape (n, {system.n_inputs}), got {x.shape}")
    if y.shape[0] != x.shape[0]:
        raise DimensionError(
            f"y must have {x.shape[0]} entries, got {y.shape[0]}")
    n = x.shape[0]

    memberships = system.memberships(x)                  # (N, m, d)
    w = np.prod(memberships, axis=2)                     # (N, m)
    f = system.rule_outputs(x)                           # (N, m)
    total = np.maximum(np.sum(w, axis=1), WEIGHT_FLOOR)
    s = np.sum(w * f, axis=1) / total
    err = s - y
    dl_dw = (err / total)[:, None] * (f - s[:, None])    # (N, m)

    diff = x[:, None, :] - system.c[None, :, :]          # (N, m, d)
    a3 = system.a[None, :, :]
    b3 = system.b[None, :, :]
    u = (diff / a3) ** 2                                 # (N, m, d)
    f_mf = np.maximum(memberships, _MF_FLOOR)
    f_sq = f_mf * f_mf
    u_b = np.where(u > 0, u ** b3, 0.0)
    # u^{b-1} (x - c): rewrite as u^b * a^2 / (x - c) is singular; use
    # u^{b-1} directly with the zero-u guard (b >= 1 keeps it finite).
    u_bm1 = np.where(u > 0, u ** (b3 - 1.0), 0.0)

    df_da = 2.0 * b3 * u_b * f_sq / a3
    df_dc = 2.0 * b3 * u_bm1 * diff * f_sq / (a3 * a3)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.where(u > 0, np.log(u), 0.0)
    df_db = -f_sq * u_b * log_u

    w_over_f = w[:, :, None] / f_mf                      # dw/dF = w / F
    dl3 = dl_dw[:, :, None]
    d_a = np.sum(dl3 * w_over_f * df_da, axis=0) / n
    d_b = np.sum(dl3 * w_over_f * df_db, axis=0) / n
    d_c = np.sum(dl3 * w_over_f * df_dc, axis=0) / n
    loss = float(0.5 * np.mean(err ** 2))
    return BellGradients(d_a=d_a, d_b=d_b, d_c=d_c, loss=loss)


def apply_bell_gradient_step(system: BellTSKSystem, grads: BellGradients,
                             learning_rate: float) -> None:
    """Descend the bell gradients in place with parameter floors."""
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    system.a -= learning_rate * grads.d_a
    system.b -= learning_rate * grads.d_b
    system.c -= learning_rate * grads.d_c
    np.maximum(system.a, _MIN_A, out=system.a)
    np.maximum(system.b, _MIN_B, out=system.b)


class BellHybridTrainer:
    """Hybrid LSE + gradient training for bell TSK systems.

    Mirrors :class:`repro.anfis.training.HybridTrainer`: backward pass on
    the bell premise parameters, forward LSE pass on the consequents,
    early stopping on a check set.
    """

    def __init__(self, epochs: int = 50, learning_rate: float = 0.02,
                 patience: int = 5) -> None:
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be > 0, got {learning_rate}")
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.patience = int(patience)

    def train(self, system: BellTSKSystem,
              x_train: np.ndarray, y_train: np.ndarray,
              x_check: Optional[np.ndarray] = None,
              y_check: Optional[np.ndarray] = None) -> List[float]:
        """Tune *system* in place; returns per-epoch train RMSE."""
        x_train = np.asarray(x_train, dtype=float)
        y_train = np.asarray(y_train, dtype=float).ravel()
        if x_train.shape[0] != y_train.shape[0]:
            raise TrainingError("x_train/y_train size mismatch")
        has_check = x_check is not None and y_check is not None

        coefficients, _ = fit_consequents(system, x_train, y_train)
        system.coefficients = coefficients

        history: List[float] = []
        best_check = np.inf
        best = system.copy()
        streak = 0
        for _ in range(self.epochs):
            grads = bell_premise_gradients(system, x_train, y_train)
            apply_bell_gradient_step(system, grads, self.learning_rate)
            coefficients, _ = fit_consequents(system, x_train, y_train)
            system.coefficients = coefficients
            train_rmse = float(np.sqrt(np.mean(
                (system.evaluate(x_train) - y_train) ** 2)))
            history.append(train_rmse)
            if has_check:
                check_rmse = float(np.sqrt(np.mean(
                    (system.evaluate(x_check) - y_check) ** 2)))
                if check_rmse < best_check - 1e-12:
                    best_check = check_rmse
                    best = system.copy()
                    streak = 0
                else:
                    streak += 1
                    if streak >= self.patience:
                        break
        if has_check:
            system.a = best.a
            system.b = best.b
            system.c = best.c
            system.coefficients = best.coefficients
        return history


def numeric_bell_gradients(system: BellTSKSystem, x: np.ndarray,
                           y: np.ndarray, eps: float = 1e-6):
    """Finite-difference bell gradients (testing aid)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()

    def loss() -> float:
        err = system.evaluate(x) - y
        return float(0.5 * np.mean(err ** 2))

    outs = []
    for array in (system.a, system.b, system.c):
        grad = np.zeros_like(array)
        for j in range(array.shape[0]):
            for i in range(array.shape[1]):
                orig = array[j, i]
                array[j, i] = orig + eps
                hi = loss()
                array[j, i] = orig - eps
                lo = loss()
                array[j, i] = orig
                grad[j, i] = (hi - lo) / (2 * eps)
        outs.append(grad)
    return tuple(outs)
