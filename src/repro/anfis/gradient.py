"""Analytic gradients for the ANFIS backward pass.

The backward pass (paper section 2.2.4) backpropagates the squared error
between designated and actual output to the Gaussian membership layer and
descends its gradient with respect to the premise parameters ``mu_ij`` and
``sigma_ij``.

With weighted-sum-average output ``S(x) = sum_j wbar_j f_j`` and product
t-norm weights ``w_j = prod_i F_ij(x_i)``:

.. math::

    \\frac{\\partial S}{\\partial w_j} = \\frac{f_j - S}{\\sum_k w_k},
    \\qquad
    \\frac{\\partial w_j}{\\partial \\mu_{ij}}
        = w_j \\frac{x_i - \\mu_{ij}}{\\sigma_{ij}^2},
    \\qquad
    \\frac{\\partial w_j}{\\partial \\sigma_{ij}}
        = w_j \\frac{(x_i - \\mu_{ij})^2}{\\sigma_{ij}^3}.

Everything is vectorized over samples, rules and inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DimensionError
from ..fuzzy import kernels
from ..fuzzy.tsk import TSKSystem
from .cache import ForwardCache


@dataclasses.dataclass(frozen=True)
class PremiseGradients:
    """Gradients of the half-SSE loss with respect to premise parameters."""

    d_means: np.ndarray
    d_sigmas: np.ndarray
    loss: float


def premise_gradients(system: TSKSystem, x: np.ndarray, y: np.ndarray,
                      cache: Optional[ForwardCache] = None
                      ) -> PremiseGradients:
    """Gradient of ``0.5 * mean((S(x) - y)^2)`` w.r.t. means and sigmas.

    Vectorized across samples, rules *and* inputs through
    :func:`repro.fuzzy.kernels.premise_gradient_terms` (the naive
    per-rule loop survives as the oracle — see
    :func:`numeric_premise_gradients` and
    ``repro.verify.reference.premise_gradients_loop``).

    Parameters
    ----------
    system:
        The TSK system whose premise parameters are being tuned.
    x:
        Inputs of shape ``(n_samples, n_inputs)``.
    y:
        Designated outputs of shape ``(n_samples,)`` — 1 for a right and 0
        for a wrong contextual classification in the quality use case.
    cache:
        Optional :class:`~repro.anfis.cache.ForwardCache` bound to
        ``(system, x)``; when supplied (the hybrid trainer does), the
        premise-side firing sweep is reused instead of recomputed —
        bit-identically, since a cache hit returns the same arrays.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[1] != system.n_inputs:
        raise DimensionError(
            f"x must have shape (n, {system.n_inputs}), got {x.shape}")
    if y.shape[0] != x.shape[0]:
        raise DimensionError(
            f"y must have {x.shape[0]} entries, got {y.shape[0]}")

    if cache is not None and cache.matches(system, x):
        w, _, total = cache.firing()
        f = kernels.rule_consequents(x, system.coefficients, system.order)
    else:
        # Fused forward pass: one membership evaluation instead of the
        # two separate (and separately validated) weight + consequent
        # passes.
        comps = system.evaluate_components(x, validate=False)
        w, f, total = comps.w, comps.f, comps.total
    d_means, d_sigmas, loss = kernels.premise_gradient_terms(
        x, system.means, system.sigmas, w, f, total, y)
    return PremiseGradients(d_means=d_means, d_sigmas=d_sigmas, loss=loss)


def apply_gradient_step(system: TSKSystem, grads: PremiseGradients,
                        learning_rate: float,
                        min_sigma: float = 1e-4) -> None:
    """Descend the premise gradients in place.

    Sigmas are floored at *min_sigma* to keep the Gaussians well defined —
    the paper's hybrid learning otherwise risks collapsing a membership
    function onto a single training point.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    system.means -= learning_rate * grads.d_means
    system.sigmas -= learning_rate * grads.d_sigmas
    np.maximum(system.sigmas, min_sigma, out=system.sigmas)
    system.touch_premises()


def numeric_premise_gradients(system: TSKSystem, x: np.ndarray,
                              y: np.ndarray,
                              eps: float = 1e-6
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Finite-difference gradients (testing aid, O(m*d) forward passes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()

    def loss() -> float:
        err = system.evaluate(x) - y
        return float(0.5 * np.mean(err ** 2))

    d_means = np.zeros_like(system.means)
    d_sigmas = np.zeros_like(system.sigmas)
    for j in range(system.n_rules):
        for i in range(system.n_inputs):
            orig = system.means[j, i]
            system.means[j, i] = orig + eps
            hi = loss()
            system.means[j, i] = orig - eps
            lo = loss()
            system.means[j, i] = orig
            d_means[j, i] = (hi - lo) / (2 * eps)

            orig = system.sigmas[j, i]
            system.sigmas[j, i] = orig + eps
            hi = loss()
            system.sigmas[j, i] = orig - eps
            lo = loss()
            system.sigmas[j, i] = orig
            d_sigmas[j, i] = (hi - lo) / (2 * eps)
    return d_means, d_sigmas
