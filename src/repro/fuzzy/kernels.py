"""Numpy kernels for the TSK/ANFIS hot paths.

Every array computation the ANFIS hybrid trainer and the CQM scorer
spend their time in is one plain function here:

* :func:`gaussian_mf_batch` — the Gaussian membership layer
  ``F_ij(v_i)`` (paper section 2.1.2, ANFIS layer 1);
* :func:`rule_firing` and :func:`normalize_firing` — product t-norm
  rule weights ``w_j = prod_i F_ij`` and their normalization
  (layers 2-3), composed by :func:`firing_strengths`;
* :func:`rule_consequents` — the linear consequents ``f_j(x)``;
* :func:`tsk_forward_components` — the whole forward pass, returning
  every intermediate the trainer, the gradients and the batched quality
  measure need;
* :func:`consequent_design_matrix` — the LSE design matrix of the
  forward pass (section 2.2.2);
* :func:`premise_gradient_terms` — the backward-pass gradients with
  respect to ``mu_ij`` and ``sigma_ij`` (section 2.2.4).

The functions take and return plain ``numpy`` arrays (never a
:class:`~repro.fuzzy.tsk.TSKSystem`).  Operation order is fixed on
purpose: the seed-7 golden trace, the paper-number pins and the
serving/observability bit-identity tests all depend on these exact
expressions.  ``repro.verify.reference`` holds the independent
loop-based oracle they are checked against.

Reductions call ``np.add.reduce`` and ``np.multiply.reduce`` directly:
those are the very ufunc reductions ``np.sum`` and ``np.prod`` dispatch
to, so the results are equal bit for bit and only the Python-level
dispatch (most of a one-row call's cost) is skipped.  The exponential
stays ``np.exp`` on arrays: ``math.exp`` is *not* bit-equal to it (on
an AVX-512 numpy build the last bit differs for about 4.7% of uniform
inputs in ``[-20, 0]``), and neither is a reassociated reduction or
``@``/``np.dot``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Total firing strengths at or below this are treated as "no rule
#: fires"; normalization then falls back to uniform weights so far-away
#: inputs degrade gracefully instead of collapsing to zero output.
WEIGHT_FLOOR = 1e-300

#: ``(wbar, f, output, w, total)`` — the raw tuple behind
#: :class:`repro.fuzzy.tsk.TSKComponents`.
ForwardComponents = Tuple[np.ndarray, np.ndarray, np.ndarray,
                          np.ndarray, np.ndarray]


def gaussian_mf_batch(x: np.ndarray, means: np.ndarray,
                      sigmas: np.ndarray) -> np.ndarray:
    """Memberships ``F_ij(x)`` of shape ``(n_samples, m, d)``.

    *x* is an already-validated float matrix of shape ``(n, d)``;
    *means*/*sigmas* are ``(m, d)``.
    """
    z = (x[:, None, :] - means) / sigmas
    return np.exp(-0.5 * z * z)


def rule_firing(memberships: np.ndarray) -> np.ndarray:
    """Product-t-norm weights ``w``, shape ``(n_samples, m)``."""
    return np.multiply.reduce(memberships, axis=2)


def normalize_firing(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize weights per sample; returns ``(wbar, total)``.

    Samples where every rule underflows to zero get uniform ``1/m``
    weights (graceful far-field degradation).
    """
    total = np.add.reduce(w, axis=1)
    # One reduction clears the common case; empty batches and NaN
    # totals take the general branch, which handles them unchanged.
    if total.size and np.minimum.reduce(total) > WEIGHT_FLOOR:
        return w / total[:, None], total
    dead = total <= WEIGHT_FLOOR
    wbar = w / np.where(dead, 1.0, total)[:, None]
    return np.where(dead[:, None], 1.0 / w.shape[1], wbar), total


def firing_strengths(x: np.ndarray, means: np.ndarray, sigmas: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw and normalized rule weights; returns ``(w, wbar, total)``.

    This is the premise-side sweep :class:`repro.anfis.cache.ForwardCache`
    stores — both the cache and :func:`tsk_forward_components` go
    through it, so cached and direct evaluations agree bit for bit.
    """
    w = rule_firing(gaussian_mf_batch(x, means, sigmas))
    wbar, total = normalize_firing(w)
    return w, wbar, total


def rule_consequents(x: np.ndarray, coefficients: np.ndarray,
                     order: int) -> np.ndarray:
    """Rule consequent values ``f_j(x)``, shape ``(n_samples, m)``.

    einsum (not ``@``) on purpose: BLAS matmul picks shape-dependent
    kernels (gemv for one row, blocked gemm otherwise), so the same row
    evaluated in different batch sizes can differ in the last ULP.
    einsum's fixed per-element reduction keeps every row's result
    independent of how it was batched — the invariant the serving
    layer's micro-batching equivalence rests on.
    """
    if order == 0:
        return np.broadcast_to(coefficients[:, -1],
                               (x.shape[0], coefficients.shape[0])
                               ).copy()
    return (np.einsum("ni,ri->nr", x, coefficients[:, :-1])
            + coefficients[:, -1])


def tsk_forward_components(x: np.ndarray, means: np.ndarray,
                           sigmas: np.ndarray, coefficients: np.ndarray,
                           order: int) -> ForwardComponents:
    """One forward pass; returns ``(wbar, f, output, w, total)``."""
    w, wbar, total = firing_strengths(x, means, sigmas)
    f = rule_consequents(x, coefficients, order)
    output = np.add.reduce(wbar * f, axis=1)
    return wbar, f, output, w, total


def consequent_design_matrix(x: np.ndarray, wbar: np.ndarray,
                             order: int) -> np.ndarray:
    """LSE design matrix from normalized weights.

    For order-1 systems, row ``s`` is
    ``[w1 x_s1 ... w1 x_sd, w1, w2 x_s1, ..., wm]`` with ``w_j`` the
    *normalized* firing strengths; for order 0 it is ``wbar`` itself.
    """
    if order == 0:
        return wbar
    n_samples = x.shape[0]
    m = wbar.shape[1]
    x_ext = np.hstack([x, np.ones((n_samples, 1))])  # (N, d+1)
    # (N, m, d+1): normalized weight times extended input.
    blocks = wbar[:, :, None] * x_ext[:, None, :]
    return blocks.reshape(n_samples, m * x_ext.shape[1])


def premise_gradient_terms(x: np.ndarray, means: np.ndarray,
                           sigmas: np.ndarray, w: np.ndarray,
                           f: np.ndarray, total: np.ndarray,
                           y: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Gradients of the half-MSE loss w.r.t. premise parameters.

    Consumes the forward-pass intermediates (raw weights *w*, rule
    consequents *f*, raw weight sums *total*) so a cached forward pass
    is reused instead of recomputed.  Returns
    ``(d_means, d_sigmas, loss)``.
    """
    n = x.shape[0]
    total = np.maximum(total, WEIGHT_FLOOR)            # (N,)
    s = np.add.reduce(w * f, axis=1) / total           # (N,)
    err = s - y                                        # (N,)

    # dL/dw_j for every sample and rule: err * (f_j - S) / total.
    dl_dw = (err / total)[:, None] * (f - s[:, None])  # (N, m)

    diff = x[:, None, :] - means[None, :, :]           # (N, m, d)
    inv_sig_sq = 1.0 / (sigmas ** 2)                   # (m, d)
    w3 = w[:, :, None]                                 # (N, m, 1)
    dw_dmu = w3 * diff * inv_sig_sq[None, :, :]
    dw_dsigma = w3 * (diff ** 2) * (inv_sig_sq / sigmas)[None, :, :]

    dl3 = dl_dw[:, :, None]                            # (N, m, 1)
    d_means = np.add.reduce(dl3 * dw_dmu, axis=0) / n
    d_sigmas = np.add.reduce(dl3 * dw_dsigma, axis=0) / n
    loss = float(0.5 * np.mean(err ** 2))
    return d_means, d_sigmas, loss
