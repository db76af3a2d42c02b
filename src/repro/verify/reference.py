"""Deliberately naive reference implementations of the numerical kernels.

Every optimized hot path in the pipeline (vectorized cue extraction, the
fused/einsum TSK forward pass, the pairwise-identity clustering
potentials, the SVD least-squares solve, the normalization ``L``, the
closed-form density intersection) has a loop-based twin here that states
the paper's semantics as directly as possible — no broadcasting, no
algebraic identities, no shared subexpressions.  The differential runner
(:mod:`repro.verify.differential`) sweeps seeded and adversarial inputs
through both and reports the divergence; agreement within floating-point
tolerance is the evidence behind every "bit-identical" claim the
optimized layers make.

These functions are intentionally slow.  Never call them from library
code; they exist only as an oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import CalibrationError, DimensionError
from ..stats.gaussian import Gaussian

#: Same underflow floor as :data:`repro.fuzzy.kernels.WEIGHT_FLOOR` — the
#: reference restates the degradation contract, it does not import it.
WEIGHT_FLOOR = 1e-300


# ----------------------------------------------------------------------
# Sliding-window cues (paper Fig. 4: per-axis standard deviation)
# ----------------------------------------------------------------------
def std_cues(signal: np.ndarray, window: int,
             hop: int) -> Tuple[np.ndarray, np.ndarray]:
    """Loop-based sliding-window std cues.

    Two-pass standard deviation per axis per window, windows advanced by
    *hop*, tail windows shorter than *window* dropped — the semantics of
    ``AWAREPEN_CUES.extract_all`` stated with four explicit loops.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 2:
        raise DimensionError(f"signal must be 2-D, got {signal.shape}")
    n_samples, n_axes = signal.shape
    starts: List[int] = []
    rows: List[List[float]] = []
    for start in range(0, n_samples - window + 1, hop):
        row = []
        for axis in range(n_axes):
            values = [float(signal[start + k, axis]) for k in range(window)]
            mean = sum(values) / window
            var = sum((v - mean) ** 2 for v in values) / window
            row.append(math.sqrt(var))
        starts.append(start)
        rows.append(row)
    if not rows:
        return np.empty(0, dtype=int), np.empty((0, n_axes))
    return np.array(starts, dtype=int), np.array(rows, dtype=float)


# ----------------------------------------------------------------------
# Gaussian membership and the TSK forward pass (paper section 2.1.2)
# ----------------------------------------------------------------------
def gaussian_mf(x: float, mu: float, sigma: float) -> float:
    """``F(x) = exp(-(x - mu)^2 / (2 sigma^2))``, scalar, no identities."""
    return math.exp(-((x - mu) ** 2) / (2.0 * sigma ** 2))


def tsk_memberships(means: np.ndarray, sigmas: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Per-sample, per-rule, per-input memberships via scalar loops."""
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    x = np.asarray(x, dtype=float)
    n, (m, d) = x.shape[0], means.shape
    out = np.empty((n, m, d))
    for s in range(n):
        for j in range(m):
            for i in range(d):
                out[s, j, i] = gaussian_mf(float(x[s, i]),
                                           float(means[j, i]),
                                           float(sigmas[j, i]))
    return out


def tsk_rule_outputs(coefficients: np.ndarray, order: int,
                     x: np.ndarray) -> np.ndarray:
    """Consequents ``f_j(x)`` by explicit dot-product loops.

    The optimized path computes this with ``einsum``; the reference
    accumulates ``a_1j x_1 + ... + a_nj x_n + a_(n+1)j`` term by term.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    x = np.asarray(x, dtype=float)
    n, m = x.shape[0], coefficients.shape[0]
    d = coefficients.shape[1] - 1
    out = np.empty((n, m))
    for s in range(n):
        for j in range(m):
            if order == 0:
                out[s, j] = coefficients[j, -1]
                continue
            acc = 0.0
            for i in range(d):
                acc += float(coefficients[j, i]) * float(x[s, i])
            out[s, j] = acc + float(coefficients[j, -1])
    return out


def tsk_evaluate(means: np.ndarray, sigmas: np.ndarray,
                 coefficients: np.ndarray, order: int,
                 x: np.ndarray) -> np.ndarray:
    """Full weighted-sum-average TSK output, one sample at a time.

    Includes the underflow contract of the optimized system: when every
    rule's firing strength underflows (total <= :data:`WEIGHT_FLOOR`),
    the weights degrade to uniform ``1/m``.
    """
    x = np.asarray(x, dtype=float)
    memberships = tsk_memberships(means, sigmas, x)
    f = tsk_rule_outputs(coefficients, order, x)
    n, m = f.shape
    out = np.empty(n)
    for s in range(n):
        weights = []
        for j in range(m):
            w = 1.0
            for i in range(memberships.shape[2]):
                w *= memberships[s, j, i]
            weights.append(w)
        total = sum(weights)
        if total <= WEIGHT_FLOOR:
            wbar = [1.0 / m] * m
        else:
            wbar = [w / total for w in weights]
        out[s] = sum(wbar[j] * f[s, j] for j in range(m))
    return out


# ----------------------------------------------------------------------
# Premise gradients of the ANFIS backward pass (paper section 2.2.4)
# ----------------------------------------------------------------------
def premise_gradients_loop(means: np.ndarray, sigmas: np.ndarray,
                           coefficients: np.ndarray, order: int,
                           x: np.ndarray, y: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Gradients of ``0.5 * mean((S(x) - y)^2)`` by scalar loops.

    States the chain rule of section 2.2.4 term by term — one sample,
    one rule, one input dimension at a time, no broadcasting, no shared
    subexpressions.  Mirrors the optimized contract of
    ``premise_gradient_terms``: the per-sample weight total is floored
    at :data:`WEIGHT_FLOOR` (the gradient path does not use the uniform
    fallback the inference path applies to dead samples).  Returns
    ``(d_means, d_sigmas, loss)``.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    memberships = tsk_memberships(means, sigmas, x)
    f = tsk_rule_outputs(coefficients, order, x)
    n, m, d = memberships.shape
    d_means = np.zeros((m, d))
    d_sigmas = np.zeros((m, d))
    sse = 0.0
    for s in range(n):
        weights = []
        for j in range(m):
            w = 1.0
            for i in range(d):
                w *= memberships[s, j, i]
            weights.append(w)
        total = sum(weights)
        if total < WEIGHT_FLOOR:
            total = WEIGHT_FLOOR
        numerator = 0.0
        for j in range(m):
            numerator += weights[j] * f[s, j]
        s_out = numerator / total
        err = s_out - float(y[s])
        sse += err * err
        for j in range(m):
            # dL/dw_j = err * (f_j - S) / total
            dl_dw = (err / total) * (f[s, j] - s_out)
            for i in range(d):
                diff = float(x[s, i]) - float(means[j, i])
                sigma = float(sigmas[j, i])
                dw_dmu = weights[j] * diff / (sigma * sigma)
                dw_dsigma = weights[j] * diff * diff / (sigma ** 3)
                d_means[j, i] += dl_dw * dw_dmu
                d_sigmas[j, i] += dl_dw * dw_dsigma
    d_means /= n
    d_sigmas /= n
    loss = 0.5 * sse / n
    return d_means, d_sigmas, loss


# ----------------------------------------------------------------------
# Subtractive clustering (paper section 2.2.1, Chiu's potentials)
# ----------------------------------------------------------------------
def unit_normalize(x: np.ndarray) -> np.ndarray:
    """Per-dimension min-max normalization with zero-span guard."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        lo = float(np.min(x[:, i]))
        hi = float(np.max(x[:, i]))
        span = hi - lo if hi - lo > 0 else 1.0
        for s in range(x.shape[0]):
            out[s, i] = (x[s, i] - lo) / span
    return out


def subtractive_potentials(xn: np.ndarray, radius: float) -> np.ndarray:
    """``P_i = sum_j exp(-4 ||x_i - x_j||^2 / r_a^2)`` by double loop.

    The optimized kernel expands ``||x_i - x_j||^2`` through the
    ``||a||^2 + ||b||^2 - 2 a.b`` identity; the reference subtracts and
    squares coordinate by coordinate.
    """
    xn = np.asarray(xn, dtype=float)
    alpha = 4.0 / (float(radius) ** 2)
    n = xn.shape[0]
    out = np.empty(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            sq = 0.0
            for k in range(xn.shape[1]):
                diff = xn[i, k] - xn[j, k]
                sq += diff * diff
            total += math.exp(-alpha * sq)
        out[i] = total
    return out


def subtractive_fit_indices(x: np.ndarray, radius: float = 0.5,
                            squash_factor: float = 1.25,
                            accept_ratio: float = 0.5,
                            reject_ratio: float = 0.15,
                            max_clusters: Optional[int] = None
                            ) -> List[int]:
    """Chiu's full accept/reject loop, naive arithmetic throughout.

    Returns the *indices* of the accepted centers in acceptance order —
    index equality with the optimized fit is a sharper check than
    comparing center coordinates (centers are exact data rows).
    """
    x = np.asarray(x, dtype=float)
    xn = unit_normalize(x)
    n = xn.shape[0]
    potentials = list(subtractive_potentials(xn, radius))
    beta = 4.0 / ((squash_factor * radius) ** 2)
    first_potential = max(potentials)
    centers: List[int] = []
    limit = max_clusters if max_clusters is not None else n
    while len(centers) < limit:
        candidate = int(np.argmax(potentials))
        p = potentials[candidate]
        if p <= 0:
            break
        ratio = p / first_potential
        if ratio >= accept_ratio:
            accept = True
        elif ratio < reject_ratio:
            break
        else:
            d_min = math.inf
            for idx in centers:
                sq = 0.0
                for k in range(xn.shape[1]):
                    diff = xn[candidate, k] - xn[idx, k]
                    sq += diff * diff
                d_min = min(d_min, math.sqrt(sq))
            if d_min / radius + ratio >= 1.0:
                accept = True
            else:
                potentials[candidate] = 0.0
                continue
        if accept:
            centers.append(candidate)
            for i in range(n):
                sq = 0.0
                for k in range(xn.shape[1]):
                    diff = xn[i, k] - xn[candidate, k]
                    sq += diff * diff
                potentials[i] -= p * math.exp(-beta * sq)
            potentials[candidate] = 0.0
    return centers


# ----------------------------------------------------------------------
# SVD least squares (paper section 2.2.2)
# ----------------------------------------------------------------------
def lse_design_matrix(means: np.ndarray, sigmas: np.ndarray,
                      order: int, x: np.ndarray) -> np.ndarray:
    """Design matrix rows ``[w1 x1, ..., w1, w2 x1, ...]`` by loops."""
    x = np.asarray(x, dtype=float)
    memberships = tsk_memberships(means, sigmas, x)
    n, m, d = memberships.shape
    rows = []
    for s in range(n):
        weights = []
        for j in range(m):
            w = 1.0
            for i in range(d):
                w *= memberships[s, j, i]
            weights.append(w)
        total = sum(weights)
        if total <= WEIGHT_FLOOR:
            wbar = [1.0 / m] * m
        else:
            wbar = [w / total for w in weights]
        if order == 0:
            rows.append(wbar)
            continue
        row: List[float] = []
        for j in range(m):
            for i in range(d):
                row.append(wbar[j] * float(x[s, i]))
            row.append(wbar[j])
        rows.append(row)
    return np.array(rows, dtype=float)


def lse_solve_svd(a: np.ndarray, y: np.ndarray,
                  rcond: Optional[float] = None) -> np.ndarray:
    """Minimum-norm least squares through an explicit SVD pseudo-inverse.

    ``theta = V diag(1/s_i) U^T y`` with singular values below
    ``rcond * s_max`` discarded — the decomposition ``numpy.linalg.lstsq``
    performs internally, spelled out.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if rcond is None:
        rcond = max(a.shape) * np.finfo(float).eps
    cutoff = rcond * (float(s[0]) if s.size else 0.0)
    inv = np.array([1.0 / sv if sv > cutoff else 0.0 for sv in s])
    return vt.T @ (inv * (u.T @ y))


# ----------------------------------------------------------------------
# Normalization L with the error state epsilon (paper section 2.1.3)
# ----------------------------------------------------------------------
def normalize(x: np.ndarray) -> np.ndarray:
    """``L`` applied scalar by scalar; epsilon is ``NaN`` in the output."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty(x.shape)
    for i, value in enumerate(x):
        v = float(value)
        if math.isnan(v):
            out[i] = math.nan
        elif 0.0 <= v <= 1.0:
            out[i] = v
        elif -0.5 <= v < 0.0:
            out[i] = -v
        elif 1.0 < v <= 1.5:
            out[i] = 2.0 - v
        else:
            out[i] = math.nan
    return out


# ----------------------------------------------------------------------
# Density intersection / threshold s (paper section 2.3.2)
# ----------------------------------------------------------------------
def _log_pdf(g: Gaussian, x: float) -> float:
    z = (x - g.mu) / g.sigma
    return -0.5 * z * z - math.log(g.sigma * math.sqrt(2.0 * math.pi))


def intersection_between_means(right: Gaussian, wrong: Gaussian,
                               grid: int = 4096,
                               iterations: int = 200) -> float:
    """Threshold ``s`` by bracketing + bisection instead of the quadratic.

    Scans ``phi_r - phi_w`` (in log space) on a fine grid between the two
    means for a sign change and bisects it to machine precision.  When no
    sign change exists between the means the optimized path falls back to
    the midpoint; the reference mirrors that contract.
    """
    if right.mu <= wrong.mu:
        raise CalibrationError("expected mean(right) > mean(wrong)")
    lo, hi = wrong.mu, right.mu

    def g(x: float) -> float:
        return _log_pdf(right, x) - _log_pdf(wrong, x)

    xs = [lo + (hi - lo) * k / grid for k in range(grid + 1)]
    bracket = None
    for a, b in zip(xs[:-1], xs[1:]):
        ga, gb = g(a), g(b)
        if ga == 0.0:
            return a
        if ga * gb < 0.0:
            bracket = (a, b)
            break
    if bracket is None:
        return 0.5 * (right.mu + wrong.mu)
    a, b = bracket
    for _ in range(iterations):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if g(a) * g(mid) <= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
