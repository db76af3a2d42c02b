"""Least-squares estimation of TSK consequent parameters.

The forward pass of ANFIS hybrid learning (paper section 2.2.2/2.2.4):
with the antecedent memberships fixed, the system output is *linear* in the
consequent coefficients ``a_ij``, so they are fit globally by solving an
over-determined linear system.  Following the paper we solve it with the
singular value decomposition (``numpy.linalg.lstsq`` uses SVD internally;
an explicit SVD path is provided for the rank-deficient diagnostics).

A recursive (RLS) variant is included for online adaptation of deployed
quality systems.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from .. import observability as obs
from ..exceptions import DimensionError, TrainingError
from ..fuzzy import kernels
from ..fuzzy.tsk import TSKSystem
from .cache import ForwardCache


def design_matrix(system: TSKSystem, x: np.ndarray,
                  cache: Optional[ForwardCache] = None) -> np.ndarray:
    """Build the LSE design matrix for the consequent coefficients.

    For first-order consequents, sample ``s`` contributes the row

    ``[w1 x_s1, ..., w1 x_sn, w1,  w2 x_s1, ..., wm]``

    with ``w_j`` the *normalized* firing strengths, so that
    ``design @ vec(coefficients) = predictions``.  For zero-order systems
    only the per-rule constant columns are produced.

    When a :class:`~repro.anfis.cache.ForwardCache` bound to ``(system, x)``
    is supplied, the normalized firing strengths are reused from it
    instead of recomputed (bit-identically on a hit).  The uncached path
    stays polymorphic over ``system.normalized_firing_strengths`` so
    non-Gaussian systems (e.g. the bell-MF variant) keep working.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != system.n_inputs:
        raise DimensionError(
            f"x must have shape (n, {system.n_inputs}), got {x.shape}")
    if cache is not None and cache.matches(system, x):
        _, wbar, _ = cache.firing()
    else:
        wbar = system.normalized_firing_strengths(x)  # (N, m)
    return kernels.consequent_design_matrix(x, wbar, system.order)


@dataclasses.dataclass(frozen=True)
class LSEDiagnostics:
    """Numerical diagnostics of one least-squares solve."""

    rank: int
    n_parameters: int
    singular_value_ratio: float
    residual_rmse: float

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.n_parameters


@obs.traced("anfis.lse_fit")
def fit_consequents(system: TSKSystem, x: np.ndarray, y: np.ndarray,
                    rcond: Optional[float] = None,
                    cache: Optional[ForwardCache] = None
                    ) -> Tuple[np.ndarray, LSEDiagnostics]:
    """Solve for the consequent coefficients minimizing ``||S(x) - y||``.

    Returns the new coefficient array (same shape as
    ``system.coefficients``) and solve diagnostics.  The *system* is not
    modified; assign the result to ``system.coefficients`` to apply it.
    The design matrix's firing sweep can be served from a
    :class:`~repro.anfis.cache.ForwardCache` (see :func:`design_matrix`);
    the SVD solve itself is identical either way.
    """
    y = np.asarray(y, dtype=float).ravel()
    a = design_matrix(system, x, cache=cache)
    if a.shape[0] != y.shape[0]:
        raise DimensionError(
            f"x has {a.shape[0]} samples but y has {y.shape[0]}")
    if a.shape[0] < 1:
        raise TrainingError("cannot fit consequents on an empty data set")
    solution, _, rank, singular_values = np.linalg.lstsq(a, y, rcond=rcond)
    residual = a @ solution - y
    rmse = float(np.sqrt(np.mean(residual ** 2)))
    sv_ratio = (float(singular_values[0] / max(singular_values[-1], 1e-300))
                if len(singular_values) else np.inf)
    diagnostics = LSEDiagnostics(
        rank=int(rank),
        n_parameters=a.shape[1],
        singular_value_ratio=sv_ratio,
        residual_rmse=rmse,
    )
    if obs.STATE.enabled:
        registry = obs.get_registry()
        registry.inc("anfis.lse_fits_total")
        registry.observe("anfis.lse_residual_rmse", rmse,
                         edges=obs.LOSS_EDGES)
        span = obs.current_span()
        if span is not None:
            span.attrs.update(rank=diagnostics.rank,
                              n_parameters=diagnostics.n_parameters)
    if system.order == 0:
        coefficients = np.zeros_like(system.coefficients)
        coefficients[:, -1] = solution
    else:
        coefficients = solution.reshape(system.n_rules, system.n_inputs + 1)
    return coefficients, diagnostics


class RecursiveLSE:
    """Recursive least squares over the consequent parameter vector.

    Implements the standard RLS update with forgetting factor ``lam``; used
    for online refinement of a deployed quality FIS as labeled feedback
    trickles in.
    """

    def __init__(self, n_parameters: int, lam: float = 1.0,
                 initial_covariance: float = 1e4,
                 max_covariance_trace: float = 1e8) -> None:
        if n_parameters < 1:
            raise DimensionError(
                f"n_parameters must be >= 1, got {n_parameters}")
        if not 0.0 < lam <= 1.0:
            raise TrainingError(
                f"forgetting factor must be in (0, 1], got {lam}")
        if max_covariance_trace <= 0:
            raise TrainingError(
                f"max_covariance_trace must be > 0, got "
                f"{max_covariance_trace}")
        self.theta = np.zeros(n_parameters)
        self.p = np.eye(n_parameters) * float(initial_covariance)
        self.lam = float(lam)
        #: Anti-windup bound: with lam < 1 and non-exciting inputs the
        #: covariance grows exponentially; clamping its trace keeps the
        #: filter stable during long quiet stretches.
        self.max_covariance_trace = float(max_covariance_trace)
        self.n_updates = 0

    def update(self, row: np.ndarray, target: float) -> float:
        """Consume one design-matrix row; returns the pre-update residual."""
        row = np.asarray(row, dtype=float).ravel()
        if row.shape[0] != self.theta.shape[0]:
            raise DimensionError(
                f"row must have {self.theta.shape[0]} entries, "
                f"got {row.shape[0]}")
        residual = float(target - row @ self.theta)
        pr = self.p @ row
        gain = pr / (self.lam + row @ pr)
        self.theta = self.theta + gain * residual
        self.p = (self.p - np.outer(gain, pr)) / self.lam
        trace = float(np.trace(self.p))
        if trace > self.max_covariance_trace:
            self.p *= self.max_covariance_trace / trace
        self.n_updates += 1
        return residual

    def coefficients_for(self, system: TSKSystem) -> np.ndarray:
        """Reshape the parameter vector to *system*'s coefficient layout."""
        if system.order == 0:
            if self.theta.shape[0] != system.n_rules:
                raise DimensionError(
                    "parameter count does not match a zero-order system")
            out = np.zeros_like(system.coefficients)
            out[:, -1] = self.theta
            return out
        expected = system.n_rules * (system.n_inputs + 1)
        if self.theta.shape[0] != expected:
            raise DimensionError(
                f"parameter count {self.theta.shape[0]} does not match "
                f"expected {expected}")
        return self.theta.reshape(system.n_rules, system.n_inputs + 1)
