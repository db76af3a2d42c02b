"""Takagi-Sugeno-Kang (TSK) fuzzy inference system.

This is the FIS family used twice in the paper: once as the AwarePen's
context classifier and once as the quality system ``S~_Q`` (section 2.1.2).
Each rule ``j`` has

* Gaussian antecedents ``F_ij(v_i) = exp(-(v_i - mu_ij)^2 / (2 sigma_ij^2))``
  for every input dimension ``i``,
* a firing strength ``w_j(v) = prod_i F_ij(v_i)`` (product t-norm),
* a linear consequent ``f_j(v) = a_1j v_1 + ... + a_nj v_n + a_(n+1)j``
  (first order) or a constant ``f_j(v) = a_j`` (zero order),

and the system output is the weighted sum average

.. math::

    S(v) = \\frac{\\sum_j w_j(v) f_j(v)}{\\sum_j w_j(v)}.

The implementation is array-based so the ANFIS trainer can operate on the
parameters directly; :meth:`TSKSystem.rules` materializes readable
:class:`TSKRule` views for inspection and the linguistic form the paper
gives ("IF F_1j(v_1) AND ... THEN f_j(v_Q)").
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, DimensionError
from . import kernels
from .membership import GaussianMF


class TSKComponents(NamedTuple):
    """Every intermediate of one fused TSK forward pass.

    The first three fields are the tuple the trainer and the quality
    measure unpack — ``(wbar, f, output)``; the raw strengths ``w`` and
    their per-sample sums ``total`` ride along for the gradient pass,
    which needs the *un-normalized* weights.
    """

    #: Normalized firing strengths, shape ``(n_samples, n_rules)``.
    wbar: np.ndarray
    #: Rule consequent values ``f_j(x)``, shape ``(n_samples, n_rules)``.
    f: np.ndarray
    #: System output ``S(x)``, shape ``(n_samples,)``.
    output: np.ndarray
    #: Raw firing strengths ``w_j(x)``, shape ``(n_samples, n_rules)``.
    w: np.ndarray
    #: Raw per-sample weight sums (before any underflow floor), ``(n_samples,)``.
    total: np.ndarray


@dataclasses.dataclass(frozen=True)
class TSKRule:
    """Readable view of one TSK rule.

    Attributes
    ----------
    antecedents:
        One :class:`GaussianMF` per input dimension.
    coefficients:
        Linear consequent coefficients ``(a_1, ..., a_n, a_{n+1})``; for a
        zero-order rule only the trailing constant is non-structural.
    order:
        0 for constant consequents, 1 for linear consequents.
    """

    antecedents: Sequence[GaussianMF]
    coefficients: np.ndarray
    order: int

    def consequent(self, v: np.ndarray) -> float:
        """Evaluate ``f_j(v)`` for a single input vector."""
        v = np.asarray(v, dtype=float)
        if self.order == 0:
            return float(self.coefficients[-1])
        return float(np.dot(self.coefficients[:-1], v) + self.coefficients[-1])

    def firing_strength(self, v: np.ndarray) -> float:
        """Evaluate ``w_j(v) = prod_i F_ij(v_i)``."""
        v = np.asarray(v, dtype=float)
        strength = 1.0
        for i, mf in enumerate(self.antecedents):
            strength *= float(mf(v[i]))
        return strength

    def verbalize(self, input_names: Optional[Sequence[str]] = None) -> str:
        """The paper's linguistic form of the rule."""
        n = len(self.antecedents)
        names = list(input_names) if input_names is not None else [
            f"v_{i + 1}" for i in range(n)]
        antecedent = " AND ".join(
            f"{names[i]} IS gauss(mu={mf.mean:.3g}, sigma={mf.sigma:.3g})"
            for i, mf in enumerate(self.antecedents))
        if self.order == 0:
            consequent = f"f = {self.coefficients[-1]:.3g}"
        else:
            terms = [f"{self.coefficients[i]:.3g}*{names[i]}" for i in range(n)]
            terms.append(f"{self.coefficients[-1]:.3g}")
            consequent = "f = " + " + ".join(terms)
        return f"IF {antecedent} THEN {consequent}"


class TSKSystem:
    """Array-based TSK fuzzy inference system.

    Parameters
    ----------
    means, sigmas:
        Arrays of shape ``(n_rules, n_inputs)`` holding the Gaussian
        antecedent parameters ``mu_ij`` and ``sigma_ij``.
    coefficients:
        Array of shape ``(n_rules, n_inputs + 1)``; the last column is the
        constant term ``a_{n+1,j}``.  For ``order=0`` only that last column
        is used during inference.
    order:
        0 (constant consequents) or 1 (linear consequents).  The paper uses
        order 1 "since the results for the reliability determination are
        better"; order 0 exists for the ablation bench.
    """

    def __init__(self, means: np.ndarray, sigmas: np.ndarray,
                 coefficients: np.ndarray, order: int = 1) -> None:
        means = np.asarray(means, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        coefficients = np.asarray(coefficients, dtype=float)
        if order not in (0, 1):
            raise ConfigurationError(f"order must be 0 or 1, got {order}")
        if means.ndim != 2:
            raise DimensionError(
                f"means must be 2-D (rules x inputs), got shape {means.shape}")
        if means.shape != sigmas.shape:
            raise DimensionError(
                f"means {means.shape} and sigmas {sigmas.shape} must match")
        n_rules, n_inputs = means.shape
        if n_rules < 1:
            raise ConfigurationError("TSK system needs at least one rule")
        if coefficients.shape != (n_rules, n_inputs + 1):
            raise DimensionError(
                f"coefficients must have shape {(n_rules, n_inputs + 1)}, "
                f"got {coefficients.shape}")
        if np.any(sigmas <= 0):
            raise ConfigurationError("all sigmas must be > 0")
        self.means = means
        self.sigmas = sigmas
        self.coefficients = coefficients
        self.order = order
        #: Monotonic counter of premise-parameter updates; the
        #: epoch-level :class:`repro.anfis.cache.ForwardCache` keys on it.
        #: In-place mutation of ``means``/``sigmas`` must be followed
        #: by :meth:`touch_premises` (the gradient step does this).
        self.premise_version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rules(self) -> int:
        """Number of rules ``m``."""
        return self.means.shape[0]

    @property
    def n_inputs(self) -> int:
        """Input dimensionality ``n`` (for the quality FIS this is cues + 1)."""
        return self.means.shape[1]

    def rules(self) -> List[TSKRule]:
        """Materialize readable rule views."""
        out = []
        for j in range(self.n_rules):
            antecedents = tuple(
                GaussianMF(mean=float(self.means[j, i]),
                           sigma=float(self.sigmas[j, i]))
                for i in range(self.n_inputs))
            out.append(TSKRule(antecedents=antecedents,
                               coefficients=self.coefficients[j].copy(),
                               order=self.order))
        return out

    def copy(self) -> "TSKSystem":
        """Deep copy (used by the trainer to snapshot the best epoch)."""
        return TSKSystem(self.means.copy(), self.sigmas.copy(),
                         self.coefficients.copy(), order=self.order)

    def touch_premises(self) -> None:
        """Record an in-place premise-parameter mutation.

        Bumps the version counter premise-side caches key on; callers
        that mutate ``means``/``sigmas`` through the public attributes
        (rather than in place) don't need this — caches also compare
        array identity.
        """
        self.premise_version += 1

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _validate_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise DimensionError(
                f"input must have {self.n_inputs} columns, got shape {x.shape}")
        return x

    def memberships(self, x: np.ndarray) -> np.ndarray:
        """Per-rule, per-input Gaussian memberships.

        Returns an array of shape ``(n_samples, n_rules, n_inputs)``.
        """
        return kernels.gaussian_mf_batch(self._validate_input(x),
                                         self.means, self.sigmas)

    def firing_strengths(self, x: np.ndarray) -> np.ndarray:
        """Rule weights ``w_j`` for each sample, shape ``(n_samples, n_rules)``."""
        x = self._validate_input(x)
        return kernels.firing_strengths(x, self.means, self.sigmas)[0]

    def normalized_firing_strengths(self, x: np.ndarray) -> np.ndarray:
        """Weights normalized to sum to one per sample (ANFIS layer 3).

        Samples where every rule's strength underflows to zero receive
        uniform weights ``1/m`` — the least-surprising degradation for an
        input far outside the trained region.
        """
        x = self._validate_input(x)
        return kernels.firing_strengths(x, self.means, self.sigmas)[1]

    def rule_outputs(self, x: np.ndarray) -> np.ndarray:
        """Consequent values ``f_j(x)``, shape ``(n_samples, n_rules)``.

        Row results do not depend on batch size (see
        :func:`repro.fuzzy.kernels.rule_consequents`).
        """
        return kernels.rule_consequents(self._validate_input(x),
                                        self.coefficients, self.order)

    def evaluate_components(self, x: np.ndarray,
                            validate: bool = True) -> TSKComponents:
        """One fused forward pass: memberships through system output.

        Validates the input (at most) once and computes every layer a
        single time, returning :class:`TSKComponents` so callers that
        need several intermediates — the hybrid trainer's RMSE, the
        premise gradients, the batched quality measure — stop paying for
        two or three redundant membership evaluations per call.

        Parameters
        ----------
        x:
            Input batch; a single vector is promoted to one row.
        validate:
            Pass ``False`` only when *x* is already a float matrix with
            ``n_inputs`` columns (an internal fast path).
        """
        if validate:
            x = self._validate_input(x)
        wbar, f, output, w, total = kernels.tsk_forward_components(
            x, self.means, self.sigmas, self.coefficients, self.order)
        return TSKComponents(wbar=wbar, f=f, output=output, w=w,
                             total=total)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Weighted-sum-average output ``S(x)`` for a batch of inputs.

        Accepts a single vector or a matrix; always returns a 1-D array of
        length ``n_samples``.  The input is validated exactly once (the
        historical path re-validated inside both the weight and the
        consequent computation).
        """
        return self.evaluate_components(x).output

    def evaluate_scalar(self, v: np.ndarray) -> float:
        """Convenience scalar evaluation of a single input vector."""
        return float(self.evaluate(np.asarray(v, dtype=float).reshape(1, -1))[0])

    def describe(self, input_names: Optional[Sequence[str]] = None) -> str:
        """Multi-line linguistic description of the whole rule base."""
        lines = [f"TSK system: {self.n_rules} rules, {self.n_inputs} inputs, "
                 f"order {self.order}"]
        for j, rule in enumerate(self.rules()):
            lines.append(f"  R{j + 1}: {rule.verbalize(input_names)}")
        return "\n".join(lines)
