"""Epoch-level cache of the premise-side forward sweep.

One hybrid-learning epoch historically evaluated the Gaussian
membership layer three times over the same training matrix: once for
the premise gradients, once for the LSE design matrix and once for the
training-RMSE forward pass.  Only the *premise parameters* change
between those evaluations' inputs — and they change exactly once per
epoch, in :func:`repro.anfis.gradient.apply_gradient_step`.

:class:`ForwardCache` exploits that: it stores the ``(w, wbar, total)``
firing arrays for one ``(system, x)`` pair, keyed on the system's
``premise_version`` counter (bumped by every gradient step) plus the
identity of the premise arrays themselves (so rebinding
``system.means`` — e.g. restoring a best-epoch snapshot — also
invalidates).  A hit returns the *same* arrays the previous computation
produced, which is why the cached training path is bit-identical to the
uncached one; a miss recomputes through
:func:`repro.fuzzy.kernels.firing_strengths`.

The consequent side (``f``, system output) is *not* cached: it depends
on the coefficients, which change twice per epoch, and costs one einsum
— the expensive part of the forward pass is the membership sweep.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..fuzzy import kernels


class ForwardCache:
    """Caches the firing sweep for one ``(system, x)`` pair.

    Parameters
    ----------
    system:
        A :class:`~repro.fuzzy.tsk.TSKSystem` (duck-typed: anything
        with ``means``, ``sigmas`` and ``premise_version``).
    x:
        The validated ``(n, d)`` float input matrix the cache is bound
        to.  Cache consumers compare by object identity — the hybrid
        trainer holds one reference to its training matrix for the
        whole run.
    """

    def __init__(self, system, x: np.ndarray) -> None:
        self._system = system
        self._x = x
        self._version: Optional[int] = None
        self._means_ref: Optional[np.ndarray] = None
        self._sigmas_ref: Optional[np.ndarray] = None
        self._w: Optional[np.ndarray] = None
        self._wbar: Optional[np.ndarray] = None
        self._total: Optional[np.ndarray] = None
        #: Cache-effectiveness counters (observability and tests).
        self.hits = 0
        self.misses = 0

    def matches(self, system, x: np.ndarray) -> bool:
        """True when this cache is bound to exactly this pair."""
        return system is self._system and x is self._x

    def _stale(self) -> bool:
        system = self._system
        return (self._version != system.premise_version
                or self._means_ref is not system.means
                or self._sigmas_ref is not system.sigmas)

    def firing(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w, wbar, total)`` for the bound pair, recomputing if stale."""
        if self._stale():
            system = self._system
            self._w, self._wbar, self._total = kernels.firing_strengths(
                self._x, system.means, system.sigmas)
            self._version = system.premise_version
            self._means_ref = system.means
            self._sigmas_ref = system.sigmas
            self.misses += 1
        else:
            self.hits += 1
        return self._w, self._wbar, self._total
