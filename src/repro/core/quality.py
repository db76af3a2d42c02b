"""The Context Quality Measure: normalized quality FIS over ``v_Q``.

``S_Q = L ∘ S~_Q`` (paper section 2.1.3): the trained TSK system maps the
quality input vector ``v_Q = (v_1, ..., v_n, c)`` to a raw value which the
normalization :mod:`repro.core.normalization` turns into the CQM
``q ∈ [0, 1] ∪ {epsilon}``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import observability as obs
from ..exceptions import DimensionError
from ..fuzzy.tsk import TSKSystem
from ..types import Classification, QualifiedClassification
from .normalization import normalize_array, normalize_scalar


class QualityMeasure:
    """Callable CQM: raw TSK quality system composed with ``L``.

    Parameters
    ----------
    system:
        The trained TSK system ``S~_Q`` over ``n_cues + 1`` inputs (cues
        plus the class identifier).
    n_cues:
        Number of sensor cues ``n``; the system must have ``n + 1`` inputs.
    """

    def __init__(self, system: TSKSystem, n_cues: int) -> None:
        if n_cues < 1:
            raise DimensionError(f"n_cues must be >= 1, got {n_cues}")
        if system.n_inputs != n_cues + 1:
            raise DimensionError(
                f"quality system must have n_cues + 1 = {n_cues + 1} inputs,"
                f" got {system.n_inputs}")
        self.system = system
        self.n_cues = int(n_cues)

    # ------------------------------------------------------------------
    def raw(self, v_q: np.ndarray) -> np.ndarray:
        """Un-normalized FIS outputs for a batch of ``v_Q`` vectors."""
        v_q = np.asarray(v_q, dtype=float)
        if v_q.ndim == 1:
            v_q = v_q.reshape(1, -1)
        if v_q.shape[1] != self.n_cues + 1:
            raise DimensionError(
                f"v_Q must have {self.n_cues + 1} columns, got {v_q.shape}")
        # Shape is fully checked above; the fused pass skips re-validation
        # so a batched quality query costs exactly one membership sweep.
        return self.system.evaluate_components(v_q, validate=False).output

    def measure(self, cues: np.ndarray, class_index: int) -> Optional[float]:
        """The CQM ``q`` for one classification; ``None`` is epsilon."""
        cues = np.asarray(cues, dtype=float).ravel()
        if cues.shape[0] != self.n_cues:
            raise DimensionError(
                f"expected {self.n_cues} cues, got {cues.shape[0]}")
        # One window costs numpy call overhead, not arithmetic: build the
        # validated 1-row v_Q in place and skip ``raw``'s re-validation.
        v_q = np.empty((1, self.n_cues + 1))
        v_q[0, :-1] = cues
        v_q[0, -1] = class_index
        q = normalize_scalar(float(self.system.evaluate_components(
            v_q, validate=False).output[0]))
        if obs.STATE.enabled:
            registry = obs.get_registry()
            registry.inc("cqm.measures_total")
            if q is None:
                registry.inc("cqm.epsilon_total")
            else:
                registry.observe("cqm.q", q, edges=obs.UNIT_EDGES)
        return q

    def measure_batch(self, cues: np.ndarray,
                      class_indices: np.ndarray) -> np.ndarray:
        """Vectorized CQM; epsilon entries are ``NaN``."""
        cues = np.asarray(cues, dtype=float)
        if cues.ndim == 1:
            cues = cues.reshape(1, -1)
        class_indices = np.asarray(class_indices, dtype=float).ravel()
        if class_indices.shape[0] != cues.shape[0]:
            raise DimensionError(
                f"{cues.shape[0]} cue rows but "
                f"{class_indices.shape[0]} class indices")
        with obs.trace("cqm.measure_batch"):
            v_q = np.hstack([cues, class_indices[:, None]])
            q = normalize_array(self.raw(v_q))
        if obs.STATE.enabled:
            registry = obs.get_registry()
            epsilon_mask = np.isnan(q)
            registry.inc("cqm.measures_total", int(q.size))
            registry.inc("cqm.epsilon_total", int(np.sum(epsilon_mask)))
            registry.observe_many("cqm.q", q[~epsilon_mask],
                                  edges=obs.UNIT_EDGES)
        return q

    # ------------------------------------------------------------------
    def qualify(self, classification: Classification
                ) -> QualifiedClassification:
        """Attach the CQM to a black-box classification."""
        quality = self.measure(classification.cues,
                               classification.context.index)
        return QualifiedClassification(classification=classification,
                                       quality=quality)

    def qualify_batch(self, classifications: Sequence[Classification]
                      ) -> List[QualifiedClassification]:
        """Attach the CQM to a batch of classifications."""
        if not classifications:
            return []
        cues = np.vstack([c.cues for c in classifications])
        indices = np.array([c.context.index for c in classifications],
                           dtype=float)
        qualities = self.measure_batch(cues, indices)
        out: List[QualifiedClassification] = []
        for classification, quality in zip(classifications, qualities):
            out.append(QualifiedClassification(
                classification=classification,
                quality=None if np.isnan(quality) else float(quality)))
        return out

    # ------------------------------------------------------------------
    @property
    def n_rules(self) -> int:
        """Rule count of the underlying quality FIS."""
        return self.system.n_rules
