"""Gaussian membership functions.

The paper's quality FIS uses non-linear Gaussian membership functions
(section 2.1.2):

.. math::

    F_{ij}(v_i) = e^{-(v_i - \\mu_{ij})^2 / (2 \\sigma_{ij}^2)}

:class:`GaussianMF` is the scalar view used for rule inspection; the
batched form the inference and training paths run is
:func:`repro.fuzzy.kernels.gaussian_mf_batch`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, Union

import numpy as np

from ..exceptions import ConfigurationError

ArrayLike = Union[float, np.ndarray]


class MembershipFunction(abc.ABC):
    """Abstract base class of all membership functions."""

    @abc.abstractmethod
    def __call__(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the membership degree of *x*."""

    @abc.abstractmethod
    def parameters(self) -> Dict[str, float]:
        """Return the parameter dictionary describing this function."""

    def support_center(self) -> float:
        """A representative point of maximal membership."""
        raise NotImplementedError


@dataclasses.dataclass
class GaussianMF(MembershipFunction):
    """Gaussian membership function ``exp(-(x - mean)^2 / (2 sigma^2))``.

    This is the antecedent shape used throughout the paper; its ``mean`` and
    ``sigma`` are the parameters tuned by the ANFIS backward pass.
    """

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigurationError(
                f"GaussianMF sigma must be > 0, got {self.sigma}")

    def __call__(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.sigma
        return np.exp(-0.5 * z * z)

    def parameters(self) -> Dict[str, float]:
        return {"mean": self.mean, "sigma": self.sigma}

    def support_center(self) -> float:
        return self.mean


def gaussian_sigma_from_radius(radius: float, value_range: float) -> float:
    """Initial Gaussian width from a subtractive-clustering radius.

    Follows the genfis2 convention: a cluster of (relative) radius ``r_a``
    over a dimension spanning ``value_range`` yields

    .. math:: \\sigma = r_a \\cdot \\text{range} / \\sqrt{8}

    so that the membership drops to ``exp(-4) \\approx 0.018`` at a distance
    of one radius — matching Chiu's potential kernel.
    """
    if radius <= 0:
        raise ConfigurationError(f"radius must be > 0, got {radius}")
    if value_range <= 0:
        raise ConfigurationError(
            f"value_range must be > 0, got {value_range}")
    return radius * value_range / np.sqrt(8.0)
