"""Fuzzy-logic substrate: Gaussian membership functions and the TSK FIS.

The TSK system (:class:`repro.fuzzy.TSKSystem`) is the engine behind both
the AwarePen context classifier and the paper's quality system; its array
kernels live in :mod:`repro.fuzzy.kernels`.
"""

from .membership import (GaussianMF, MembershipFunction,
                         gaussian_sigma_from_radius)
from .partition import (grid_membership_centers, grid_partition_fis,
                        grid_rule_count)
from .tsk import TSKComponents, TSKRule, TSKSystem

__all__ = [
    "MembershipFunction", "GaussianMF", "gaussian_sigma_from_radius",
    "TSKRule", "TSKSystem", "TSKComponents",
    "grid_partition_fis", "grid_membership_centers", "grid_rule_count",
]
