"""Fuzzy clustering substrate: subtractive (Chiu) and mountain clustering."""

from .mountain import MountainClustering, MountainClusteringResult
from .subtractive import (SubtractiveClustering, SubtractiveClusteringResult,
                          subclust)

__all__ = [
    "SubtractiveClustering", "SubtractiveClusteringResult", "subclust",
    "MountainClustering", "MountainClusteringResult",
]
