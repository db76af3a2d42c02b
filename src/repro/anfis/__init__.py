"""ANFIS substrate: structure identification, LSE and hybrid learning."""

from .bell import (BellGradients, BellHybridTrainer, BellTSKSystem,
                   apply_bell_gradient_step, bell_fis_from_clusters,
                   bell_premise_gradients)
from .cache import ForwardCache
from .gradient import (PremiseGradients, apply_gradient_step,
                       numeric_premise_gradients, premise_gradients)
from .initialization import fis_from_clusters, initial_fis_from_data
from .lse import (LSEDiagnostics, RecursiveLSE, design_matrix,
                  fit_consequents)
from .network import ANFISNetwork, LayerOutputs
from .training import EpochRecord, HybridTrainer, TrainingReport

__all__ = [
    "design_matrix", "fit_consequents", "LSEDiagnostics", "RecursiveLSE",
    "premise_gradients", "apply_gradient_step", "numeric_premise_gradients",
    "PremiseGradients",
    "fis_from_clusters", "initial_fis_from_data",
    "HybridTrainer", "TrainingReport", "EpochRecord", "ForwardCache",
    "ANFISNetwork", "LayerOutputs",
    "BellTSKSystem", "bell_fis_from_clusters", "bell_premise_gradients",
    "apply_bell_gradient_step", "BellGradients", "BellHybridTrainer",
]
