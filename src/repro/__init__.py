"""repro — Context Quality Measure (CQM) for smart appliances.

A complete, from-scratch reproduction of

    M. Berchtold, C. Decker, T. Riedel, T. Zimmer, M. Beigl:
    "Using a Context Quality Measure for Improving Smart Appliances",
    ICDCS Workshops 2007.

Subpackages
-----------
``repro.fuzzy``
    TSK fuzzy inference, its numpy kernels, Gaussian membership functions.
``repro.clustering``
    Subtractive and mountain clustering.
``repro.anfis``
    ANFIS hybrid learning (LSE forward pass + gradient backward pass).
``repro.stats``
    MLE Gaussians, density-intersection thresholds, CQM probabilities.
``repro.sensors``
    Simulated 3-axis accelerometer, degradation models, cue extraction.
``repro.classifiers``
    Black-box context classifiers (TSK-FIS, nearest centroid, k-NN).
``repro.datasets``
    Scripted AwarePen scenarios, dataset generation and splits.
``repro.core``
    The contribution: quality FIS construction, normalization,
    interconnection, calibration, filtering, prediction and fusion.
``repro.appliances``
    The AwareOffice simulation: event bus, AwarePen, whiteboard camera.
``repro.observability``
    Metrics registry, span tracing and exporters watching the pipeline.
``repro.serving``
    Micro-batching, quality-gated asyncio inference service with a
    versioned model registry, ε load-shedding and hot-swap.
``repro.experiment``
    One-call end-to-end pipeline used by examples and benchmarks.
"""

from . import (anfis, appliances, classifiers, clustering, core, datasets,
               fuzzy, observability, parallel, sensors, serving, stats)
from .exceptions import (CalibrationError, ConfigurationError, DimensionError,
                         EmptyDatasetError, NotFittedError, ReproError,
                         ServiceClosedError, TrainingError)
from .experiment import (ExperimentResult, run_awarepen_experiment,
                         train_default_classifier)
from .types import (Classification, ContextClass, LabeledWindow,
                    QualifiedClassification)

__version__ = "1.0.0"

__all__ = [
    "fuzzy", "clustering", "anfis", "stats", "sensors", "classifiers",
    "datasets", "core", "appliances", "parallel", "observability",
    "serving",
    "ContextClass", "Classification", "QualifiedClassification",
    "LabeledWindow",
    "ReproError", "ConfigurationError", "NotFittedError", "DimensionError",
    "TrainingError", "CalibrationError", "EmptyDatasetError",
    "ServiceClosedError",
    "run_awarepen_experiment", "ExperimentResult",
    "train_default_classifier",
    "__version__",
]
