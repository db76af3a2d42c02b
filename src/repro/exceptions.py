"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before fitting."""


class DimensionError(ReproError):
    """An input array has the wrong shape or dimensionality."""


class TrainingError(ReproError):
    """Model training failed (e.g. degenerate data, no clusters found)."""


class CalibrationError(ReproError):
    """Threshold calibration failed (e.g. a population is empty)."""


class EmptyDatasetError(ReproError):
    """A dataset operation was attempted on an empty dataset."""


class ServiceClosedError(ReproError):
    """A request was submitted to a serving instance that is draining
    (or was never started); the request was not admitted."""


class ScenarioError(ConfigurationError):
    """A declarative scenario spec failed schema validation.

    Subclasses :class:`ConfigurationError` (and therefore
    :class:`ReproError`): a malformed scenario is a configuration
    problem, but callers of :mod:`repro.scenarios` can catch the
    narrower type to distinguish spec errors (with their actionable
    field-level messages) from other construction failures.
    """


class BusError(ReproError):
    """A distributed-bus operation failed (broker, log, or protocol).

    Raised for malformed bus frames, corrupt event-log segments and
    publishes that cannot be accepted — distinct from
    :class:`ConfigurationError`, which still covers bad construction
    parameters of bus objects.
    """


class ParallelExecutionError(ReproError):
    """A parallel backend failed outside the task's own code.

    Raised when a worker pool breaks (e.g. an unpicklable task on the
    process backend, or an OOM-killed worker) — distinct from an
    exception *raised by* a task, which propagates unchanged.
    """
