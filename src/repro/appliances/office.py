"""The AwareOffice environment: appliances wired to one bus.

"The AwareOffice environment is a living laboratory office space" (paper
section 1).  :class:`AwareOffice` assembles the simulated appliances,
drives scripted scenarios through the AwarePen's sensor node, and collects
office-level statistics — the integration surface the examples and
integration tests exercise.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.filtering import QualityFilter
from ..core.interconnection import QualityAugmentedClassifier
from ..exceptions import ConfigurationError
from ..sensors.accelerometer import AWAREPEN_CLASSES
from ..sensors.node import Segment, SensorNode
from ..types import ContextClass
from .awarepen import AwarePen
from .base import Appliance
from .bus import EventBus
from .camera import WhiteboardCamera


@dataclasses.dataclass(frozen=True)
class OfficeRunReport:
    """Statistics of one scenario run through the office."""

    n_windows: int
    n_snapshots: int
    accepted_events: int
    rejected_events: int
    correct_decisions: int
    wrong_decisions: int

    @property
    def pen_accuracy(self) -> float:
        total = self.correct_decisions + self.wrong_decisions
        return self.correct_decisions / total if total else 0.0


class AwareOffice:
    """Container wiring a pen and a camera to one event bus."""

    def __init__(self, augmented: QualityAugmentedClassifier,
                 gate: Optional[QualityFilter] = None,
                 node: Optional[SensorNode] = None,
                 classes: Sequence[ContextClass] = AWAREPEN_CLASSES,
                 bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.node = node if node is not None else SensorNode()
        self.classes = tuple(classes)
        self.pen = AwarePen(self.bus, augmented)
        self.camera = WhiteboardCamera(self.bus, gate=gate)
        self._extra: Dict[str, Appliance] = {}

    # ------------------------------------------------------------------
    def add_appliance(self, appliance: Appliance) -> None:
        """Register an additional appliance by name."""
        if appliance.name in self._extra:
            raise ConfigurationError(
                f"appliance {appliance.name!r} already registered")
        self._extra[appliance.name] = appliance

    def appliances(self) -> List[Appliance]:
        """All appliances in the office."""
        return [self.pen, self.camera, *self._extra.values()]

    # ------------------------------------------------------------------
    def run_scenario(self, segments: Sequence[Segment],
                     rng: np.random.Generator) -> OfficeRunReport:
        """Stream one scripted scenario through the pen and camera."""
        windows = self.node.collect(segments, rng, self.classes)
        events = self.pen.process_stream(windows)
        correct = sum(event.context.index == window.true_context.index
                      for event, window in zip(events, windows))
        wrong = len(windows) - correct
        self.camera.flush(windows[-1].time_s if windows else 0.0)
        return OfficeRunReport(
            n_windows=len(windows),
            n_snapshots=len(self.camera.snapshots),
            accepted_events=self.camera.accepted_events,
            rejected_events=self.camera.rejected_events,
            correct_decisions=correct,
            wrong_decisions=wrong,
        )
