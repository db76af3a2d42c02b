"""The AwarePen appliance (paper section 3.1 and Fig. 4).

Processing pipeline, exactly as in the paper's schematic::

    sensors (adxl x/y/z)
      -> cue values (standard deviation per axis)
      -> mapping TSK-FIS -> contextual class identifier
      -> quality TSK-FIS (normalized) -> quality measure q

The pen consumes sensor windows (from a live :class:`SensorNode` stream or
pre-extracted cue vectors), classifies them, attaches the CQM, and
publishes qualified context events on the office bus.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.interconnection import QualityAugmentedClassifier
from .base import SensingAppliance
from .bus import EventBus
from .messages import ContextEvent

#: Topic the pen publishes on.
PEN_TOPIC = "context.pen"


class AwarePen(SensingAppliance):
    """Context-aware whiteboard pen with an attached quality system."""

    def __init__(self, bus: EventBus,
                 augmented: QualityAugmentedClassifier,
                 name: str = "awarepen", topic: str = PEN_TOPIC) -> None:
        super().__init__(bus=bus, augmented=augmented, name=name,
                         topic=topic)

    def process_window(self, cues: np.ndarray,
                       time_s: float = 0.0) -> ContextEvent:
        """Classify one cue window, qualify it, and publish the event."""
        classification = self.augmented.classifier.classify(cues)
        return self.publish_classification(classification, time_s)

    def last_quality(self) -> Optional[float]:
        """Quality of the most recent classification (None = epsilon/none)."""
        if not self._qualified:
            return None
        return self._qualified[-1].quality

    def describe(self) -> str:
        return (f"AwarePen({self.name}): TSK classifier + CQM, "
                f"publishing on {self.topic!r}")
