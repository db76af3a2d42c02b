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

from typing import Iterable, List, Optional

import numpy as np

from ..core.interconnection import QualityAugmentedClassifier
from ..sensors.node import CueWindow
from ..types import Classification, QualifiedClassification
from .base import Appliance
from .bus import EventBus
from .messages import ContextEvent

#: Topic the pen publishes on.
PEN_TOPIC = "context.pen"


class AwarePen(Appliance):
    """Context-aware whiteboard pen with an attached quality system."""

    def __init__(self, bus: EventBus,
                 augmented: QualityAugmentedClassifier,
                 name: str = "awarepen", topic: str = PEN_TOPIC) -> None:
        super().__init__(name=name, bus=bus)
        self.augmented = augmented
        self.topic = topic
        self._qualified: List[QualifiedClassification] = []

    # ------------------------------------------------------------------
    def process_window(self, cues: np.ndarray,
                       time_s: float = 0.0) -> ContextEvent:
        """Classify one cue window, qualify it, and publish the event."""
        classification = self.augmented.classifier.classify(cues)
        return self.publish_classification(classification, time_s)

    def process_stream(self, windows: Iterable[CueWindow]
                       ) -> List[ContextEvent]:
        """Process a stream of sensor windows (simulation driver).

        All windows are classified in one batch; each one is then
        qualified and published on its own, in stream order.
        """
        windows = list(windows)
        if not windows:
            return []
        classifications = self.augmented.classifier.classify_batch(
            np.vstack([w.cues for w in windows]))
        return [self.publish_classification(c, w.time_s)
                for c, w in zip(classifications, windows)]

    def publish_classification(self, classification: Classification,
                               time_s: float) -> ContextEvent:
        """Attach the CQM to one classification and publish the event."""
        qualified = self.augmented.quality.qualify(classification)
        self._qualified.append(qualified)
        return self.publish_context(topic=self.topic,
                                    context=qualified.context,
                                    quality=qualified.quality,
                                    time_s=time_s)

    # ------------------------------------------------------------------
    @property
    def history(self) -> List[QualifiedClassification]:
        """All qualified classifications the pen has produced."""
        return list(self._qualified)

    def last_quality(self) -> Optional[float]:
        """Quality of the most recent classification (None = epsilon/none)."""
        if not self._qualified:
            return None
        return self._qualified[-1].quality

    def describe(self) -> str:
        return (f"AwarePen({self.name}): TSK classifier + CQM, "
                f"publishing on {self.topic!r}")
