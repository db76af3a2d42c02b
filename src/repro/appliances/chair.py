"""The AwareChair appliance.

A second sensing appliance in the AwareOffice (paper section 5 reports
the CQM being integrated into further appliances).  Structurally the
pen's twin: sensor windows → cues → black-box classifier → CQM →
qualified context events, published on its own topic.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..core.interconnection import QualityAugmentedClassifier
from ..sensors.node import CueWindow
from ..types import Classification, QualifiedClassification
from .base import Appliance
from .bus import EventBus
from .messages import ContextEvent

#: Topic the chair publishes on.
CHAIR_TOPIC = "context.chair"


class AwareChair(Appliance):
    """Context-aware office chair with an attached quality system."""

    def __init__(self, bus: EventBus,
                 augmented: QualityAugmentedClassifier,
                 name: str = "awarechair", topic: str = CHAIR_TOPIC) -> None:
        super().__init__(name=name, bus=bus)
        self.augmented = augmented
        self.topic = topic
        self._qualified: List[QualifiedClassification] = []

    def process_window(self, cues: np.ndarray,
                       time_s: float = 0.0) -> ContextEvent:
        """Classify one cue window, qualify it, and publish the event."""
        classification = self.augmented.classifier.classify(cues)
        return self.publish_classification(classification, time_s)

    def process_stream(self, windows: Iterable[CueWindow]
                       ) -> List[ContextEvent]:
        """Process a stream of sensor windows.

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

    @property
    def history(self) -> List[QualifiedClassification]:
        """All qualified classifications the chair has produced."""
        return list(self._qualified)

    def describe(self) -> str:
        return (f"AwareChair({self.name}): classifier + CQM, "
                f"publishing on {self.topic!r}")
