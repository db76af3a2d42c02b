"""The AwareChair appliance.

A second sensing appliance in the AwareOffice (paper section 5 reports
the CQM being integrated into further appliances).  Structurally the
pen's twin: sensor windows → cues → black-box classifier → CQM →
qualified context events, published on its own topic.
"""

from __future__ import annotations

import numpy as np

from ..core.interconnection import QualityAugmentedClassifier
from .base import SensingAppliance
from .bus import EventBus
from .messages import ContextEvent

#: Topic the chair publishes on.
CHAIR_TOPIC = "context.chair"


class AwareChair(SensingAppliance):
    """Context-aware office chair with an attached quality system."""

    def __init__(self, bus: EventBus,
                 augmented: QualityAugmentedClassifier,
                 name: str = "awarechair", topic: str = CHAIR_TOPIC) -> None:
        super().__init__(bus=bus, augmented=augmented, name=name,
                         topic=topic)

    def process_window(self, cues: np.ndarray,
                       time_s: float = 0.0) -> ContextEvent:
        """Classify one cue window, qualify it, and publish the event."""
        classification = self.augmented.classifier.classify(cues)
        return self.publish_classification(classification, time_s)

    def describe(self) -> str:
        return (f"AwareChair({self.name}): classifier + CQM, "
                f"publishing on {self.topic!r}")
