"""Appliance base classes.

A smart appliance is "a small computing device integrated into an everyday
object" (paper section 1).  In this simulation an appliance has a name, a
reference to the office event bus, and hooks for publishing and receiving
:class:`ContextEvent` messages.  A :class:`SensingAppliance` additionally
carries a quality-augmented classifier and publishes one qualified
context event per sensor window.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ..core.interconnection import QualityAugmentedClassifier
from ..exceptions import ConfigurationError
from ..types import Classification, ContextClass, QualifiedClassification
from .bus import EventBus
from .messages import ContextEvent


class Appliance(abc.ABC):
    """Base class for all simulated AwareOffice appliances."""

    def __init__(self, name: str, bus: EventBus) -> None:
        if not name:
            raise ConfigurationError("appliance name must be non-empty")
        self.name = name
        self.bus = bus
        self._published: List[ContextEvent] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def publish_context(self, topic: str, context: ContextClass,
                        quality: Optional[float], time_s: float
                        ) -> ContextEvent:
        """Publish one qualified context observation on the bus.

        The appliance owns its event numbering: each published event
        carries the next value of this instance's sequence counter, so
        ``(source, seq)`` identities are deterministic per run and never
        depend on what other publishers (or tests) did first.
        """
        self._seq += 1
        event = ContextEvent.create(source=self.name, topic=topic,
                                    context=context, quality=quality,
                                    time_s=time_s, seq=self._seq)
        self._published.append(event)
        self.bus.publish(event)
        return event

    @property
    def published_events(self) -> List[ContextEvent]:
        """All events this appliance has published."""
        return list(self._published)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human-readable description of the appliance."""


class SensingAppliance(Appliance):
    """An appliance with sensors, a black-box classifier and the CQM.

    Subclasses define ``process_window`` (one cue window in, one event
    out) and ``describe``; qualification and the qualified history are
    shared here.
    """

    def __init__(self, bus: EventBus,
                 augmented: QualityAugmentedClassifier,
                 name: str, topic: str) -> None:
        super().__init__(name=name, bus=bus)
        self.augmented = augmented
        self.topic = topic
        self._qualified: List[QualifiedClassification] = []

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
        """All qualified classifications the appliance has produced."""
        return list(self._qualified)
