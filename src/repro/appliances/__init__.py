"""Simulated AwareOffice appliances: pen, camera, chair, event bus."""

from .awarepen import PEN_TOPIC, AwarePen
from .base import Appliance
from .bus import DeliveryError, EventBus, topic_matches
from .camera import CameraReport, Snapshot, WhiteboardCamera
from .chair import CHAIR_TOPIC, AwareChair
from .display import OfficeDisplay
from .lossy import LossyBus
from .situation import (DEFAULT_RULES, DISCUSSION, IDLE, SITUATION_TOPIC,
                        SITUATIONS, SituationDetector, SituationState,
                        WRITING_SESSION)
from .messages import ContextEvent, derive_event_id

__all__ = [
    "ContextEvent", "derive_event_id",
    "EventBus", "DeliveryError", "topic_matches",
    "Appliance",
    "AwarePen", "PEN_TOPIC",
    "WhiteboardCamera", "Snapshot", "CameraReport",
    "AwareChair", "CHAIR_TOPIC",
    "LossyBus",
    "OfficeDisplay",
    "SituationDetector", "SituationState", "SITUATION_TOPIC", "SITUATIONS",
    "WRITING_SESSION", "DISCUSSION", "IDLE", "DEFAULT_RULES",
]
