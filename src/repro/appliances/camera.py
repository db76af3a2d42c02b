"""The whiteboard camera appliance.

Paper section 1: "the context received from the pen is used by the camera
of the whiteboard to take a picture copy of the content when a writing
session was over.  Thus, to allow for a high [quality] of the whiteboard
camera decision, a measure for the context input is required."

The camera subscribes to pen context events, gates them through a
:class:`QualityFilter`, tracks writing sessions, and "takes a picture"
(records a snapshot) when a trusted writing session ends.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..core.filtering import QualityFilter
from ..exceptions import ConfigurationError
from ..sensors.accelerometer import WRITING
from ..types import ContextClass
from .awarepen import PEN_TOPIC
from .base import Appliance
from .bus import EventBus
from .messages import ContextEvent


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """One picture the camera decided to take."""

    time_s: float
    session_start_s: float
    n_writing_events: int
    trigger_event_id: int


@dataclasses.dataclass(frozen=True)
class CameraReport:
    """One camera's gating and snapshot outcome, as plain arrays.

    ``threshold`` is the gate the camera ran with (``None``: ungated).
    The per-snapshot arrays are aligned: entry ``i`` of each describes
    the camera's ``i``-th snapshot.
    """

    name: str
    threshold: Optional[float]
    accepted_events: int
    rejected_events: int
    n_snapshots: int
    snapshot_times: np.ndarray     # (n_snapshots,) picture times in s
    session_starts: np.ndarray     # (n_snapshots,) session start times
    n_writing_events: np.ndarray   # (n_snapshots,) events per session

    @classmethod
    def of(cls, camera: "WhiteboardCamera") -> "CameraReport":
        """Reduce a (flushed) camera to its report."""
        snaps = camera.snapshots
        return cls(
            name=camera.name,
            threshold=(None if camera.gate is None
                       else float(camera.gate.threshold)),
            accepted_events=camera.accepted_events,
            rejected_events=camera.rejected_events,
            n_snapshots=len(snaps),
            snapshot_times=np.asarray([s.time_s for s in snaps],
                                      dtype=float),
            session_starts=np.asarray([s.session_start_s for s in snaps],
                                      dtype=float),
            n_writing_events=np.asarray([s.n_writing_events for s in snaps],
                                        dtype=int),
        )


class WhiteboardCamera(Appliance):
    """Quality-gated snapshot camera.

    Parameters
    ----------
    bus:
        The office event bus.
    gate:
        Quality filter; only events passing the gate influence the session
        state.  Pass ``None`` to model the paper's *before* condition (the
        camera believes every context event).
    writing_class:
        The context class that constitutes a writing session.
    min_session_events:
        Writing events needed before an ended session is photographed
        (debounces single spurious detections).
    """

    def __init__(self, bus: EventBus, gate: Optional[QualityFilter] = None,
                 writing_class: ContextClass = WRITING,
                 min_session_events: int = 2,
                 name: str = "whiteboard-camera",
                 topic: str = PEN_TOPIC) -> None:
        super().__init__(name=name, bus=bus)
        if min_session_events < 1:
            raise ConfigurationError(
                f"min_session_events must be >= 1, got {min_session_events}")
        self.gate = gate
        self.writing_class = writing_class
        self.min_session_events = int(min_session_events)
        self.snapshots: List[Snapshot] = []
        self.accepted_events = 0
        self.rejected_events = 0
        self._session_start: Optional[float] = None
        self._session_events = 0
        bus.subscribe(topic, self.on_event, name=self.name)

    # ------------------------------------------------------------------
    def on_event(self, event: ContextEvent) -> None:
        """Bus callback: update session state from one context event."""
        if self.gate is not None:
            accepted = (event.quality is not None
                        and event.quality > self.gate.threshold) or (
                            event.quality is None
                            and not self._rejects_epsilon())
            if not accepted:
                self.rejected_events += 1
                return
        self.accepted_events += 1

        if event.context.index == self.writing_class.index:
            if self._session_start is None:
                self._session_start = event.time_s
                self._session_events = 0
            self._session_events += 1
        else:
            self._maybe_snapshot(event)

    def _rejects_epsilon(self) -> bool:
        from ..core.filtering import EpsilonPolicy
        assert self.gate is not None
        return self.gate.epsilon_policy is EpsilonPolicy.REJECT

    def _maybe_snapshot(self, event: ContextEvent) -> None:
        if (self._session_start is not None
                and self._session_events >= self.min_session_events):
            self.snapshots.append(Snapshot(
                time_s=event.time_s,
                session_start_s=self._session_start,
                n_writing_events=self._session_events,
                trigger_event_id=event.event_id,
            ))
        self._session_start = None
        self._session_events = 0

    def flush(self, time_s: float) -> None:
        """End-of-simulation: close any open writing session."""
        if (self._session_start is not None
                and self._session_events >= self.min_session_events):
            self.snapshots.append(Snapshot(
                time_s=time_s,
                session_start_s=self._session_start,
                n_writing_events=self._session_events,
                trigger_event_id=-1,
            ))
        self._session_start = None
        self._session_events = 0

    # ------------------------------------------------------------------
    def describe(self) -> str:
        mode = "ungated" if self.gate is None else (
            f"gated at s={self.gate.threshold:.3f}")
        return f"WhiteboardCamera({self.name}): {mode}"
