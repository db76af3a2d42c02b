"""Sensor-node abstraction: sampling, buffering and cue streaming.

Models the Particle Computer node attached to the AwarePen: it samples the
(simulated) accelerometer at a fixed rate, keeps a window buffer, and
emits one cue vector per hop — the on-node half of paper Fig. 4.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import ContextClass
from .accelerometer import ActivityModel, DEFAULT_STYLE, UserStyle, blend
from .cues import AWAREPEN_CUES, CuePipeline, sliding_window_matrix
from .signal import ADXL_SENSOR, SensorModel


@dataclasses.dataclass(frozen=True)
class Segment:
    """One scripted activity stretch within a scenario."""

    model: ActivityModel
    duration_s: float
    style: UserStyle = DEFAULT_STYLE

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}")


@dataclasses.dataclass(frozen=True)
class CueWindow:
    """One emitted window: timing, cues and ground truth."""

    start_sample: int
    time_s: float
    cues: np.ndarray
    true_context: ContextClass
    is_transition: bool


class SensorNode:
    """Simulated AwarePen sensor node.

    Parameters
    ----------
    rate_hz:
        Sampling rate of the accelerometer.
    window:
        Window length in samples over which cues are computed.
    hop:
        Hop between consecutive windows in samples.
    cues:
        Cue pipeline (defaults to the paper's per-axis std).
    sensor:
        Imperfection model applied to the ideal motion signal.
    transition_s:
        Crossfade length inserted between consecutive segments; windows
        overlapping a crossfade are flagged ``is_transition``.
    """

    def __init__(self, rate_hz: float = 100.0, window: int = 100,
                 hop: int = 50, cues: CuePipeline = AWAREPEN_CUES,
                 sensor: SensorModel = ADXL_SENSOR,
                 transition_s: float = 0.5) -> None:
        if rate_hz <= 0:
            raise ConfigurationError(f"rate_hz must be > 0, got {rate_hz}")
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if hop < 1:
            raise ConfigurationError(f"hop must be >= 1, got {hop}")
        if transition_s < 0:
            raise ConfigurationError(
                f"transition_s must be >= 0, got {transition_s}")
        self.rate_hz = float(rate_hz)
        self.window = int(window)
        self.hop = int(hop)
        self.cues = cues
        self.sensor = sensor
        self.transition_s = float(transition_s)

    # ------------------------------------------------------------------
    def render_scenario(self, segments: Sequence[Segment],
                        rng: np.random.Generator
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render a scripted scenario into one continuous degraded signal.

        Returns ``(signal, labels, transition_mask)`` where *labels* holds
        the per-sample true class index and *transition_mask* marks samples
        inside an activity crossfade.
        """
        if not segments:
            raise ConfigurationError("scenario needs at least one segment")
        pieces: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        transition: List[np.ndarray] = []
        fade = int(self.transition_s * self.rate_hz)

        previous_tail: Optional[np.ndarray] = None
        for segment in segments:
            n = max(int(segment.duration_s * self.rate_hz), self.window)
            trace = segment.model.generate(n, self.rate_hz, rng,
                                           style=segment.style)
            seg_labels = np.full(n, segment.model.context.index, dtype=int)
            seg_transition = np.zeros(n, dtype=bool)
            if previous_tail is not None and fade > 0:
                k = min(fade, len(previous_tail), n)
                if k > 1:
                    trace[:k] = blend(previous_tail[-k:], trace[:k])
                    seg_transition[:k] = True
            pieces.append(trace)
            labels.append(seg_labels)
            transition.append(seg_transition)
            previous_tail = trace

        ideal = np.vstack(pieces)
        signal = self.sensor.apply(ideal, rng)
        return signal, np.concatenate(labels), np.concatenate(transition)

    def stream(self, segments: Sequence[Segment],
               rng: np.random.Generator,
               classes: Sequence[ContextClass]) -> Iterator[CueWindow]:
        """Emit :class:`CueWindow` objects for a scripted scenario.

        *classes* maps class indices to :class:`ContextClass` objects (the
        per-sample labels produced by the activity models are indices).

        The cues of every window come from one strided window view and
        one :meth:`CuePipeline.extract_batch` call, equal bit for bit to
        extracting each window on its own.  A window's true context is
        its majority label (ties go to the smallest index); it is a
        transition when it overlaps a crossfade or a segment boundary.
        """
        by_index = {c.index: c for c in classes}
        signal, labels, transition = self.render_scenario(segments, rng)
        starts, windows = sliding_window_matrix(signal, self.window,
                                                self.hop)
        cues = self.cues.extract_batch(windows)
        # One row per window over the labels and the crossfade mask;
        # counts[i, c] = samples of class c in window i.
        label_windows = _window_rows(labels, self.window, self.hop)
        counts = np.sum(label_windows[:, :, None]
                        == np.arange(int(labels.max()) + 1), axis=1)
        majority = np.argmax(counts, axis=1)
        crosses_boundary = counts.max(axis=1) < self.window
        in_fade = np.any(_window_rows(transition, self.window, self.hop),
                         axis=1)
        is_transition = in_fade | crosses_boundary
        for i, start in enumerate(starts.tolist()):
            index = int(majority[i])
            if index not in by_index:
                raise ConfigurationError(
                    f"no ContextClass registered for index {index}")
            yield CueWindow(
                start_sample=start,
                time_s=start / self.rate_hz,
                cues=cues[i],
                true_context=by_index[index],
                is_transition=bool(is_transition[i]),
            )

    def collect(self, segments: Sequence[Segment],
                rng: np.random.Generator,
                classes: Sequence[ContextClass]) -> List[CueWindow]:
        """Materialize :meth:`stream` into a list."""
        return list(self.stream(segments, rng, classes))


def _window_rows(values: np.ndarray, window: int, hop: int) -> np.ndarray:
    """``(n_windows, window)`` strided view of a per-sample 1-D array."""
    return np.lib.stride_tricks.sliding_window_view(values, window)[::hop]
