"""Cue extraction: from raw sensor windows to the classifier inputs.

Paper Fig. 4: the AwarePen computes the **standard deviation** of each
acceleration axis over a window; those three values are the cue vector
``v_C`` feeding both the context classifier and the quality system.
Additional cue types (mean, RMS energy, mean-crossing rate, range) are
provided for extended classifiers and ablations.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .. import observability as obs
from ..exceptions import ConfigurationError, DimensionError


def sliding_windows(signal: np.ndarray, window: int,
                    hop: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start_index, window_view)`` pairs over a 2-D signal.

    Windows shorter than *window* at the tail are dropped, mirroring a
    fixed-size on-node buffer.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 2:
        raise DimensionError(
            f"signal must be 2-D (samples x axes), got {signal.shape}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    for start in range(0, signal.shape[0] - window + 1, hop):
        yield start, signal[start:start + window]


def sliding_window_matrix(signal: np.ndarray, window: int,
                          hop: int) -> Tuple[np.ndarray, np.ndarray]:
    """All sliding windows of *signal* as one strided view.

    Returns ``(starts, windows)`` with ``windows`` of shape
    ``(n_windows, window, n_axes)`` — a zero-copy view built with
    :func:`numpy.lib.stride_tricks.sliding_window_view`, so the whole
    window set costs O(1) memory regardless of hop.  Tail windows
    shorter than *window* are dropped, exactly like
    :func:`sliding_windows`.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 2:
        raise DimensionError(
            f"signal must be 2-D (samples x axes), got {signal.shape}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    n_samples = signal.shape[0]
    starts = np.arange(0, n_samples - window + 1, hop, dtype=int)
    if starts.size == 0:
        return starts, np.empty((0, window, signal.shape[1]))
    view = np.lib.stride_tricks.sliding_window_view(signal, window, axis=0)
    # sliding_window_view appends the window axis last: (n, axes, window)
    # -> hop-stride the window starts, then put the window axis second.
    return starts, np.swapaxes(view[::hop], 1, 2)


class CueExtractor(abc.ABC):
    """Maps one sensor window to one or more scalar cues."""

    @abc.abstractmethod
    def extract(self, window: np.ndarray) -> np.ndarray:
        """Cues for a ``(window_len, n_axes)`` array, shape ``(n_cues,)``."""

    @abc.abstractmethod
    def cue_names(self, n_axes: int) -> List[str]:
        """Human-readable cue names for *n_axes* input axes."""

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        """Cues for a ``(n_windows, window_len, n_axes)`` window stack.

        The base implementation loops :meth:`extract` per window, so any
        custom extractor written against the scalar interface keeps
        working unchanged; the built-in cues override this with a single
        vectorized reduction over the window axis.
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3:
            raise DimensionError(
                f"windows must be 3-D (windows x samples x axes), "
                f"got {windows.shape}")
        return np.vstack([np.atleast_1d(self.extract(w)) for w in windows])

    def _validated_batch(self, windows: np.ndarray,
                         min_samples: int = 1) -> np.ndarray:
        """Validate a window stack and lay it out window-axis first.

        Returns the stack as a contiguous ``(window, n_windows, n_axes)``
        array; the built-in cues reduce it over axis 0.  That is the
        memory order :meth:`extract` sees for one ``(window, n_axes)``
        window, so numpy accumulates each window's samples in the same
        sequence and the batched cues equal the per-window ones bit for
        bit whenever ``n_axes >= 2``.  (A single-axis window is one
        contiguous column, which numpy sums pairwise, so there the two
        paths may differ by an ulp.)
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3 or windows.shape[1] < min_samples:
            raise DimensionError(
                f"windows must be 3-D with >= {min_samples} samples per "
                f"window, got {windows.shape}")
        return np.ascontiguousarray(np.moveaxis(windows, 1, 0))


class StdCue(CueExtractor):
    """Per-axis standard deviation — the paper's AwarePen cue."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2 or window.shape[0] < 2:
            raise DimensionError(
                "window must be 2-D with >= 2 samples for a std cue")
        return np.std(window, axis=0)

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        return np.std(self._validated_batch(windows, min_samples=2), axis=0)

    def cue_names(self, n_axes: int) -> List[str]:
        return [f"std_{axis}" for axis in _axis_names(n_axes)]


class MeanCue(CueExtractor):
    """Per-axis mean — captures static gravity orientation."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2:
            raise DimensionError("window must be 2-D")
        return np.mean(window, axis=0)

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        return np.mean(self._validated_batch(windows), axis=0)

    def cue_names(self, n_axes: int) -> List[str]:
        return [f"mean_{axis}" for axis in _axis_names(n_axes)]


class EnergyCue(CueExtractor):
    """Per-axis RMS of the mean-removed signal (AC energy)."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2 or window.shape[0] < 2:
            raise DimensionError("window must be 2-D with >= 2 samples")
        centered = window - np.mean(window, axis=0, keepdims=True)
        return np.sqrt(np.mean(centered ** 2, axis=0))

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = self._validated_batch(windows, min_samples=2)
        centered = windows - np.mean(windows, axis=0, keepdims=True)
        return np.sqrt(np.mean(centered ** 2, axis=0))

    def cue_names(self, n_axes: int) -> List[str]:
        return [f"rms_{axis}" for axis in _axis_names(n_axes)]


class RangeCue(CueExtractor):
    """Per-axis peak-to-peak range."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2:
            raise DimensionError("window must be 2-D")
        return np.max(window, axis=0) - np.min(window, axis=0)

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = self._validated_batch(windows)
        return np.max(windows, axis=0) - np.min(windows, axis=0)

    def cue_names(self, n_axes: int) -> List[str]:
        return [f"range_{axis}" for axis in _axis_names(n_axes)]


class MeanCrossingRateCue(CueExtractor):
    """Per-axis rate of crossings through the window mean."""

    def extract(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2 or window.shape[0] < 2:
            raise DimensionError("window must be 2-D with >= 2 samples")
        centered = window - np.mean(window, axis=0, keepdims=True)
        signs = np.signbit(centered)
        crossings = np.sum(signs[1:] != signs[:-1], axis=0)
        return crossings / (window.shape[0] - 1)

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = self._validated_batch(windows, min_samples=2)
        centered = windows - np.mean(windows, axis=0, keepdims=True)
        signs = np.signbit(centered)
        crossings = np.sum(signs[1:] != signs[:-1], axis=0)
        return crossings / (windows.shape[0] - 1)

    def cue_names(self, n_axes: int) -> List[str]:
        return [f"mcr_{axis}" for axis in _axis_names(n_axes)]


@dataclasses.dataclass
class CuePipeline:
    """Ordered composition of cue extractors applied to every window."""

    extractors: Sequence[CueExtractor]

    def __post_init__(self) -> None:
        if not self.extractors:
            raise ConfigurationError("cue pipeline needs >= 1 extractor")

    def extract(self, window: np.ndarray) -> np.ndarray:
        """Concatenated cue vector for one window."""
        return np.concatenate(
            [np.atleast_1d(e.extract(window)) for e in self.extractors])

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        """Concatenated cues for a ``(n_windows, window, n_axes)`` stack."""
        columns = []
        for e in self.extractors:
            col = np.asarray(e.extract_batch(windows))
            # A single-cue extractor may return (n_windows,); make it a column.
            columns.append(col[:, None] if col.ndim == 1 else col)
        return np.hstack(columns)

    def cue_names(self, n_axes: int) -> List[str]:
        names: List[str] = []
        for e in self.extractors:
            names.extend(e.cue_names(n_axes))
        return names

    @obs.traced("cues.extract_all")
    def extract_all(self, signal: np.ndarray, window: int,
                    hop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cues for every sliding window of *signal*.

        Returns ``(starts, cue_matrix)`` with ``cue_matrix`` of shape
        ``(n_windows, n_cues)``: one strided window view, reduced by each
        extractor's vectorized ``extract_batch``.
        """
        starts, windows = sliding_window_matrix(signal, window, hop)
        if starts.size == 0:
            raise DimensionError(
                f"signal of {np.asarray(signal).shape[0]} samples is "
                f"shorter than one window of {window}")
        obs.inc("cues.windows_total", int(starts.size))
        return starts, self.extract_batch(windows)


def _axis_names(n_axes: int) -> List[str]:
    base = ["x", "y", "z"]
    if n_axes <= 3:
        return base[:n_axes]
    return base + [f"a{i}" for i in range(3, n_axes)]


#: The paper's AwarePen cue pipeline: per-axis standard deviation only.
AWAREPEN_CUES = CuePipeline(extractors=(StdCue(),))
