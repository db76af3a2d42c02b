"""Offset-addressed replay of the bus event log into golden traces.

The payoff of logging every accepted publish
(:class:`~repro.bus.log.EventLog`): any bus run — an office scenario, a
failure drill, a production incident — can be re-derived from its log
alone and compared bit-for-bit against what the live consumers saw,
using the PR-5 golden-trace harness (:mod:`repro.verify.golden`).

A **bus trace** is a :class:`~repro.verify.golden.GoldenTrace` with two
kinds of stages:

* ``events:<source>`` — per publishing source, arrays of the sequence
  numbers, qualities (ε encoded as NaN), timestamps and context indices
  of its events *after* dedupe, in sequence order.  Per-source arrays
  make the trace insensitive to cross-source interleaving, which
  at-least-once delivery does not (and need not) pin.
* ``camera`` — the whiteboard camera's decisions (snapshot times,
  session starts, writing-event counts, accepted/rejected totals, from
  its :class:`~repro.appliances.camera.CameraReport`) when the run
  drove one; this pins the *appliance-visible* outcome, the paper's
  actual object of interest.

:func:`replay_log` rebuilds the same trace from the log: read records
in offset order, drop publisher-retry duplicates on ``(source, seq)``,
re-run a fresh camera over the deduped stream.  A live trace recorded
with :func:`capture_bus_trace` then diffs clean against the replay —
``repro bus replay --golden`` is that check as a command.

A ``meta.json`` sidecar in the log directory carries what the log
itself cannot: the run's seed and the camera gate configuration.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..appliances.bus import EventBus
from ..appliances.camera import CameraReport, WhiteboardCamera
from ..appliances.messages import ContextEvent
from ..core.filtering import EpsilonPolicy, QualityFilter
from ..exceptions import BusError, ConfigurationError
from ..verify.golden import ArrayRecord, GoldenDiff, GoldenTrace, \
    StageRecord, diff_traces
from .log import EventLog

META_NAME = "meta.json"


@dataclasses.dataclass(frozen=True)
class RunMeta:
    """Replay sidecar: the run parameters the event log cannot carry."""

    seed: int
    gate_threshold: Optional[float] = None
    gate_epsilon_policy: str = "reject"
    camera_topic: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "bus_run_meta", "seed": self.seed,
                "gate_threshold": self.gate_threshold,
                "gate_epsilon_policy": self.gate_epsilon_policy,
                "camera_topic": self.camera_topic}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunMeta":
        if payload.get("kind") != "bus_run_meta":
            raise ConfigurationError(
                f"not a bus run meta: kind={payload.get('kind')!r}")
        threshold = payload.get("gate_threshold")
        return cls(seed=int(payload["seed"]),  # type: ignore[arg-type]
                   gate_threshold=(None if threshold is None
                                   else float(threshold)),  # type: ignore[arg-type]
                   gate_epsilon_policy=str(
                       payload.get("gate_epsilon_policy", "reject")),
                   camera_topic=(None if payload.get("camera_topic") is None
                                 else str(payload["camera_topic"])))

    def gate(self) -> Optional[QualityFilter]:
        if self.gate_threshold is None:
            return None
        return QualityFilter(
            threshold=self.gate_threshold,
            epsilon_policy=EpsilonPolicy(self.gate_epsilon_policy))

    def save(self, log_dir) -> pathlib.Path:
        path = pathlib.Path(log_dir) / META_NAME
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, log_dir) -> "RunMeta":
        path = pathlib.Path(log_dir) / META_NAME
        if not path.exists():
            raise BusError(f"no {META_NAME} sidecar in {log_dir}")
        return cls.from_dict(json.loads(path.read_text()))


def dedupe_events(events: Sequence[ContextEvent]) -> List[ContextEvent]:
    """Drop repeated ``(source, seq)`` identities, keeping first arrival.

    The consumer-side at-least-once contract applied offline: publisher
    retries and broker redeliveries may both put the same identity in
    front of us more than once; only the first counts.
    """
    seen: Set[Tuple[str, int]] = set()
    out: List[ContextEvent] = []
    for event in events:
        key = (event.source, event.seq)
        if key in seen:
            continue
        seen.add(key)
        out.append(event)
    return out


def capture_bus_trace(seed: int, events: Sequence[ContextEvent],
                      camera: Optional[CameraReport] = None
                      ) -> GoldenTrace:
    """Build the golden trace of one bus run.

    *events* are the deduped events a consumer handled (or a replay
    reconstructed); *camera* optionally contributes the appliance-state
    stage.  Events are grouped per source and sorted by ``seq``, so two
    runs that delivered the same per-source streams — whatever the
    cross-source interleaving or redelivery noise — produce identical
    traces.
    """
    per_source: Dict[str, List[ContextEvent]] = {}
    for event in events:
        per_source.setdefault(event.source, []).append(event)
    stages: List[StageRecord] = []
    for source in sorted(per_source):
        stream = sorted(per_source[source], key=lambda e: e.seq)
        arrays = [
            ("seqs", np.array([e.seq for e in stream], dtype=float)),
            ("qualities", np.array(
                [np.nan if e.quality is None else e.quality
                 for e in stream], dtype=float)),
            ("times", np.array([e.time_s for e in stream], dtype=float)),
            ("contexts", np.array([e.context.index for e in stream],
                                  dtype=float)),
        ]
        stages.append(StageRecord(
            stage=f"events:{source}",
            arrays=tuple(ArrayRecord.capture(name, array)
                         for name, array in arrays)))
    if camera is not None:
        arrays = [
            ("snapshot_times", camera.snapshot_times),
            ("session_starts", camera.session_starts),
            ("n_writing_events", camera.n_writing_events.astype(float)),
            ("totals", np.array([camera.accepted_events,
                                 camera.rejected_events,
                                 camera.n_snapshots], dtype=float)),
        ]
        stages.append(StageRecord(
            stage="camera",
            arrays=tuple(ArrayRecord.capture(name, array)
                         for name, array in arrays)))
    return GoldenTrace(seed=int(seed), stages=tuple(stages))


def read_log_events(log_dir, start: int = 0,
                    count: Optional[int] = None) -> List[ContextEvent]:
    """Events of the log at *log_dir* in offset order (not deduped)."""
    with EventLog(log_dir) as log:
        events = []
        for _offset, record in log.read(start=start, count=count):
            if not isinstance(record, dict) or "event" not in record:
                raise BusError(f"log record without event payload: "
                               f"{record!r}")
            events.append(ContextEvent.from_wire(record["event"]))
        return events


def replay_log(log_dir, meta: Optional[RunMeta] = None) -> GoldenTrace:
    """Reconstruct the run's golden trace from its event log alone.

    Reads every record in offset order, dedupes on ``(source, seq)``,
    and — when the run drove a camera (``meta.camera_topic``) — re-runs
    a fresh :class:`WhiteboardCamera` with the logged gate over the
    deduped stream on a private in-process bus.
    """
    meta = meta if meta is not None else RunMeta.load(log_dir)
    events = dedupe_events(read_log_events(log_dir))
    report: Optional[CameraReport] = None
    if meta.camera_topic is not None:
        bus = EventBus()
        camera = WhiteboardCamera(bus, gate=meta.gate(),
                                  topic=meta.camera_topic)
        last_time = 0.0
        for event in events:
            bus.publish(event)
            last_time = max(last_time, event.time_s)
        camera.flush(last_time)
        report = CameraReport.of(camera)
    return capture_bus_trace(meta.seed, events, camera=report)


def check_replay(log_dir, golden_path,
                 rtol: float = 0.0, atol: float = 0.0) -> GoldenDiff:
    """Replay the log and diff against a stored bus trace.

    Defaults to zero tolerance: the replayed arrays are rebuilt from
    the same JSON numbers the live run logged, so the match must be
    bit-identical — any drift means the log and the consumer disagree.
    """
    golden = GoldenTrace.load(pathlib.Path(golden_path))
    return diff_traces(replay_log(log_dir), golden, rtol=rtol, atol=atol)
