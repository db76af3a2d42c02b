"""Execute a declarative scenario on any bus and trace the result.

The runner is the scenario layer's interpreter: it builds every sensor
node and appliance a spec declares, streams all sensor windows through
the appliance graph in global time order, and reduces the run into
plain-array reports.  The same spec runs bit-identically on the
in-process :class:`~repro.appliances.bus.EventBus` and on the
:mod:`repro.bus` broker (conformance matrix requirement c), and a run
reduces to a content-hashed :class:`~repro.verify.golden.GoldenTrace`
through the PR-5 golden harness (requirement b).

Determinism contract: per-sensor streams use
``np.random.default_rng([seed, sensor_index])``; windows merge sorted by
``(time_s, appliance order)``; appliances are constructed in spec order
so bus subscription order never depends on dict iteration.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..appliances.base import Appliance
from ..appliances.awarepen import AwarePen
from ..appliances.bus import EventBus
from ..appliances.camera import CameraReport, WhiteboardCamera
from ..appliances.chair import AwareChair
from ..appliances.display import OfficeDisplay
from ..appliances.situation import SituationDetector
from ..core.filtering import QualityFilter
from ..exceptions import ScenarioError
from ..sensors.node import CueWindow
from ..types import Classification
from ..verify.golden import ArrayRecord, GoldenTrace, StageRecord
from .activities import FAMILY_CLASSES, FAMILY_MODELS
from .models import model_for
from .spec import ApplianceSpec, ScenarioSpec

#: Transports the runner can execute a scenario on.
TRANSPORTS = ("eventbus", "broker")


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ApplianceEvents:
    """Per-window record of one sensing appliance's decisions."""

    name: str
    times: np.ndarray              # (n,) window times in s
    true_indices: np.ndarray       # (n,) ground-truth class indices
    predicted_indices: np.ndarray  # (n,) published class indices
    qualities: np.ndarray          # (n,) q in [0, 1]; NaN = epsilon


@dataclasses.dataclass(frozen=True)
class SituationReport:
    """One situation detector's fusion outcome."""

    name: str
    n_states: int
    ignored_events: int
    n_published: int
    confidences: np.ndarray        # confidence of every evaluated state


@dataclasses.dataclass(frozen=True)
class ScenarioRunResult:
    """Everything a scenario run produced, in deterministic order."""

    scenario: str
    seed: int
    n_windows: int
    n_correct: int
    n_wrong: int
    events: Tuple[ApplianceEvents, ...]
    cameras: Tuple[CameraReport, ...]
    situations: Tuple[SituationReport, ...]

    @property
    def accuracy(self) -> float:
        total = self.n_correct + self.n_wrong
        return self.n_correct / total if total else 0.0


# ----------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec, seed: int = 7,
                 bus: Optional[EventBus] = None) -> ScenarioRunResult:
    """Validate and execute *spec*; deterministic for a fixed seed."""
    spec.validate()
    bus = bus if bus is not None else EventBus()
    styles = spec.resolved_styles()
    sensors = {s.name: s for s in spec.sensors}
    sensor_order = {s.name: i for i, s in enumerate(spec.sensors)}

    # Build appliances strictly in spec order (subscription order).
    built: Dict[str, Appliance] = {}
    sensing: List[ApplianceSpec] = []
    for app in spec.appliances:
        if app.kind in ("pen", "chair"):
            clf_spec = (app.classifier if app.classifier is not None
                        else spec.classifier)
            model = model_for(app.kind, clf_spec, seed)
            cls = AwarePen if app.kind == "pen" else AwareChair
            built[app.name] = cls(bus, model.augmented, name=app.name,
                                  topic=app.resolved_topic())
            sensing.append(app)
        elif app.kind == "camera":
            source = spec.appliance(app.inputs[0])
            gate = None
            if app.gated:
                clf_spec = (source.classifier if source.classifier is not None
                            else spec.classifier)
                threshold = (app.threshold if app.threshold is not None
                             else model_for(source.kind, clf_spec,
                                            seed).threshold)
                gate = QualityFilter(threshold=float(np.clip(threshold,
                                                             0.0, 1.0)))
            built[app.name] = WhiteboardCamera(
                bus, gate=gate, min_session_events=app.min_session_events,
                name=app.name, topic=source.resolved_topic())
        elif app.kind == "situation":
            topics = {}
            for ref in app.inputs:
                source = spec.appliance(ref)
                topics[source.kind] = source.resolved_topic()
            built[app.name] = SituationDetector(
                bus, source_topics=topics, min_quality=app.min_quality,
                name=app.name)
        elif app.kind == "display":
            built[app.name] = OfficeDisplay(bus, name=app.name)

    # Stream and classify every sensor's windows in one batch per
    # appliance, then merge them into global time order.  Only this
    # stateless work is batched: the CQM, publishing and everything
    # downstream of the bus run once per window, in merged order.
    merged: List[Tuple[float, int, CueWindow, Classification, str]] = []
    last_time: Dict[str, float] = {}
    for order, app in enumerate(sensing):
        sensor = sensors[app.sensor]
        node = sensor.build_node()
        segments = sensor.build_segments(styles,
                                         FAMILY_MODELS[sensor.family])
        rng = np.random.default_rng([seed, sensor_order[sensor.name]])
        windows = node.collect(segments, rng,
                               FAMILY_CLASSES[sensor.family])
        classifier = built[app.name].augmented.classifier
        classifications = classifier.classify_batch(
            np.vstack([w.cues for w in windows]))
        for window, classification in zip(windows, classifications):
            merged.append((window.time_s, order, window, classification,
                           app.name))
    merged.sort(key=lambda item: (item[0], item[1]))

    times: Dict[str, List[float]] = {a.name: [] for a in sensing}
    true_idx: Dict[str, List[int]] = {a.name: [] for a in sensing}
    pred_idx: Dict[str, List[int]] = {a.name: [] for a in sensing}
    qualities: Dict[str, List[float]] = {a.name: [] for a in sensing}
    n_correct = 0
    n_wrong = 0
    for time_s, _, window, classification, name in merged:
        event = built[name].publish_classification(classification, time_s)
        last_time[name] = time_s
        times[name].append(time_s)
        true_idx[name].append(window.true_context.index)
        pred_idx[name].append(event.context.index)
        qualities[name].append(np.nan if event.quality is None
                               else float(event.quality))
        if event.context.index == window.true_context.index:
            n_correct += 1
        else:
            n_wrong += 1

    # Close every camera's open session with its source's last window time.
    events: List[ApplianceEvents] = []
    cameras: List[CameraReport] = []
    situations: List[SituationReport] = []
    for app in spec.appliances:
        obj = built[app.name]
        if app.kind in ("pen", "chair"):
            events.append(ApplianceEvents(
                name=app.name,
                times=np.asarray(times[app.name], dtype=float),
                true_indices=np.asarray(true_idx[app.name], dtype=int),
                predicted_indices=np.asarray(pred_idx[app.name], dtype=int),
                qualities=np.asarray(qualities[app.name], dtype=float),
            ))
        elif app.kind == "camera":
            obj.flush(last_time.get(app.inputs[0], 0.0))
            cameras.append(CameraReport.of(obj))
        elif app.kind == "situation":
            situations.append(SituationReport(
                name=app.name,
                n_states=len(obj.states),
                ignored_events=obj.ignored_events,
                n_published=len(obj.published_events),
                confidences=np.asarray(
                    [s.confidence for s in obj.states], dtype=float),
            ))

    return ScenarioRunResult(
        scenario=spec.name,
        seed=seed,
        n_windows=len(merged),
        n_correct=n_correct,
        n_wrong=n_wrong,
        events=tuple(events),
        cameras=tuple(cameras),
        situations=tuple(situations),
    )


def run_scenario_on(spec: ScenarioSpec, seed: int = 7,
                    transport: str = "eventbus",
                    log_dir: Optional[Path] = None) -> ScenarioRunResult:
    """Run on a named transport: in-process bus or the repro.bus broker."""
    if transport not in TRANSPORTS:
        raise ScenarioError(
            f"transport {transport!r} is unknown; "
            f"available: {sorted(TRANSPORTS)}")
    if transport == "eventbus":
        return run_scenario(spec, seed=seed)
    from ..bus.broker import BrokerCore, BusConfig
    from ..bus.client import BusClient, InProcLink

    def _run(directory: Path) -> ScenarioRunResult:
        config = BusConfig(n_partitions=2, fsync_every=8)
        with BrokerCore(Path(directory), config) as core:
            client = BusClient(InProcLink(core))
            return run_scenario(spec, seed=seed, bus=client)

    if log_dir is not None:
        return _run(Path(log_dir))
    with tempfile.TemporaryDirectory(prefix="repro-scenario-") as tmp:
        return _run(Path(tmp))


# ----------------------------------------------------------------------
def capture_scenario_trace(result: ScenarioRunResult) -> GoldenTrace:
    """Reduce a run into a content-hashed trace (PR-5 golden harness)."""
    stages: List[StageRecord] = []
    for rec in result.events:
        stages.append(StageRecord(
            stage=f"events:{rec.name}",
            arrays=(
                ArrayRecord.capture("times", rec.times),
                ArrayRecord.capture("true_indices", rec.true_indices),
                ArrayRecord.capture("predicted_indices",
                                    rec.predicted_indices),
                ArrayRecord.capture("qualities", rec.qualities),
            )))
    for cam in result.cameras:
        counters = np.asarray([cam.accepted_events, cam.rejected_events,
                               cam.n_snapshots], dtype=float)
        stages.append(StageRecord(
            stage=f"camera:{cam.name}",
            arrays=(
                ArrayRecord.capture("counters", counters),
                ArrayRecord.capture("snapshot_times", cam.snapshot_times),
            )))
    for sit in result.situations:
        counters = np.asarray([sit.n_states, sit.ignored_events,
                               sit.n_published], dtype=float)
        stages.append(StageRecord(
            stage=f"situation:{sit.name}",
            arrays=(
                ArrayRecord.capture("counters", counters),
                ArrayRecord.capture("confidences", sit.confidences),
            )))
    summary = np.asarray([result.n_windows, result.n_correct,
                          result.n_wrong], dtype=float)
    stages.append(StageRecord(
        stage="summary",
        arrays=(ArrayRecord.capture("summary", summary),)))
    return GoldenTrace(seed=result.seed, stages=tuple(stages))
