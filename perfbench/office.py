"""The two appliance-path workloads: ``office-eventbus`` and ``office-broker``.

Both run one AwareOffice spec generated from the workload seed through
the public scenario runner (:func:`repro.scenarios.runner.run_scenario`)
-- on the in-process ``EventBus`` or on the ``repro.bus`` broker with a
group-commit fsync'd event log that is then read back and deduped.  A
run repeats the whole spec until its time is up; each repetition is one
throughput sample, and a benchmark-owned subscriber stamps every event
delivery, so the gaps between stamps give the per-window decision time.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.appliances.awarepen import AwarePen
from repro.appliances.bus import EventBus
from repro.appliances.camera import WhiteboardCamera
from repro.appliances.display import OfficeDisplay
from repro.bus.broker import BrokerCore, BusConfig
from repro.bus.client import BusClient, InProcLink
from repro.bus import replay as bus_replay
from repro.bus.log import EventLog
from repro.classifiers.base import ContextClassifier
from repro.core.quality import QualityMeasure
from repro.scenarios import runner
from repro.experiment import run_awarepen_experiment
from repro.scenarios.models import model_for, prime_pen_model
from repro.scenarios.spec import ClassifierSpec, ScenarioSpec
from repro.sensors.node import SensorNode
from repro.types import QualifiedClassification

from . import common
from .layers import zero_layer_metrics
from .spans import Recorder, additivity, layer_table, render_table, \
    self_times

#: Stated input size: pens in the office and seconds of activity each.
N_PENS = 3
PEN_SECONDS = 180.0
SEGMENT_SECONDS = 6.0
ACTIVITIES = ("writing", "lying", "playing")
STYLES = ("default", "light", "heavy", "erratic")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Every seed runs the paper's model (seed 7); the workload seed drives
#: only the inputs -- activity scripts and sensor noise.
MODEL_SEED = 7
#: Broker configuration, as ``run_scenario_on(transport="broker")`` uses.
BROKER_CONFIG = BusConfig(n_partitions=2, fsync_every=8)
#: Largest accepted gap between summed span self time and traced wall.
ADDITIVITY_TOLERANCE = 0.02

PINNED = Path(__file__).with_name("pinned_digests.json")


# ----------------------------------------------------------------------
def make_spec(seed: int) -> ScenarioSpec:
    """A multi-pen AwareOffice spec whose activity scripts come from *seed*.

    Every pen runs ``PEN_SECONDS`` of activity in segments of
    ``SEGMENT_SECONDS``: blocks of the three activities, each block in
    a seeded order, each segment in a seeded user style.  Each activity
    gets the same time on every seed, so seeds change the inputs but
    not the mix of work.  Each pen feeds a gated camera and one display
    listens to all of them.
    """
    rng = np.random.default_rng([seed, 1207])
    n_blocks = int(PEN_SECONDS // (SEGMENT_SECONDS * len(ACTIVITIES)))
    sensors, appliances = [], []
    for p in range(N_PENS):
        segments = [
            {"activity": ACTIVITIES[int(a)], "duration_s": SEGMENT_SECONDS,
             "style": STYLES[int(rng.integers(len(STYLES)))]}
            for _ in range(n_blocks)
            for a in rng.permutation(len(ACTIVITIES))]
        sensors.append({"name": f"pen-{p}-accel", "family": "pen",
                        "segments": segments})
        appliances.append({"name": f"pen-{p}", "kind": "pen",
                           "sensor": f"pen-{p}-accel"})
    for p in range(N_PENS):
        appliances.append({"name": f"camera-{p}", "kind": "camera",
                           "inputs": [f"pen-{p}"]})
    appliances.append({"name": "display", "kind": "display"})
    return ScenarioSpec.from_dict({
        "name": f"bench-office-{seed}",
        "description": "generated multi-pen AwareOffice",
        "sensors": sensors, "appliances": appliances}).validate()


def build_model(seed: int) -> None:
    """Train the paper's pen model and register it for runs at *seed*."""
    result = run_awarepen_experiment(seed=MODEL_SEED)
    prime_pen_model(result.augmented, result.threshold, seed=seed)


def digest(result: runner.ScenarioRunResult) -> str:
    """Content digest of a run's golden trace (array hashes only)."""
    trace = runner.capture_scenario_trace(result)
    h = hashlib.sha256()
    for stage in trace.stages:
        for array in stage.arrays:
            h.update(f"{stage.stage}/{array.name}/{array.sha256};".encode())
    return h.hexdigest()[:32]


def pinned_digest(seed: int) -> Optional[str]:
    if not PINNED.exists():
        return None
    return json.loads(PINNED.read_text())["office"].get(str(seed))


# ----------------------------------------------------------------------
class Reference:
    """Per-window outputs of the reference (first, EventBus) run."""

    def __init__(self, result: runner.ScenarioRunResult) -> None:
        self.digest = digest(result)
        self.events = {e.name: e for e in result.events}
        self.n_windows = result.n_windows

    def failed_windows(self, result: runner.ScenarioRunResult) -> int:
        """Windows whose class or q differs from the reference, or whose
        q lies outside [0, 1] u {eps}; a run-level mismatch (cameras,
        summary) fails every window of the run."""
        failed = 0
        for rec in result.events:
            ref = self.events.get(rec.name)
            q = rec.qualities
            in_range = np.isnan(q) | ((q >= 0.0) & (q <= 1.0))
            if ref is None or ref.qualities.shape != q.shape:
                failed += int(q.size)
                continue
            same = ((rec.predicted_indices == ref.predicted_indices)
                    & (rec.times == ref.times)
                    & ((q == ref.qualities)
                       | (np.isnan(q) & np.isnan(ref.qualities))))
            failed += int(np.sum(~(same & in_range)))
        if failed == 0 and (result.n_windows != self.n_windows
                            or digest(result) != self.digest):
            failed = result.n_windows
        return failed


def replay_mismatches(result: runner.ScenarioRunResult,
                      events: List[Any]) -> int:
    """Windows whose deduped log event differs from the live one."""
    per_source: Dict[str, List[Any]] = {}
    for event in events:
        per_source.setdefault(event.source, []).append(event)
    failed = 0
    for rec in result.events:
        stream = sorted(per_source.get(rec.name, []), key=lambda e: e.seq)
        if len(stream) != rec.times.size:
            failed += max(rec.times.size, len(stream))
            continue
        q = np.array([np.nan if e.quality is None else e.quality
                      for e in stream], dtype=float)
        same = ((np.array([e.time_s for e in stream]) == rec.times)
                & (np.array([e.context.index for e in stream])
                   == rec.predicted_indices)
                & ((q == rec.qualities)
                   | (np.isnan(q) & np.isnan(rec.qualities))))
        failed += int(np.sum(~same))
    return failed


# ----------------------------------------------------------------------
class Office:
    """One office workload: set-up, repetitions and correctness gates."""

    def __init__(self, transport: str, seed: int) -> None:
        self.transport = transport
        self.seed = seed
        self.spec: Optional[ScenarioSpec] = None
        self.reference: Optional[Reference] = None
        self.setup_samples: List[float] = []
        self.probes: List[float] = []
        self.model_build_samples: List[float] = []
        self.run_root: Optional[Path] = None
        self.attempted = 0
        self.failed = 0
        self.gate_notes: List[str] = []
        self.notes: List[str] = []
        self._n_logs = 0

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Model build, spec generation and log directory creation,
        timed ``SETUP_REPEATS`` times."""
        common.RUN_DIR.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPEATS):
            self.probes.append(common.probe_s())
            t0 = time.perf_counter()
            build_model(self.seed)
            t1 = time.perf_counter()
            spec = make_spec(self.seed)
            if self.transport == "broker":
                if self.run_root is not None:
                    shutil.rmtree(self.run_root, ignore_errors=True)
                self.run_root = Path(tempfile.mkdtemp(
                    prefix="office-", dir=common.RUN_DIR))
            t2 = time.perf_counter()
            self.setup_samples.append(t2 - t0)
            self.model_build_samples.append(t1 - t0)
        self.spec = spec
        # Reference run on the EventBus (also the warm-up).
        first = runner.run_scenario(self.spec, seed=self.seed)
        self.reference = Reference(first)
        pinned = pinned_digest(self.seed)
        if pinned is None:
            self.notes.append(f"seed {self.seed}: no pinned digest; "
                              "the digest gate is skipped")
        elif pinned != self.reference.digest:
            self.gate_notes.append(
                f"seed {self.seed}: digest {self.reference.digest} != "
                f"pinned {pinned}")
            self.attempted += first.n_windows
            self.failed += first.n_windows

    def close(self) -> None:
        if self.run_root is not None:
            shutil.rmtree(self.run_root, ignore_errors=True)

    # -- one repetition ------------------------------------------------
    def repetition(self) -> Dict[str, Any]:
        """Run the spec once; returns timings, stamps and the result."""
        self.probes.append(common.probe_s())
        stamps: List[float] = []

        def clock(_event: Any) -> None:
            stamps.append(time.perf_counter())

        out: Dict[str, Any] = {}
        if self.transport == "eventbus":
            t0 = time.perf_counter()
            bus = EventBus()
            bus.subscribe("context.*", clock, name="perfbench-clock")
            result = runner.run_scenario(self.spec, seed=self.seed, bus=bus)
            out["run_s"] = time.perf_counter() - t0
        else:
            self._n_logs += 1
            log_dir = self.run_root / f"log-{self._n_logs}"
            t0 = time.perf_counter()
            with BrokerCore(log_dir, BROKER_CONFIG) as core:
                client = BusClient(InProcLink(core))
                client.subscribe("context.*", clock, name="perfbench-clock")
                result = runner.run_scenario(self.spec, seed=self.seed,
                                             bus=client)
            out["run_s"] = time.perf_counter() - t0
            out["redeliveries"] = core.n_redelivered
            out["dedupe_dropped"] = client.dedupe_dropped
            out["fsyncs"] = core.log.n_fsyncs
            t1 = time.perf_counter()
            events = bus_replay.dedupe_events(
                bus_replay.read_log_events(log_dir))
            out["replay_s"] = time.perf_counter() - t1
            out["replay_events"] = len(events)
            out["replay_failed"] = replay_mismatches(result, events)
            shutil.rmtree(log_dir, ignore_errors=True)
        out["result"] = result
        out["gaps"] = np.diff(np.asarray(stamps))
        failed = self.reference.failed_windows(result)
        failed = max(failed, out.get("replay_failed", 0))
        self.attempted += result.n_windows
        self.failed += failed
        out["failed"] = failed
        return out


# ----------------------------------------------------------------------
def plant_wrong_q(call_number: int = 5) -> None:
    """Negative control: the *call_number*-th ``qualify`` returns a wrong q."""
    original = QualityMeasure.qualify
    calls = [0]

    def qualify(self, classification):
        out = original(self, classification)
        calls[0] += 1
        if calls[0] != call_number:
            return out
        q = out.quality
        wrong = 0.5 if q is None or q == 0.0 else q / 2.0
        return QualifiedClassification(classification=out.classification,
                                       quality=wrong)

    QualityMeasure.qualify = qualify


def run_untraced(transport: str, seed: int, seconds: float
                 ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """Untraced run: the end-to-end metrics of one office workload."""
    office = Office(transport, seed)
    office.setup()
    try:
        deadline = time.perf_counter() + seconds
        reps: List[Dict[str, Any]] = []
        while time.perf_counter() < deadline or len(reps) < 3:
            reps.append(office.repetition())
    finally:
        office.close()
    n_windows = reps[0]["result"].n_windows
    rates = [r["result"].n_windows / r["run_s"] for r in reps]
    p50, p99 = common.chunked_percentiles(
        [r["gaps"] * 1e3 for r in reps])
    n_gaps = int(sum(r["gaps"].size for r in reps))
    raw = {"setup_s": common.median(office.setup_samples),
           "windows_per_s": common.median(rates),
           "latency_p50_ms": p50, "latency_p99_ms": p99}
    # Every office metric is CPU-bound: report it at reference host speed.
    slow = common.slowdown(office.probes)
    metrics = {k: v * slow if k == "windows_per_s" else v / slow
               for k, v in raw.items()}
    metrics["peak_rss_mb"] = common.self_rss_peak_mb()
    report = {
        "raw": raw,
        "host_slowdown": slow,
        "probes": len(office.probes),
        "repetitions": len(reps),
        "windows_per_repetition": n_windows,
        "samples": {"setup_s": len(office.setup_samples),
                    "windows_per_s": len(reps),
                    "latency_p50_ms": n_gaps, "latency_p99_ms": n_gaps,
                    "peak_rss_mb": 1},
        "notes": office.notes,
        "gates": office.gate_notes,
    }
    if transport == "broker":
        replay = [r["replay_events"] / r["replay_s"] for r in reps]
        report["replay_events_per_s"] = common.median(replay)
        report["replay_samples"] = len(replay)
        report["fsyncs_per_repetition"] = reps[0]["fsyncs"]
    return metrics, office.attempted, office.failed, report


# ----------------------------------------------------------------------
def install_wrappers(rec: Recorder, office: Office) -> None:
    """Spans around every layer's public entry points on the office path."""
    clf_type = type(model_for("pen", ClassifierSpec(),
                              office.seed).augmented.classifier)
    counter = [0]

    def window_id(_args: tuple, _kwargs: dict) -> int:
        counter[0] += 1
        return counter[0]

    def rows(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, Any]:
        return {"rows": int(np.atleast_2d(args[1]).shape[0])}

    def disk_wait(span: list, *_: Any) -> None:
        span[5]["wait_s"] = span[2] - span[1]  # flush + fsync

    def windows(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"windows": len(result) if result is not None else 0}

    def epsilon(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"epsilon": result is not None and result.quality is None}

    rec.wrap(runner, "run_scenario", "scenarios.run_scenario")
    rec.wrap(SensorNode, "collect", "sensors.collect", attrs=windows)
    rec.wrap(AwarePen, "process_window", "appliances.process_window",
             new_id=window_id)
    rec.wrap(ContextClassifier, "classify", "classifiers.classify")
    rec.wrap(clf_type, "predict_indices", "classifiers.predict_indices",
             attrs=rows)
    rec.wrap(QualityMeasure, "qualify", "core.quality.qualify",
             attrs=epsilon)
    rec.wrap(WhiteboardCamera, "on_event", "appliances.camera_on_event")
    rec.wrap(OfficeDisplay, "on_context", "appliances.display_on_context")
    if office.transport == "eventbus":
        rec.wrap(EventBus, "publish", "appliances.publish")
    else:
        rec.wrap(BusClient, "publish", "appliances.publish")
        rec.wrap(BrokerCore, "publish", "bus.broker_publish")
        rec.wrap(BrokerCore, "__init__", "bus.broker_open")
        rec.wrap(BrokerCore, "close", "bus.broker_close")
        rec.wrap(EventLog, "append", "bus.log_append")
        rec.wrap(EventLog, "sync", "bus.log_sync", after=disk_wait)
        rec.wrap(bus_replay, "read_log_events", "bus.read_log_events")
        rec.wrap(bus_replay, "dedupe_events", "bus.dedupe_events")


def run_traced(transport: str, seed: int, seconds: float
               ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """Traced run: alternate untraced and traced repetitions; per-layer
    numbers come from the traced ones, overhead from the pair."""
    office = Office(transport, seed)
    office.setup()
    rec = Recorder()
    plain_s: List[float] = []
    traced_s: List[float] = []
    traced: List[Dict[str, Any]] = []
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced) < 2:
            # Alternate which side of a pair runs first.
            for with_spans in ((False, True) if len(traced) % 2 == 0
                               else (True, False)):
                if not with_spans:
                    rep = office.repetition()
                    plain_s.append(rep["run_s"] + rep.get("replay_s", 0.0))
                    continue
                install_wrappers(rec, office)
                try:
                    rep = office.repetition()
                finally:
                    rec.restore()
                traced_s.append(rep["run_s"] + rep.get("replay_s", 0.0))
                traced.append(rep)
    finally:
        office.close()
    # The traced wall is the time the benchmark measured around its
    # calls into the program; spans must account for all but a sliver.
    wall_total = sum(traced_s)
    metrics, table, check = office_layers(rec, traced, office, wall_total)
    overhead = common.median(traced_s) / common.median(plain_s) - 1.0
    metrics["trace.overhead_share"] = overhead
    metrics["trace.additivity_gap_share"] = check["gap_share"]
    report = {
        "traced_repetitions": len(traced),
        "untraced_repetitions": len(plain_s),
        "table": table,
        "additivity": check,
        "additivity_tolerance": ADDITIVITY_TOLERANCE,
        "overhead_share": overhead,
        "notes": office.notes,
        "gates": office.gate_notes,
    }
    if check["gap_share"] > ADDITIVITY_TOLERANCE:
        report["gates"].append(
            f"span self times add up to {check['self_sum_s']:.4f} s, "
            f"traced wall {check['wall_s']:.4f} s: gap "
            f"{check['gap_share']:.3%} > {ADDITIVITY_TOLERANCE:.0%}")
        office.failed += 1
    rec.write(common.RUN_DIR / f"spans-office-{transport}-{seed}.json",
              meta={"workload": f"office-{transport}", "seed": seed})
    return metrics, office.attempted, office.failed, report


def office_layers(rec: Recorder, traced: List[Dict[str, Any]],
                  office: Office, wall_total: float
                  ) -> Tuple[Dict[str, float], str, Dict[str, float]]:
    """Per-layer metrics, the rendered table and the additivity check."""
    spans = rec.spans
    selfs = self_times(spans)
    n_reps = len(traced)
    by: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by.setdefault(span[0], []).append(i)

    def total(name: str, own: bool = False) -> float:
        return sum(selfs[i] if own else spans[i][2] - spans[i][1]
                   for i in by.get(name, []))

    def per_call(name: str, own: bool = False) -> float:
        n = len(by.get(name, []))
        return total(name, own) / n * 1e6 if n else 0.0

    n_windows = sum(spans[i][5].get("windows", 0)
                    for i in by.get("sensors.collect", []))
    n_predict = len(by.get("classifiers.predict_indices", []))
    rows = sum(spans[i][5].get("rows", 0)
               for i in by.get("classifiers.predict_indices", []))
    n_qualify = len(by.get("core.quality.qualify", []))
    n_eps = sum(1 for i in by.get("core.quality.qualify", [])
                if spans[i][5].get("epsilon"))
    accepted = sum(c.accepted_events for r in traced
                   for c in r["result"].cameras)
    rejected = sum(c.rejected_events for r in traced
                   for c in r["result"].cameras)
    appends = len(by.get("bus.log_append", []))
    fsyncs = sum(r.get("fsyncs", 0) for r in traced)
    replay_events = sum(r.get("replay_events", 0) for r in traced)
    metrics = zero_layer_metrics()
    metrics.update({
        "sensors.windows": n_windows / n_reps,
        "sensors.collect_us_per_window":
            total("sensors.collect", True) / n_windows * 1e6
            if n_windows else 0.0,
        "classifiers.classify_calls":
            len(by.get("classifiers.classify", [])) / n_reps,
        "classifiers.classify_us_per_call": per_call("classifiers.classify"),
        "classifiers.predict_rows_per_call":
            rows / n_predict if n_predict else 0.0,
        "core.quality.qualify_us_per_call": per_call("core.quality.qualify"),
        "core.quality.epsilon_share": n_eps / n_qualify if n_qualify else 0.0,
        "appliances.process_window_self_us":
            per_call("appliances.process_window", True),
        "appliances.publish_us": per_call("appliances.publish"),
        "appliances.camera_accept_share":
            accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "bus.broker_publish_us": per_call("bus.broker_publish"),
        "bus.log_append_us": per_call("bus.log_append"),
        "bus.fsyncs": fsyncs / n_reps,
        "bus.events_per_fsync": appends / fsyncs if fsyncs else 0.0,
        "bus.redeliveries": sum(r.get("redeliveries", 0)
                                for r in traced) / n_reps,
        "bus.dedupe_dropped": sum(r.get("dedupe_dropped", 0)
                                  for r in traced) / n_reps,
        "bus.replay_read_us_per_event":
            total("bus.read_log_events") / replay_events * 1e6
            if replay_events else 0.0,
        "scenarios.run_self_s": total("scenarios.run_scenario", True)
        / n_reps,
        "scenarios.model_build_s": common.median(office.model_build_samples),
    })
    extra = {
        "appliances.camera_on_event": {
            "failed_or_retried": f"{rejected} rejected",
            "useful_over_attempted": metrics["appliances.camera_accept_share"]},
        "core.quality.qualify": {
            "failed_or_retried": f"{n_eps} eps",
            "useful_over_attempted":
                1.0 - metrics["core.quality.epsilon_share"]},
        "bus.broker_publish": {
            "failed_or_retried":
                f"{metrics['bus.redeliveries'] * n_reps:.0f} redelivered"},
        "bus.dedupe_events": {
            "failed_or_retried":
                f"{metrics['bus.dedupe_dropped'] * n_reps:.0f} dropped"},
    }
    table_rows = layer_table(spans, {k: v for k, v in extra.items()
                                     if k in by})
    check = additivity(spans, wall_total)
    return metrics, render_table(table_rows, wall_total), check

