"""Failure-domain drills: prove convergence under injected failures.

A drill is an executable claim about the bus: *kill a partition
mid-stream, mangle frames on the wire, and the appliances still end in
exactly the state of a clean run* — because delivery is at-least-once
(acks + retry + partition revive) and consumers dedupe on
``(source, seq)``.  Two drills:

* :func:`run_inproc_fault_drill` — single process, deterministic, no
  wall clock: a scripted pen-event stream drives a whiteboard camera
  once over a plain :class:`~repro.appliances.bus.EventBus` (the clean
  baseline) and once over the broker with a
  :class:`~repro.bus.faults.FaultyChannel` dropping, duplicating and
  delaying frames plus a partition kill/revive in the middle.  The two
  runs' golden traces must be identical, and the replayed event log
  must reproduce them.
* :func:`run_network_drill` — a real TCP broker, publisher OS
  *processes*, a consumer holding its acks so the kill provably loses
  inflight frames; asserts zero loss after redelivery and that
  ``replay_log`` diverges nowhere.  This is the CI smoke.

Both return a :class:`DrillReport` whose counters show the faults
actually fired (a drill that never dropped anything proves nothing).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pathlib
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..appliances.bus import EventBus
from ..appliances.camera import CameraReport, WhiteboardCamera
from ..appliances.messages import ContextEvent
from ..core.filtering import QualityFilter
from ..exceptions import BusError, ConfigurationError
from ..sensors.accelerometer import AWAREPEN_CLASSES, WRITING
from ..verify.golden import diff_traces
from .broker import BrokerCore, BusConfig, partition_for
from .client import BusClient, InProcLink, SocketLink
from .faults import (FaultyChannel, FrameFault, FrameFaultSchedule,
                     ScheduledFrameFault)
from .replay import RunMeta, capture_bus_trace, replay_log
from .server import BrokerServer

PEN_TOPIC = "context.pen"


@dataclasses.dataclass(frozen=True)
class DrillReport:
    """Outcome and evidence of one failure-domain drill."""

    name: str
    n_events: int
    n_delivered: int
    n_redelivered: int
    dedupe_dropped: int
    lost_inflight: int
    fault_counters: Dict[str, int]
    converged: bool
    replay_passed: bool
    first_diverging_stage: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.converged and self.replay_passed

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["passed"] = self.passed
        return payload

    def to_text(self) -> str:
        lines = [
            f"drill {self.name}: {'PASS' if self.passed else 'FAIL'}",
            f"  events: {self.n_events} published, "
            f"{self.n_delivered} delivered, "
            f"{self.n_redelivered} redelivered, "
            f"{self.dedupe_dropped} duplicates deduped",
            f"  failures injected: {self.lost_inflight} inflight lost, "
            + ", ".join(f"{k}={v}" for k, v in
                        sorted(self.fault_counters.items())),
            f"  converged to clean state: {self.converged}",
            f"  log replay identical: {self.replay_passed}"
            + (f" (diverges at {self.first_diverging_stage})"
               if not self.replay_passed else ""),
        ]
        return "\n".join(lines)


class _Recorder:
    """A subscriber that just remembers what it was handed."""

    def __init__(self) -> None:
        self.events: List[ContextEvent] = []

    def __call__(self, event: ContextEvent) -> None:
        self.events.append(event)


def scripted_pen_events(seed: int, n_events: int,
                        source: str = "awarepen",
                        topic: str = PEN_TOPIC) -> List[ContextEvent]:
    """A deterministic pen-event stream for drills and the CLI.

    Alternates writing bursts with other contexts so the camera has
    sessions to photograph; qualities are seeded draws with occasional
    ε (``None``) events.
    """
    if n_events < 1:
        raise ConfigurationError(f"n_events must be >= 1, got {n_events}")
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n_events):
        # 4-long writing bursts separated by 3 other-context events.
        writing = (i % 7) < 4
        others = [c for c in AWAREPEN_CLASSES if c.index != WRITING.index]
        cls = WRITING if writing else others[
            int(rng.integers(0, len(others)))]
        quality = (None if rng.random() < 0.05
                   else float(np.round(rng.uniform(0.3, 1.0), 6)))
        events.append(ContextEvent.create(
            source=source, topic=topic, context=cls, quality=quality,
            time_s=round(i * 0.5, 3), seq=i + 1))
    return events


def _run_clean(events: List[ContextEvent],
               gate: Optional[QualityFilter]) -> Tuple[_Recorder,
                                                       CameraReport]:
    bus = EventBus()
    camera = WhiteboardCamera(bus, gate=gate)
    recorder = _Recorder()
    bus.subscribe(PEN_TOPIC, recorder, name="recorder")
    for event in events:
        bus.publish(event)
    camera.flush(events[-1].time_s)
    return recorder, CameraReport.of(camera)


def run_inproc_fault_drill(log_dir, seed: int = 7, n_events: int = 140,
                           gate: Optional[QualityFilter] = None,
                           config: Optional[BusConfig] = None,
                           max_rounds: int = 500) -> DrillReport:
    """Deterministic single-process drill; see the module docstring.

    Writes the faulted run's event log (and ``meta.json``) under
    *log_dir*, so the replay check exercises the real on-disk path.
    """
    config = config if config is not None else BusConfig(
        n_partitions=2, credits=8, redelivery_ticks=2, fsync_every=32)
    events = scripted_pen_events(seed, n_events)
    source = events[0].source
    clean_recorder, clean_camera = _run_clean(events, gate)

    schedule = FrameFaultSchedule((
        # Reordering throughout, duplication throughout, and a lossy
        # window in the middle third of the scenario.
        ScheduledFrameFault(FrameFault("delay", every=5)),
        ScheduledFrameFault(FrameFault("duplicate", every=6)),
        ScheduledFrameFault(FrameFault("drop", every=4),
                            start_s=events[len(events) // 3].time_s,
                            end_s=events[2 * len(events) // 3].time_s),
    ))
    channels: List[FaultyChannel] = []

    def wrap_send(send):
        channel = FaultyChannel(send, schedule)
        channels.append(channel)
        return channel

    core = BrokerCore(log_dir, config)
    client = BusClient(InProcLink(core, wrap_send=wrap_send),
                       from_start=True)
    camera = WhiteboardCamera(client, gate=gate)
    recorder = _Recorder()
    client.subscribe(PEN_TOPIC, recorder, name="recorder")

    target = partition_for(source, config.n_partitions)
    half = len(events) // 2
    for event in events[:half]:
        client.publish(event)
    # Hold acks, publish a burst that fills the credit window, then
    # kill the source's partition: those inflight frames are provably
    # lost and only the revive rewind can bring them back.
    client.hold_acks()
    for event in events[half:half + 2 * config.credits]:
        client.publish(event)
    lost = core.kill_partition(target)
    for event in events[half + 2 * config.credits:]:
        client.publish(event)  # logged but undeliverable: partition down
    core.revive_partition(target)
    client.release_acks()

    expected = {e.seq for e in events}
    rounds = 0
    while rounds < max_rounds:
        got = {e.seq for e in recorder.events}
        if got == expected and client.n_pending == 0:
            break
        core.tick()
        for channel in channels:
            channel.flush()
        rounds += 1
    converged = {e.seq for e in recorder.events} == expected
    camera.flush(events[-1].time_s)

    counters: Dict[str, int] = {}
    for channel in channels:
        for key, value in channel.counters().items():
            counters[key] = counters.get(key, 0) + value

    clean_trace = capture_bus_trace(seed, clean_recorder.events,
                                    camera=clean_camera)
    live_trace = capture_bus_trace(seed, recorder.events,
                                   camera=CameraReport.of(camera))
    state_diff = diff_traces(live_trace, clean_trace, rtol=0.0, atol=0.0)
    converged = converged and state_diff.passed

    meta = RunMeta(seed=seed,
                   gate_threshold=(None if gate is None
                                   else gate.threshold),
                   gate_epsilon_policy=(gate.epsilon_policy.value
                                        if gate is not None else "reject"),
                   camera_topic=PEN_TOPIC)
    meta.save(log_dir)
    core.close()
    replay_diff = diff_traces(replay_log(log_dir, meta=meta), clean_trace,
                              rtol=0.0, atol=0.0)

    return DrillReport(
        name="inproc-fault",
        n_events=len(events),
        n_delivered=core.n_delivered,
        n_redelivered=core.n_redelivered,
        dedupe_dropped=client.dedupe_dropped,
        lost_inflight=lost,
        fault_counters=counters,
        converged=converged,
        replay_passed=replay_diff.passed,
        first_diverging_stage=(None if replay_diff.passed
                               else replay_diff.first_diverging_stage),
    )


# ----------------------------------------------------------------------
# Network drill
# ----------------------------------------------------------------------
def _publish_stream(host: str, port: int, source: str, topic: str,
                    n_events: int, seed: int) -> None:
    """Publisher process body: stream one source's events over TCP."""
    link = SocketLink(host, port)
    try:
        for event in scripted_pen_events(seed, n_events, source=source,
                                         topic=topic):
            link.publish(event.to_wire())
    finally:
        link.close()


def _wait_for(predicate, timeout_s: float, what: str,
              poll_s: float = 0.02) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll_s)
    raise BusError(f"drill timed out after {timeout_s}s waiting for {what}")


def run_network_drill(log_dir, n_publishers: int = 2,
                      events_per_publisher: int = 250, seed: int = 7,
                      timeout_s: float = 60.0,
                      golden_out: Optional[pathlib.Path] = None
                      ) -> DrillReport:
    """Kill a partition under real processes; verify zero loss + replay.

    Starts a TCP broker over *log_dir*, fans out *n_publishers* OS
    processes each publishing its own source's stream, and runs one
    consumer that holds its acks so every delivered frame is unacked
    when partition 0 dies.  After revive and redelivery the consumer
    must hold every published event exactly once, and replaying the
    log must reproduce its trace bit-for-bit.
    """
    if n_publishers < 1:
        raise ConfigurationError(
            f"n_publishers must be >= 1, got {n_publishers}")
    total = n_publishers * events_per_publisher
    sources = [f"pen-{i}" for i in range(n_publishers)]
    config = BusConfig(n_partitions=2, credits=16, redelivery_ticks=2)

    server = BrokerServer(log_dir, config=config, tick_interval_s=0.02)
    host, port = server.start()
    consumer_link = SocketLink(host, port, timeout_s=timeout_s)
    client = BusClient(consumer_link, from_start=True)
    recorder = _Recorder()
    client.subscribe("context.*", recorder, name="drill-consumer")
    client.hold_acks()

    mp = multiprocessing.get_context("spawn")
    publishers = [
        mp.Process(target=_publish_stream,
                   args=(host, port, sources[i], PEN_TOPIC,
                         events_per_publisher, seed + i))
        for i in range(n_publishers)]
    try:
        for proc in publishers:
            proc.start()
        for proc in publishers:
            proc.join(timeout_s)
            if proc.is_alive():
                proc.terminate()
                raise BusError("publisher process did not finish in time")
            if proc.exitcode != 0:
                raise BusError(f"publisher exited with {proc.exitcode}")
        _wait_for(lambda: consumer_link.stats()["n_published"] >= total,
                  timeout_s, "all publishes to reach the broker")

        # The consumer is holding acks: every frame delivered so far is
        # inflight (and being re-sent by the retry timer).  Take the
        # first source's partition down mid-stream, then revive it.
        target = partition_for(sources[0], config.n_partitions)
        lost = consumer_link.kill_partition(target)
        client.release_acks()
        consumer_link.revive_partition(target)

        expected = {(s, seq) for s in sources
                    for seq in range(1, events_per_publisher + 1)}
        _wait_for(lambda: {(e.source, e.seq)
                           for e in recorder.events} == expected,
                  timeout_s, "redelivery to close every gap")
        converged = ({(e.source, e.seq) for e in recorder.events}
                     == expected and client.n_pending == 0)
        stats = consumer_link.stats()
    finally:
        for proc in publishers:
            if proc.is_alive():
                proc.terminate()
        try:
            consumer_link.close()
        finally:
            server.stop()

    trace = capture_bus_trace(seed, recorder.events)
    meta = RunMeta(seed=seed)
    meta.save(log_dir)
    if golden_out is not None:
        trace.save(pathlib.Path(golden_out))
    replay_diff = diff_traces(replay_log(log_dir, meta=meta), trace,
                              rtol=0.0, atol=0.0)

    return DrillReport(
        name="network-partition-kill",
        n_events=total,
        n_delivered=int(stats["n_delivered"]),
        n_redelivered=int(stats["n_redelivered"]),
        dedupe_dropped=client.dedupe_dropped,
        lost_inflight=lost,
        fault_counters={f"killed_partition_{target}": 1},
        converged=converged,
        replay_passed=replay_diff.passed,
        first_diverging_stage=(None if replay_diff.passed
                               else replay_diff.first_diverging_stage),
    )
