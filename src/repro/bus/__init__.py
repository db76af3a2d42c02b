"""repro.bus — distributed context-event bus with persistent replay log.

The AwareOffice's in-process :class:`~repro.appliances.bus.EventBus`
generalized across process boundaries, behind the same
``subscribe`` / ``publish`` surface (paper section 1: "the detected
situation information is then distributed to other appliances in the
AwareOffice environment").  Pieces:

* :mod:`~repro.bus.log` — append-only JSONL event log: global offsets,
  segment rotation, fsync group-commit, torn-tail crash recovery;
* :mod:`~repro.bus.broker` — partitioned broker core: credit-window
  backpressure, cumulative acks, tick-driven at-least-once redelivery,
  partition kill/revive for drills;
* :mod:`~repro.bus.server` — the broker's frame protocol on the JSONL
  server core it shares with ``repro serve``
  (:func:`~repro.serving.framing.serve_jsonl`), and a thread-hosted
  :class:`BrokerServer`;
* :mod:`~repro.bus.client` — :class:`BusClient`, the drop-in
  ``EventBus`` adapter doing consumer-side dedupe + reorder on
  ``(source, seq)``, over an in-process or TCP link;
* :mod:`~repro.bus.replay` — offset-addressed log replay into the
  golden-trace harness (bit-identical or it fails);
* :mod:`~repro.bus.faults` / :mod:`~repro.bus.drill` — frame-level
  fault injection and the failure-domain drills that prove convergence.

``python -m repro bus --help`` is the operational surface.
"""

from .broker import BrokerCore, BusConfig, partition_for
from .client import BusClient, InProcLink, SocketLink
from .drill import (DrillReport, run_inproc_fault_drill,
                    run_network_drill, scripted_pen_events)
from .faults import (FaultyChannel, FrameFault, FrameFaultSchedule,
                     ScheduledFrameFault)
from .log import EventLog
from .replay import (RunMeta, capture_bus_trace, check_replay,
                     dedupe_events, read_log_events, replay_log)
from .server import BrokerServer, serve_bus

__all__ = [
    "EventLog",
    "BrokerCore", "BusConfig", "partition_for",
    "BusClient", "InProcLink", "SocketLink",
    "BrokerServer", "serve_bus",
    "RunMeta", "capture_bus_trace", "check_replay", "dedupe_events",
    "read_log_events", "replay_log",
    "FaultyChannel", "FrameFault", "FrameFaultSchedule",
    "ScheduledFrameFault",
    "DrillReport", "run_inproc_fault_drill", "run_network_drill",
    "scripted_pen_events",
]
