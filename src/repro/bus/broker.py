"""Partitioned broker core: routing, credit windows, acks, redelivery.

The transport-agnostic heart of :mod:`repro.bus`.  The broker owns

* the **durable log** (:class:`~repro.bus.log.EventLog`) — every accepted
  publish is appended before any delivery;
* **topic partitions** — events hash by partition key (the publishing
  source by default) onto ``n_partitions`` ordered sub-streams, so one
  topic can be consumed, killed and revived a partition at a time;
* **per-subscriber credit windows** — at most ``credits`` unacked frames
  per (subscription, topic, partition); a slow or dead consumer stalls
  its own window, never the broker or its peers (bounded queues);
* **at-least-once delivery** — frames stay inflight until cumulatively
  acked; :meth:`tick` re-sends overdue ones, and reviving a killed
  partition rewinds each cursor to the acked watermark, so everything
  unacked is delivered again.  Consumers dedupe on ``(source, seq)``
  (:class:`~repro.bus.client.BusClient`).
* **one validation per event** — :meth:`publish` parses the wire form
  once and keeps it as a :class:`~repro.appliances.messages.CheckedWire`,
  which the log line and every delivery frame reuse; in-process
  consumers take the carried event instead of parsing the frame again.

The core is synchronous and lock-protected; :mod:`repro.bus.server`
wraps it in asyncio TCP, and the in-process link in
:mod:`repro.bus.client` calls it directly for tests and examples.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from .. import observability as obs
from ..appliances.bus import topic_matches
from ..appliances.messages import CheckedWire, ContextEvent
from ..exceptions import BusError, ConfigurationError
from .log import EventLog

#: A delivery callback: receives one JSON-safe ``{"bus": "ev", ...}``
#: frame whose ``"event"`` is a :class:`CheckedWire`; raising marks the
#: subscription dead (disconnected consumer).
SendFn = Callable[[Dict[str, object]], None]

#: (topic, partition) — the unit of ordering, kill/revive and cursors.
PartitionKey = Tuple[str, int]


@dataclasses.dataclass(frozen=True)
class BusConfig:
    """Tunables of the broker core.

    Parameters
    ----------
    n_partitions:
        Partitions per topic; the partition key (publishing source by
        default) hashes onto ``range(n_partitions)``.
    credits:
        Credit window: max unacked inflight frames per
        (subscription, topic, partition).
    redelivery_ticks:
        An inflight frame older than this many :meth:`BrokerCore.tick`
        calls is re-sent (at-least-once retry timer, in ticks so tests
        stay clock-free).
    segment_records / fsync_every:
        Passed through to :class:`~repro.bus.log.EventLog`.
    """

    n_partitions: int = 2
    credits: int = 32
    redelivery_ticks: int = 2
    segment_records: int = 4096
    fsync_every: int = 64

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ConfigurationError(
                f"n_partitions must be >= 1, got {self.n_partitions}")
        if self.credits < 1:
            raise ConfigurationError(
                f"credits must be >= 1, got {self.credits}")
        if self.redelivery_ticks < 1:
            raise ConfigurationError(
                f"redelivery_ticks must be >= 1, got {self.redelivery_ticks}")


@functools.lru_cache(maxsize=1024)
def partition_for(key: str, n_partitions: int) -> int:
    """Stable partition assignment for a partition *key*.

    blake2b rather than :func:`hash` so the mapping is identical across
    processes and interpreter runs (``PYTHONHASHSEED`` does not apply).
    Memoized: a deployment has a handful of sources, and each publish
    would otherwise hash its source again.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_partitions


class _SubPartition:
    """Per-(subscription, partition-key) delivery state."""

    __slots__ = ("cursor", "acked", "inflight", "max_sent")

    def __init__(self, cursor: int) -> None:
        self.cursor = cursor        # next record index to send
        self.acked = cursor - 1     # highest cumulatively-acked index
        self.inflight: Dict[int, int] = {}  # index -> age in ticks
        self.max_sent = cursor - 1  # highest index ever sent


class _Subscription:
    __slots__ = ("sid", "pattern", "name", "send", "from_start",
                 "states", "alive")

    def __init__(self, sid: int, pattern: str, name: str, send: SendFn,
                 from_start: bool) -> None:
        self.sid = sid
        self.pattern = pattern
        self.name = name
        self.send = send
        self.from_start = from_start
        self.states: Dict[PartitionKey, _SubPartition] = {}
        self.alive = True


class BrokerCore:
    """Partitioned at-least-once pub/sub core over a durable log.

    Thread-safe; all public methods take the internal lock.  Delivery
    happens inline inside :meth:`publish` / :meth:`ack` / :meth:`tick`
    via each subscription's ``send`` callable (synchronous handoff — the
    asyncio server's send just enqueues on the connection writer).
    """

    def __init__(self, log_dir, config: Optional[BusConfig] = None) -> None:
        self.config = config if config is not None else BusConfig()
        self.log = EventLog(log_dir,
                            segment_records=self.config.segment_records,
                            fsync_every=self.config.fsync_every)
        self._lock = threading.RLock()
        self._records: Dict[PartitionKey, List[Tuple[int, CheckedWire]]]
        self._records = {}
        self._subs: Dict[int, _Subscription] = {}
        self._next_sid = 1
        self._killed: Set[int] = set()
        self.n_published = 0
        self.n_delivered = 0
        self.n_redelivered = 0
        self.n_acked = 0
        self.n_lost_inflight = 0
        self.n_send_errors = 0

    # -- subscriptions -------------------------------------------------
    def subscribe(self, pattern: str, send: SendFn, name: str = "anonymous",
                  from_start: bool = False) -> Tuple[int, Dict[str, int]]:
        """Register a consumer; returns ``(sid, starts)``.

        ``starts`` maps ``"topic/partition"`` to the index delivery will
        begin at for partitions that already exist — the consumer's ack
        baseline (partitions born later always start at 0).
        ``from_start=True`` replays every logged record of matching
        partitions from index 0 (offset-addressed catch-up); otherwise
        delivery begins at the current tail.
        """
        if not pattern:
            raise ConfigurationError("pattern must be non-empty")
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            sub = _Subscription(sid, pattern, name, send, from_start)
            for pkey, records in self._records.items():
                if topic_matches(pattern, pkey[0]):
                    start = 0 if from_start else len(records)
                    sub.states[pkey] = _SubPartition(start)
            starts = {f"{pkey[0]}/{pkey[1]}": state.cursor
                      for pkey, state in sub.states.items()}
            self._subs[sid] = sub
            if from_start:
                for pkey in sorted(sub.states):
                    self._pump(sub, pkey)
            return sid, starts

    def unsubscribe(self, sid: int) -> bool:
        """Drop a subscription (e.g. consumer disconnected)."""
        with self._lock:
            sub = self._subs.pop(sid, None)
            if sub is not None:
                sub.alive = False
            return sub is not None

    # -- publishing ----------------------------------------------------
    def publish(self, doc: Dict[str, object],
                key: Optional[str] = None) -> Tuple[int, int]:
        """Validate, log and route one event wire form.

        Returns ``(partition, offset)``.  The partition key defaults to
        the event's source, so each publisher's events form one ordered
        sub-stream.  Malformed frames raise :class:`BusError` and are
        **not** logged.
        """
        try:
            event = ContextEvent.from_wire(doc)
        except ConfigurationError as exc:
            raise BusError(f"rejected publish: {exc}") from exc
        wire = CheckedWire(event)  # canonical form into the log and frames
        with self._lock:
            partition = partition_for(key if key is not None else event.source,
                                      self.config.n_partitions)
            pkey = (event.topic, partition)
            offset = self.log.append(
                {"topic": event.topic, "partition": partition, "event": wire})
            records = self._records.get(pkey)
            if records is None:
                records = self._records[pkey] = []
                # A new partition key: late-bind it into every matching
                # subscription, starting at 0 (== current tail here).
                for sub in self._subs.values():
                    if topic_matches(sub.pattern, event.topic):
                        sub.states.setdefault(pkey, _SubPartition(0))
            records.append((offset, wire))
            self.n_published += 1
            obs.inc("bus.published_total")
            if partition not in self._killed:
                for sub in list(self._subs.values()):
                    if pkey in sub.states:
                        self._pump(sub, pkey)
            self._update_gauges()
            return partition, offset

    # -- delivery ------------------------------------------------------
    def _frame(self, sub: _Subscription, pkey: PartitionKey, index: int,
               offset: int, wire: CheckedWire,
               redelivery: bool) -> Dict[str, object]:
        return {"bus": "ev", "sid": sub.sid, "topic": pkey[0],
                "partition": pkey[1], "index": index, "offset": offset,
                "event": wire, "redelivery": redelivery}

    def _deliver(self, sub: _Subscription, frame: Dict[str, object],
                 redelivery: bool) -> bool:
        try:
            sub.send(frame)
        except Exception:  # noqa: BLE001 - a dead consumer must not wedge us
            self.n_send_errors += 1
            sub.alive = False
            self._subs.pop(sub.sid, None)
            return False
        if redelivery:
            self.n_redelivered += 1
            obs.inc("bus.redelivered_total")
        else:
            self.n_delivered += 1
            obs.inc("bus.delivered_total")
        return True

    def _pump(self, sub: _Subscription, pkey: PartitionKey) -> None:
        """Send new records while the credit window has room."""
        if not sub.alive or pkey[1] in self._killed:
            return
        records = self._records.get(pkey, [])
        state = sub.states[pkey]
        while (sub.alive and state.cursor < len(records)
               and len(state.inflight) < self.config.credits):
            index = state.cursor
            offset, wire = records[index]
            redelivery = index <= state.max_sent
            state.cursor += 1
            state.inflight[index] = 0
            state.max_sent = max(state.max_sent, index)
            frame = self._frame(sub, pkey, index, offset, wire, redelivery)
            # send() may re-entrantly ack (in-process link), shrinking
            # inflight under us — state is updated before the call.
            if not self._deliver(sub, frame, redelivery):
                return

    def ack(self, sid: int, topic: str, partition: int, index: int) -> None:
        """Cumulative ack: indices ``<= index`` of that partition are done."""
        with self._lock:
            sub = self._subs.get(sid)
            if sub is None:
                return
            state = sub.states.get((topic, partition))
            if state is None:
                raise BusError(
                    f"ack for unknown partition ({topic!r}, {partition})")
            for idx in [i for i in state.inflight if i <= index]:
                del state.inflight[idx]
            if index > state.acked:
                self.n_acked += index - state.acked
                obs.inc("bus.acked_total", index - state.acked)
                state.acked = index
            self._pump(sub, (topic, partition))
            self._update_gauges()

    def tick(self) -> int:
        """Advance retry timers; re-send overdue inflight frames.

        Returns the number of frames re-sent this tick.
        """
        resent = 0
        with self._lock:
            for sub in list(self._subs.values()):
                for pkey in sorted(sub.states):
                    if pkey[1] in self._killed:
                        continue
                    state = sub.states[pkey]
                    records = self._records.get(pkey, [])
                    for index in sorted(state.inflight):
                        if not sub.alive:
                            break
                        if index not in state.inflight:
                            continue  # acked re-entrantly by a resend
                        state.inflight[index] += 1
                        if state.inflight[index] < self.config.redelivery_ticks:
                            continue
                        state.inflight[index] = 0
                        offset, wire = records[index]
                        frame = self._frame(sub, pkey, index, offset, wire,
                                            redelivery=True)
                        if self._deliver(sub, frame, redelivery=True):
                            resent += 1
                    if sub.alive:
                        self._pump(sub, pkey)
            self._update_gauges()
        return resent

    # -- failure-domain drills ----------------------------------------
    def kill_partition(self, partition: int) -> int:
        """Kill one partition's delivery plane (drill).

        Inflight frames of that partition are dropped (lost on the
        wire) and no further delivery happens until
        :meth:`revive_partition`.  Publishes still append to the log —
        durability is per-record, the outage is delivery-only.
        Returns the number of inflight frames lost.
        """
        self._check_partition(partition)
        lost = 0
        with self._lock:
            self._killed.add(partition)
            for sub in self._subs.values():
                for pkey, state in sub.states.items():
                    if pkey[1] == partition:
                        lost += len(state.inflight)
                        state.inflight.clear()
            self.n_lost_inflight += lost
            self._update_gauges()
        return lost

    def revive_partition(self, partition: int) -> None:
        """Bring a killed partition back; rewind cursors and redeliver.

        Every subscription's cursor rewinds to its acked watermark, so
        all unacked records — including the frames lost at kill time —
        are delivered again (at-least-once; consumers dedupe).
        """
        self._check_partition(partition)
        with self._lock:
            self._killed.discard(partition)
            for sub in list(self._subs.values()):
                for pkey in sorted(sub.states):
                    if pkey[1] != partition:
                        continue
                    state = sub.states[pkey]
                    state.inflight.clear()
                    state.cursor = state.acked + 1
                    self._pump(sub, pkey)
            self._update_gauges()

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.config.n_partitions:
            raise ConfigurationError(
                f"partition must be in [0, {self.config.n_partitions}), "
                f"got {partition}")

    # -- introspection -------------------------------------------------
    def _update_gauges(self) -> None:
        if not obs.STATE.enabled:
            return
        inflight = 0
        lag = 0
        for sub in self._subs.values():
            for pkey, state in sub.states.items():
                inflight += len(state.inflight)
                lag = max(lag, len(self._records.get(pkey, ()))
                          - (state.acked + 1))
        obs.set_gauge("bus.inflight", inflight)
        obs.set_gauge("bus.max_lag", lag)
        obs.set_gauge("bus.log_records", self.log.next_offset)

    def stats(self) -> Dict[str, object]:
        """JSON-safe broker state snapshot (CLI / drills / tests)."""
        with self._lock:
            partitions = {
                f"{topic}/{partition}": len(records)
                for (topic, partition), records in sorted(
                    self._records.items())}
            subs = {}
            for sid, sub in sorted(self._subs.items()):
                lag = sum(len(self._records.get(pkey, ()))
                          - (state.acked + 1)
                          for pkey, state in sub.states.items())
                inflight = sum(len(state.inflight)
                               for state in sub.states.values())
                subs[str(sid)] = {"name": sub.name, "pattern": sub.pattern,
                                  "lag": lag, "inflight": inflight}
            return {
                "n_published": self.n_published,
                "n_delivered": self.n_delivered,
                "n_redelivered": self.n_redelivered,
                "n_acked": self.n_acked,
                "n_lost_inflight": self.n_lost_inflight,
                "n_send_errors": self.n_send_errors,
                "n_subscriptions": len(self._subs),
                "killed_partitions": sorted(self._killed),
                "next_offset": self.log.next_offset,
                "partitions": partitions,
                "subscriptions": subs,
            }

    def close(self) -> None:
        with self._lock:
            self.log.close()

    def __enter__(self) -> "BrokerCore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
