"""Bus client: the EventBus-compatible adapter over a broker link.

:class:`BusClient` speaks the same ``subscribe`` / ``publish`` surface
as :class:`repro.appliances.bus.EventBus`, so every appliance runs
unmodified on either bus — ``run_scenario(spec, bus=BusClient(link))``
is the whole migration.  Under that surface it implements the consumer
half of at-least-once delivery:

* **acks are contiguous** — per (topic, partition) the client acks the
  highest index such that *every* index from the subscription's start
  up to it has been received.  Cumulative broker acks therefore never
  cover a frame lost on the wire; the broker's retry timer re-sends it.
* **dedupe + reorder on (source, seq)** — redelivered duplicates are
  dropped, out-of-order arrivals wait in a per-source pending buffer,
  and handlers observe each source's events exactly once, in sequence
  order, no matter how the wire mangled them.
* **one validation per process boundary** — a frame from the in-process
  broker carries the event the broker already validated (a
  :class:`~repro.appliances.messages.CheckedWire`) and is used as is; a
  frame read off TCP is a plain dict and is validated here.

Two links are provided: :class:`InProcLink` calls a
:class:`~repro.bus.broker.BrokerCore` directly (synchronous delivery —
the fault-free office behaves exactly like the in-process bus) and
:class:`SocketLink` speaks the JSONL-over-TCP protocol of
:mod:`repro.bus.server`.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..appliances.bus import (DeliveryError, Handler, MAX_DELIVERY_ERRORS,
                              topic_matches)
from ..appliances.messages import CheckedWire, ContextEvent
from ..exceptions import BusError, ConfigurationError
from .broker import BrokerCore, PartitionKey

FrameFn = Callable[[Dict[str, object]], None]


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------
class InProcLink:
    """Direct link to a :class:`BrokerCore` in the same process.

    ``wrap_send`` optionally wraps the broker→client frame callback —
    the hook :class:`repro.bus.faults.FaultyChannel` uses to drop,
    duplicate or delay frames in failure drills.
    """

    def __init__(self, broker: BrokerCore,
                 wrap_send: Optional[Callable[[FrameFn], FrameFn]] = None
                 ) -> None:
        self.broker = broker
        self._wrap = wrap_send

    def subscribe(self, pattern: str, name: str, from_start: bool,
                  on_frame: FrameFn) -> Tuple[int, Dict[str, int]]:
        send = on_frame if self._wrap is None else self._wrap(on_frame)
        return self.broker.subscribe(pattern, send, name=name,
                                     from_start=from_start)

    def publish(self, wire: Dict[str, object],
                key: Optional[str] = None) -> Tuple[int, int]:
        return self.broker.publish(wire, key=key)

    def ack(self, sid: int, topic: str, partition: int, index: int) -> None:
        self.broker.ack(sid, topic, partition, index)

    def unsubscribe(self, sid: int) -> None:
        self.broker.unsubscribe(sid)

    def stats(self) -> Dict[str, object]:
        return self.broker.stats()

    def close(self) -> None:
        pass


class SocketLink:
    """JSONL-over-TCP link to a :mod:`repro.bus.server` broker.

    One connection carries both planes: request/reply control frames
    (correlated by ``rid``, so a retried request cannot be matched to a
    stale reply) and asynchronous ``{"bus": "ev"}`` deliveries, which a
    reader thread routes to the subscribing client by ``sid``.
    Publishes are retried — at-least-once from the publishing side;
    consumers dedupe on ``(source, seq)``.

    Handlers run on the reader thread, so they must not issue blocking
    requests (e.g. ``publish``) over the *same* link — the thread that
    would process the reply is the one waiting for it.  Publishing
    appliances use their own link/connection; acks are fire-and-forget
    and safe from handlers.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0,
                 publish_retries: int = 3) -> None:
        if publish_retries < 1:
            raise ConfigurationError(
                f"publish_retries must be >= 1, got {publish_retries}")
        self.timeout_s = float(timeout_s)
        self.publish_retries = int(publish_retries)
        self._sock = socket.create_connection((host, port),
                                              timeout=self.timeout_s)
        self._wfile = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._send_lock = threading.Lock()
        self._req_lock = threading.Lock()
        self._replies: "queue.Queue[Dict[str, object]]" = queue.Queue()
        self._on_ev: Dict[int, FrameFn] = {}
        self._next_rid = 1
        self._closed = False
        self.frames_dropped = 0  # torn, or rejected by their handler
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # -- wire plumbing -------------------------------------------------
    def _read_loop(self) -> None:
        try:
            rfile = self._sock.makefile("r", encoding="utf-8")
            for line in rfile:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if isinstance(doc, dict) and doc.get("bus") == "ev":
                        handler = self._on_ev.get(doc.get("sid"))
                        if handler is not None:
                            handler(doc)
                    else:
                        self._replies.put(doc)
                except Exception:  # noqa: BLE001 - drop the frame, keep the link
                    # A torn frame, or a delivery its handler rejected: if
                    # the reader died, every later reply would time out.
                    self.frames_dropped += 1
        except OSError:
            pass  # socket closed under the reader

    def _send(self, doc: Dict[str, object]) -> None:
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with self._send_lock:
            self._wfile.write(payload + "\n")
            self._wfile.flush()

    def _request(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Send one control frame and wait for its rid-matched reply."""
        with self._req_lock:
            rid = self._next_rid
            self._next_rid += 1
            doc = dict(doc, rid=rid)
            self._send(doc)
            while True:
                try:
                    reply = self._replies.get(timeout=self.timeout_s)
                except queue.Empty:
                    raise BusError(
                        f"broker reply timed out after {self.timeout_s}s "
                        f"for {doc.get('bus')!r}") from None
                if not isinstance(reply, dict) or reply.get("rid") != rid:
                    continue  # stale reply from an earlier timed-out request
                if reply.get("error"):
                    raise BusError(f"broker rejected {doc.get('bus')!r}: "
                                   f"{reply['error']}")
                return reply

    # -- link surface --------------------------------------------------
    def subscribe(self, pattern: str, name: str, from_start: bool,
                  on_frame: FrameFn) -> Tuple[int, Dict[str, int]]:
        reply = self._request({"bus": "sub", "pattern": pattern,
                               "name": name, "from_start": bool(from_start)})
        sid = int(reply["sid"])
        # Frames sent between sub_ok and this registration are dropped
        # here and redelivered by the broker's retry timer.
        self._on_ev[sid] = on_frame
        starts = reply.get("starts") or {}
        return sid, {str(k): int(v) for k, v in starts.items()}

    def publish(self, wire: Dict[str, object],
                key: Optional[str] = None) -> Tuple[int, int]:
        last: Optional[BusError] = None
        for _ in range(self.publish_retries):
            try:
                reply = self._request({"bus": "pub", "event": wire,
                                       **({"key": key} if key else {})})
                return int(reply["partition"]), int(reply["offset"])
            except BusError as exc:
                if "rejected" in str(exc):
                    raise  # malformed event: retrying cannot help
                last = exc
        raise BusError(f"publish failed after {self.publish_retries} "
                       f"attempts: {last}")

    def ack(self, sid: int, topic: str, partition: int, index: int) -> None:
        # Fire-and-forget: no reply, so acking from the reader thread
        # never waits on the reply queue it would itself have to fill.
        self._send({"bus": "ack", "sid": sid, "topic": topic,
                    "partition": partition, "index": index})

    def unsubscribe(self, sid: int) -> None:
        self._on_ev.pop(sid, None)
        self._request({"bus": "unsub", "sid": sid})

    def stats(self) -> Dict[str, object]:
        """The broker's counters plus this link's dropped frames."""
        reply = self._request({"bus": "stats"})
        return {**reply["stats"],  # type: ignore[dict-item]
                "link_frames_dropped": self.frames_dropped}

    def kill_partition(self, partition: int) -> int:
        reply = self._request({"bus": "kill", "partition": partition})
        return int(reply.get("lost", 0))

    def revive_partition(self, partition: int) -> None:
        self._request({"bus": "revive", "partition": partition})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _PartitionRecv:
    """Contiguous-receipt tracking for one (topic, partition)."""

    __slots__ = ("watermark", "beyond", "acked")

    def __init__(self, start: int) -> None:
        self.watermark = start - 1  # highest contiguously received index
        self.beyond: Set[int] = set()  # received indices > watermark
        self.acked = start - 1      # highest watermark sent as an ack


class _SourceRecv:
    """Dedupe + reorder state for one publishing source."""

    __slots__ = ("next_seq", "pending")

    def __init__(self, next_seq: Optional[int]) -> None:
        self.next_seq = next_seq    # None: adopt the first seq seen
        self.pending: Dict[int, ContextEvent] = {}


class _Route:
    """One broker subscription fanned out to local handler entries."""

    __slots__ = ("pattern", "sid", "entries", "parts", "sources")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.sid: Optional[int] = None
        self.entries: List[Tuple[str, str, Handler]] = []
        self.parts: Dict[PartitionKey, _PartitionRecv] = {}
        self.sources: Dict[str, _SourceRecv] = {}


class BusClient:
    """Drop-in :class:`~repro.appliances.bus.EventBus` over a broker link.

    Parameters
    ----------
    link:
        :class:`InProcLink` or :class:`SocketLink`.
    from_start:
        Subscriptions replay the log from offset 0 (and expect each
        source's sequence to start at 1).  Without it, delivery begins
        at the log tail and each source's first-seen seq is adopted as
        its baseline.
    max_delivery_errors:
        Bound on the local delivery-error ring, as on ``EventBus``.
    """

    def __init__(self, link, from_start: bool = False,
                 max_delivery_errors: int = MAX_DELIVERY_ERRORS) -> None:
        if max_delivery_errors < 1:
            raise ConfigurationError(
                f"max_delivery_errors must be >= 1, got "
                f"{max_delivery_errors}")
        self._link = link
        self._from_start = bool(from_start)
        self._lock = threading.RLock()
        self._routes: Dict[str, _Route] = {}
        from collections import deque
        self._delivery_errors = deque(maxlen=max_delivery_errors)
        self._errors_dropped = 0
        self._published = 0
        self._holding = False
        self.n_handled = 0
        self.dedupe_dropped = 0
        self.redeliveries_seen = 0
        self.acks_sent = 0
        self.last_publish: Optional[Tuple[int, int]] = None

    # -- EventBus surface ----------------------------------------------
    def subscribe(self, pattern: str, handler: Handler,
                  name: str = "anonymous") -> None:
        """Register *handler* for topics matching *pattern*."""
        if not pattern:
            raise ConfigurationError("pattern must be non-empty")
        with self._lock:
            route = self._routes.get(pattern)
            if route is not None:
                route.entries.append((pattern, name, handler))
                return
            route = _Route(pattern)
            route.entries.append((pattern, name, handler))
            self._routes[pattern] = route
        # Subscribe outside the lock: the in-process link may deliver
        # re-entrantly during from_start catch-up, and the socket link's
        # reader thread needs the lock to process concurrent frames.
        sid, starts = self._link.subscribe(
            pattern, name, self._from_start,
            lambda frame, _route=route: self._on_frame(_route, frame))
        with self._lock:
            route.sid = sid
            for label, start in starts.items():
                topic, _, part = label.rpartition("/")
                pkey = (topic, int(part))
                route.parts.setdefault(pkey, _PartitionRecv(start))

    def unsubscribe(self, handler: Handler) -> int:
        """Remove every subscription using *handler*; returns the count."""
        removed = 0
        drop: List[_Route] = []
        with self._lock:
            for route in self._routes.values():
                kept = [e for e in route.entries if e[2] != handler]
                removed += len(route.entries) - len(kept)
                route.entries = kept
                if not kept:
                    drop.append(route)
            for route in drop:
                del self._routes[route.pattern]
        for route in drop:
            if route.sid is not None:
                self._link.unsubscribe(route.sid)
        return removed

    def publish(self, event: ContextEvent) -> int:
        """Publish to the broker; returns synchronous local deliveries.

        On the in-process link, matching local handlers run before this
        returns (exactly the ``EventBus`` contract when fault-free); on
        the socket link delivery is asynchronous and the count is 0.
        """
        before = self.n_handled
        partition, offset = self._link.publish(event.to_wire())
        with self._lock:
            self._published += 1
            self.last_publish = (partition, offset)
        return self.n_handled - before

    # -- frame intake --------------------------------------------------
    def _on_frame(self, route: _Route, frame: Dict[str, object]) -> None:
        try:
            topic = str(frame["topic"])
            partition = int(frame["partition"])        # type: ignore[arg-type]
            index = int(frame["index"])                # type: ignore[arg-type]
            wire = frame["event"]
            event = (wire.event if isinstance(wire, CheckedWire)
                     else ContextEvent.from_wire(wire))  # type: ignore[arg-type]
            sid = int(frame["sid"])                    # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise BusError(f"malformed delivery frame: {exc}") from exc
        acks: List[Tuple[int, str, int, int]] = []
        with self._lock:
            if frame.get("redelivery"):
                self.redeliveries_seen += 1
            pkey = (topic, partition)
            recv = route.parts.get(pkey)
            if recv is None:
                # Partition key born after subscribe: its records start
                # at index 0 for everyone.
                recv = route.parts[pkey] = _PartitionRecv(0)
            if index > recv.watermark and index not in recv.beyond:
                recv.beyond.add(index)
                while recv.watermark + 1 in recv.beyond:
                    recv.watermark += 1
                    recv.beyond.discard(recv.watermark)
            if not self._holding and recv.watermark > recv.acked:
                recv.acked = recv.watermark
                acks.append((sid, topic, partition, recv.watermark))
            self._ingest(route, event)
        for ack in acks:
            self.acks_sent += 1
            self._link.ack(*ack)

    def _ingest(self, route: _Route, event: ContextEvent) -> None:
        """Dedupe on (source, seq); release pending events in order."""
        src = route.sources.get(event.source)
        if src is None:
            src = route.sources[event.source] = _SourceRecv(
                1 if self._from_start else None)
        if src.next_seq is None:
            src.next_seq = event.seq
        if event.seq < src.next_seq or event.seq in src.pending:
            self.dedupe_dropped += 1
            return
        src.pending[event.seq] = event
        while src.next_seq in src.pending:
            ready = src.pending.pop(src.next_seq)
            src.next_seq += 1
            self._dispatch(route, ready)

    def _dispatch(self, route: _Route, event: ContextEvent) -> None:
        for _pattern, name, handler in list(route.entries):
            try:
                handler(event)
                self.n_handled += 1
            except Exception as exc:  # noqa: BLE001 - isolation, as EventBus
                if (len(self._delivery_errors)
                        == self._delivery_errors.maxlen):
                    self._errors_dropped += 1
                self._delivery_errors.append(DeliveryError(
                    topic=event.topic, event_id=event.event_id,
                    subscriber=name, error=repr(exc)))

    # -- ack control (drills) ------------------------------------------
    def hold_acks(self) -> None:
        """Stop sending acks (drill hook: fills the inflight window)."""
        with self._lock:
            self._holding = True

    def release_acks(self) -> None:
        """Resume acking; immediately acks current watermarks."""
        acks: List[Tuple[int, str, int, int]] = []
        with self._lock:
            self._holding = False
            for route in self._routes.values():
                if route.sid is None:
                    continue
                for (topic, partition), recv in route.parts.items():
                    if recv.watermark > recv.acked:
                        recv.acked = recv.watermark
                        acks.append((route.sid, topic, partition,
                                     recv.watermark))
        for ack in acks:
            self.acks_sent += 1
            self._link.ack(*ack)

    # -- diagnostics ---------------------------------------------------
    @property
    def n_published(self) -> int:
        """Events published through this client."""
        return self._published

    @property
    def delivery_errors(self) -> List[DeliveryError]:
        """Errors raised by local handlers (bounded ring, as EventBus)."""
        return list(self._delivery_errors)

    @property
    def n_delivery_errors_dropped(self) -> int:
        return self._errors_dropped

    @property
    def n_pending(self) -> int:
        """Events waiting in reorder buffers (should drain to 0)."""
        with self._lock:
            return sum(len(src.pending) for route in self._routes.values()
                       for src in route.sources.values())

    def subscriber_names(self) -> Dict[str, List[str]]:
        """Mapping pattern -> subscriber names (diagnostics)."""
        with self._lock:
            return {pattern: [name for _, name, _ in route.entries]
                    for pattern, route in self._routes.items()}

    def diagnostics(self) -> Dict[str, object]:
        """EventBus-shaped health view plus distributed-bus counters."""
        with self._lock:
            return {
                "n_published": self._published,
                "n_subscriptions": sum(len(r.entries)
                                       for r in self._routes.values()),
                "subscribers": {p: [n for _, n, _ in r.entries]
                                for p, r in self._routes.items()},
                "n_delivery_errors": len(self._delivery_errors),
                "n_delivery_errors_dropped": self._errors_dropped,
                "n_handled": self.n_handled,
                "dedupe_dropped": self.dedupe_dropped,
                "redeliveries_seen": self.redeliveries_seen,
                "acks_sent": self.acks_sent,
                "n_pending": self.n_pending,
            }

    def close(self) -> None:
        self._link.close()

    @staticmethod
    def _matches(pattern: str, topic: str) -> bool:
        return topic_matches(pattern, topic)
