"""Asyncio TCP endpoint for the context-event broker.

The frame protocol of the broker on the JSONL server core it shares
with ``repro serve`` (:func:`repro.serving.framing.serve_jsonl`).
Requests carry a ``bus`` op and an optional ``rid`` the reply echoes
(the :class:`~repro.bus.client.SocketLink` correlates on it, so a retry
cannot be satisfied by a stale reply):

========  =========================================  ==================
op        request fields                             reply
========  =========================================  ==================
sub       pattern, name, from_start                  sub_ok: sid, starts
pub       event (wire form), key?                    pub_ok: partition, offset
ack       sid, topic, partition, index               *(none — fire and forget)*
unsub     sid                                        unsub_ok
stats     —                                          stats_ok: stats
kill      partition                                  kill_ok: lost
revive    partition                                  revive_ok
shutdown  —                                          shutdown_ok
========  =========================================  ==================

Deliveries are pushed to subscribers as ``{"bus": "ev", "sid": ...,
"event": ..., ...}`` frames by a per-connection outbox task.  A
disconnect drops the connection's subscriptions and what was inflight to
them.  A background :meth:`~repro.bus.broker.BrokerCore.tick` drives
at-least-once redelivery of unacked frames.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import BusError, ConfigurationError
from ..serving.framing import (Connection, FrameHandler, _announce,
                               serve_jsonl)
from .broker import BrokerCore, BusConfig


def _open_connection(core: BrokerCore, stop: "asyncio.Event",
                     conn: Connection) -> FrameHandler:
    """Frame semantics of a broker connection: ops in, replies, events out."""
    outbox: "asyncio.Queue[Dict[str, object]]" = asyncio.Queue()
    sids: List[int] = []

    def send(frame: Dict[str, object]) -> None:
        # The core's delivery callback; raising tells it this subscriber
        # is gone.
        if conn.writer.is_closing():
            raise BusError("connection closed")
        outbox.put_nowait(frame)

    async def push() -> None:
        while True:
            await conn.send(await outbox.get())

    pusher = asyncio.get_running_loop().create_task(push())

    def close() -> None:
        pusher.cancel()
        for sid in sids:
            core.unsubscribe(sid)

    async def handle(text: str) -> None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            await conn.send({"error": "bad request: frame is not valid "
                                      "JSON"})
            return
        if not isinstance(doc, dict):
            await conn.send({"error": "bad request: frame must be an "
                                      "object"})
            return
        try:
            reply = _dispatch(core, doc, doc.get("bus"), send, sids, stop)
        except (BusError, ConfigurationError, KeyError, TypeError,
                ValueError) as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        if reply is not None:   # None: an ack, fire-and-forget
            if doc.get("rid") is not None:
                reply["rid"] = doc["rid"]
            await conn.send(reply)

    conn.on_close(close)
    return handle


def _dispatch(core: BrokerCore, doc: Dict[str, object], op: object,
              send: Callable[[Dict[str, object]], None], sids: List[int],
              stop: "asyncio.Event") -> Optional[Dict[str, object]]:
    """Execute one control frame; returns the reply (None: no reply).

    *send* is the connection's outbox writer — the delivery callback a
    ``sub`` frame registers with the core.
    """
    if op == "sub":
        pattern = doc.get("pattern")
        if not isinstance(pattern, str):
            raise BusError(f"sub pattern must be a string, got {pattern!r}")
        sid, starts = core.subscribe(pattern, send,
                                     name=str(doc.get("name", "anonymous")),
                                     from_start=bool(doc.get("from_start")))
        sids.append(sid)
        return {"bus": "sub_ok", "sid": sid, "starts": starts}
    if op == "pub":
        event = doc.get("event")
        if not isinstance(event, dict):
            raise BusError(f"pub event must be an object, got {event!r}")
        key = doc.get("key")
        partition, offset = core.publish(
            event, key=str(key) if key is not None else None)
        return {"bus": "pub_ok", "partition": partition, "offset": offset}
    if op == "ack":
        core.ack(int(doc["sid"]), str(doc["topic"]),  # type: ignore[arg-type]
                 int(doc["partition"]), int(doc["index"]))  # type: ignore[arg-type]
        return None
    if op == "unsub":
        sid = int(doc["sid"])  # type: ignore[arg-type]
        core.unsubscribe(sid)
        if sid in sids:
            sids.remove(sid)
        return {"bus": "unsub_ok"}
    if op == "stats":
        return {"bus": "stats_ok", "stats": core.stats()}
    if op == "kill":
        lost = core.kill_partition(int(doc["partition"]))  # type: ignore[arg-type]
        return {"bus": "kill_ok", "lost": lost}
    if op == "revive":
        core.revive_partition(int(doc["partition"]))  # type: ignore[arg-type]
        return {"bus": "revive_ok"}
    if op == "shutdown":
        stop.set()
        return {"bus": "shutdown_ok"}
    raise BusError(f"unknown bus op {op!r}")


async def serve_bus(core: BrokerCore, host: str, port: int,
                    ready: Optional["asyncio.Event"] = None,
                    stop: Optional["asyncio.Event"] = None,
                    tick_interval_s: float = 0.05,
                    announce=_announce,
                    on_bound: Optional[Callable[[str, int], None]] = None
                    ) -> None:
    """Serve *core* over TCP until *stop* is set, then sync its log.

    The redelivery timer ticks every *tick_interval_s*.  The caller
    opens and closes *core*; its counters are the run's post-mortem.
    """
    if tick_interval_s <= 0:
        raise ConfigurationError(
            f"tick_interval_s must be > 0, got {tick_interval_s}")
    stop = stop if stop is not None else asyncio.Event()

    async def _ticker() -> None:
        while True:
            await asyncio.sleep(tick_interval_s)
            core.tick()

    ticker = asyncio.get_running_loop().create_task(_ticker())
    try:
        await serve_jsonl(
            functools.partial(_open_connection, core, stop), host, port,
            stop, "bus broker",
            f"(partitions={core.config.n_partitions}, "
            f"credits={core.config.credits}, log={core.log.root})",
            announce=announce, ready=ready, on_bound=on_bound)
    finally:
        ticker.cancel()
        core.log.sync()
    announce(f"bus broker stopped: {core.n_published} published, "
             f"{core.n_delivered} delivered, "
             f"{core.n_redelivered} redelivered")


class BrokerServer:
    """Thread wrapper running :func:`serve_bus` on a private event loop.

    For tests, drills and examples that need a live TCP broker in the
    current process::

        server = BrokerServer(log_dir)
        host, port = server.start()
        ...
        server.stop()
    """

    def __init__(self, log_dir, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[BusConfig] = None,
                 tick_interval_s: float = 0.05) -> None:
        self.log_dir = log_dir
        self.host = host
        self.port = port
        self.config = config
        self.tick_interval_s = float(tick_interval_s)
        self.core: Optional[BrokerCore] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional["asyncio.Event"] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        """Start the broker thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise ConfigurationError("broker server already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise BusError(f"broker did not bind within {timeout_s}s")
        if self._failure is not None:
            raise BusError(f"broker failed to start: {self._failure!r}")
        assert self._bound is not None
        return self._bound

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start/stop
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def _on_bound(host: str, port: int) -> None:
            self._bound = (host, port)
            self._started.set()

        self.core = BrokerCore(self.log_dir, self.config)
        await serve_bus(self.core, self.host, self.port, stop=self._stop,
                        tick_interval_s=self.tick_interval_s,
                        announce=lambda _msg: None, on_bound=_on_bound)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Signal the loop to stop and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout_s)
        if self.core is not None:
            self.core.close()
        self._thread = None

    def __enter__(self) -> "BrokerServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
