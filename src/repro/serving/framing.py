"""The one JSONL server core behind ``repro serve`` and the
``repro bus serve`` broker.

:func:`serve_jsonl` owns the listener, the per-connection frame loop and
the drain; an endpoint supplies only its frame semantics.  Hardening:

* a frame over the line limit gets an error reply; the rest of the
  stream is read and dropped (closing with unread data would RST the
  connection and destroy the reply), then the connection closes;
* a frame that is not valid UTF-8 gets an error reply; blank lines are
  skipped;
* a client reset is a disconnect: its pending replies are dropped, not
  written to the dead socket.

On stop the listener closes and each open connection stops reading at a
frame boundary, finishes its in-flight work and gets EOF.  The CLIs wire
SIGINT and SIGTERM to that stop (:func:`stop_on_signals`); the core
itself installs no signal handlers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from typing import (AsyncIterator, Awaitable, Callable, Coroutine, Dict,
                    List, Set, Tuple, Union)

#: An endpoint's handler for the text of one frame.
FrameHandler = Callable[[str], Awaitable[None]]

#: Seconds a stopped connection may drain before a peer that stopped
#: reading is dropped (it would otherwise block the stop forever).
DRAIN_TIMEOUT_S = 10.0


def parse_host_port(value: str) -> Tuple[str, int]:
    """Split ``HOST:PORT``; ``ValueError`` unless PORT is in 0-65535."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"expects HOST:PORT (port 0-65535), got {value!r}")
    return host, int(port)


def stop_on_signals(stop: "asyncio.Event") -> None:
    """Make SIGINT and SIGTERM set *stop* on the running loop.

    The loop's handlers replace any inherited disposition, so a server
    started in the background (where shells ignore SIGINT) still stops
    gracefully on either signal.
    """
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)


def _announce(message: str) -> None:
    """Default announcement hook: unbuffered print (pipes included)."""
    print(message, flush=True)


async def iter_jsonl_frames(
        reader: asyncio.StreamReader,
        reply: Callable[[Dict[str, object]], Awaitable[None]]
) -> AsyncIterator[str]:
    """Yield each well-framed line as text; framing errors go to *reply*."""
    while True:
        try:
            line = await reader.readline()
        except ValueError:   # over the line limit: unrecoverable mid-line
            await reply({"error": "bad request: frame exceeds line limit"})
            while await reader.read(1 << 16):
                pass
            return
        if not line:
            return
        try:
            text = line.decode().strip()
        except UnicodeDecodeError:
            await reply({"error": "bad request: frame is not valid UTF-8"})
            continue
        if text:
            yield text


class Connection:
    """One client connection of :func:`serve_jsonl`, as endpoints see it."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self._task = asyncio.current_task()
        self._lock = asyncio.Lock()
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._on_close: List[Callable[[], None]] = []
        self._reading = False   # waiting for a frame: safe to cancel
        self._stopping = False

    async def send(self, frame: Union[str, Dict[str, object]]) -> None:
        """Write a document or an encoded line (no-op once the peer left)."""
        if self.writer.is_closing():
            return
        line = frame if isinstance(frame, str) else json.dumps(frame)
        try:
            async with self._lock:
                self.writer.write((line + "\n").encode())
                await self.writer.drain()
        except OSError:
            pass   # the peer went away; the frame loop sees it too

    def spawn(self, work: Coroutine[object, object, None]) -> None:
        """Run *work* as in-flight work: the drain waits for it."""
        task = asyncio.get_running_loop().create_task(work)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def on_close(self, callback: Callable[[], None]) -> None:
        """Call *callback* once this connection has closed."""
        self._on_close.append(callback)

    def stop(self) -> None:
        """Stop reading at the next frame boundary; the drain follows."""
        self._stopping = True
        asyncio.get_running_loop().call_later(
            DRAIN_TIMEOUT_S, self.writer.transport.abort)
        if self._reading:
            self._task.cancel()

    async def run(self, handle: FrameHandler) -> None:
        """Pass every frame to *handle*; then drain, close, call back."""
        try:
            self._reading = True
            try:
                async for text in iter_jsonl_frames(self.reader, self.send):
                    self._reading = False
                    await handle(text)
                    if self._stopping:
                        break
                    self._reading = True
            except asyncio.CancelledError:
                if not self._stopping:
                    raise
            self._reading = False
            await asyncio.gather(*self._tasks)
        except (OSError, asyncio.CancelledError):
            pass   # the peer went away, or the loop is tearing down
        finally:
            self.writer.close()
            for callback in self._on_close:
                callback()
            with contextlib.suppress(OSError, asyncio.CancelledError):
                await self.writer.wait_closed()


async def serve_jsonl(open_connection: Callable[[Connection], FrameHandler],
                      host: str, port: int, stop: "asyncio.Event",
                      label: str, describe: str = "", announce=_announce,
                      ready=None, on_bound=None) -> None:
    """Serve JSONL on ``host:port`` until *stop* is set, then drain.

    *open_connection* returns the frame handler of each new connection.
    Once listening, ``"{label} on HOST:PORT {describe}"`` is announced,
    *on_bound* gets the bound ``(host, port)`` and *ready* is set.
    """
    connections: Set[Connection] = set()

    async def _client(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if stop.is_set():   # accepted just before the listener closed
            writer.close()
            return
        conn = Connection(reader, writer)
        connections.add(conn)
        try:
            await conn.run(open_connection(conn))
        finally:
            connections.discard(conn)

    server = await asyncio.start_server(_client, host, port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    announce(f"{label} on {bound_host}:{bound_port} {describe}".rstrip())
    if on_bound is not None:
        on_bound(bound_host, int(bound_port))
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        server.close()
        for conn in connections:
            conn.stop()
        if connections:
            await asyncio.wait([conn._task for conn in connections])
        await server.wait_closed()
