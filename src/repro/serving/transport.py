"""Transports for ``repro serve``: JSONL over stdio or a TCP socket.

* **stdio** — serve every request of a text stream with backpressure,
  write the responses in request order;
* **socket** — the serving frame semantics on the shared server core
  (:func:`~repro.serving.framing.serve_jsonl`): each line is an
  open-loop submission, answered when its micro-batch completes.  A
  frame that does not parse as a request (a ``ctl`` frame included)
  gets a ``bad request`` error reply.
"""

from __future__ import annotations

import asyncio
import functools
from typing import IO, List, Optional

from ..exceptions import ConfigurationError
from .framing import Connection, _announce, serve_jsonl
from .protocol import ServeRequest
from .registry import ModelRegistry
from .service import InferenceService, ServingConfig, serve_requests


def read_requests(stream: IO[str]) -> List[ServeRequest]:
    """Parse one JSONL request per non-empty line of *stream*."""
    requests = []
    for line in stream:
        line = line.strip()
        if line:
            requests.append(ServeRequest.from_json(line))
    return requests


def serve_stdio(registry: ModelRegistry, stream_in: IO[str],
                stream_out: IO[str],
                config: ServingConfig = ServingConfig()) -> int:
    """Serve every request on *stream_in*; returns the response count."""
    requests = read_requests(stream_in)
    responses = serve_requests(registry, requests, config=config)
    for response in responses:
        stream_out.write(response.to_json() + "\n")
    return len(responses)


async def _respond(service: InferenceService, conn: Connection,
                   request: ServeRequest) -> None:
    try:
        response = await service.submit(request.cues,
                                        class_index=request.class_index,
                                        request_id=request.request_id)
    except Exception as exc:  # noqa: BLE001 - report, keep the connection
        await conn.send({"id": request.request_id,
                         "error": type(exc).__name__,
                         "message": str(exc)})
        return
    await conn.send(response.to_json())


async def _handle_request(service: InferenceService, conn: Connection,
                          text: str) -> None:
    """Frame semantics of a serving connection: one request per line."""
    try:
        request = ServeRequest.from_json(text)
    except ConfigurationError as exc:
        await conn.send({"error": f"bad request: {exc}"})
        return
    conn.spawn(_respond(service, conn, request))


async def serve_connections(service: InferenceService, host: str, port: int,
                            describe: str = "",
                            ready: Optional["asyncio.Event"] = None,
                            stop: Optional["asyncio.Event"] = None,
                            max_requests: Optional[int] = None,
                            announce=_announce) -> None:
    """Run the JSONL TCP endpoint over an already-built service.

    *ready* is set once listening; with *max_requests* the server
    retires once that many requests have resolved (answered or shed).
    On stop every open connection is answered and closed, then the
    service drains.
    """
    stop = stop if stop is not None else asyncio.Event()
    service.start()

    async def _retire() -> None:
        while service.n_completed + service.n_shed < max_requests:
            await asyncio.sleep(0.01)
        stop.set()

    watcher = (asyncio.get_running_loop().create_task(_retire())
               if max_requests is not None else None)
    try:
        await serve_jsonl(
            lambda conn: functools.partial(_handle_request, service, conn),
            host, port, stop, "serving", describe, announce=announce,
            ready=ready)
    finally:
        if watcher is not None:
            watcher.cancel()
        await service.drain()
    announce(f"drained: {service.n_completed} served, "
             f"{service.n_shed} shed, {service.in_flight} in flight")


async def serve_socket(registry: ModelRegistry, host: str, port: int,
                       config: ServingConfig = ServingConfig(),
                       ready: Optional["asyncio.Event"] = None,
                       stop: Optional["asyncio.Event"] = None,
                       max_requests: Optional[int] = None,
                       announce=_announce) -> None:
    """:func:`serve_connections` over a fresh :class:`InferenceService`."""
    await serve_connections(
        InferenceService(registry, config=config), host, port,
        describe=(f"(batch<={config.max_batch}, "
                  f"queue={config.queue_capacity})"),
        ready=ready, stop=stop, max_requests=max_requests,
        announce=announce)
