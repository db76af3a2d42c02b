"""Shard-per-process serving tier with consistent-hash stream routing.

One asyncio process tops out near ~2k rps on this workload
(``BENCH_serving.json``), and a naive process pool re-pickles the model
into every worker.  This module is the horizontal answer:

* **Shard processes** — ``n_shards`` spawned processes, each running the
  unmodified :class:`~repro.serving.service.InferenceService` behind the
  JSONL socket transport (:func:`~repro.serving.transport.
  serve_connections` with the shard control ops registered).  Admission
  control, ε load-shedding, micro-batching and graceful drain are the
  *per-shard* semantics of PR 4, unchanged.
* **Shared-memory artifacts** — the model triple is pickled once into a
  named segment (:mod:`repro.serving.shm`); every shard attaches by
  name and builds its local :class:`~repro.serving.registry.
  ModelRegistry` replica from the same bytes.  Spawn arguments and
  hot-swap control frames carry only the tiny handle.
* **Consistent-hash routing** — the front-end :class:`ShardedService`
  routes each request by its stream key (appliance/user id; request id
  when absent) through a :class:`HashRing` with configurable virtual
  nodes, so one stream always lands on one shard — and therefore one
  stateful ε-gate — and resizing the fleet moves only ~K/N streams.
* **Coordinated hot-swap** — :meth:`ShardedService.publish_and_activate`
  quiesces admissions, waits for in-flight traffic to resolve, publishes
  the artifact to every shard (barrier), then activates everywhere.
  Every response fleet-wide is attributable to exactly one version, and
  the version sequence has a single clean transition point — no mixed
  fleet, no torn batch.

The router and the shards speak the ordinary JSONL wire protocol, so a
shard is also directly debuggable with ``repro loadgen --connect``.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import hashlib
import json
import multiprocessing
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .. import observability as obs
from ..exceptions import ConfigurationError, ServiceClosedError
from .framing import _announce
from .protocol import ServeRequest, ServeResponse
from .registry import ModelRegistry
from .service import ServingConfig
from .shm import (BACKENDS as SHM_BACKENDS, ShardArtifact, ShmHandle,
                  load_artifact, publish_artifact, unlink_artifact)

#: Start methods accepted by :class:`ShardingConfig`.
START_METHODS = ("spawn", "fork", "forkserver")


# ----------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    Each shard contributes ``vnodes`` points on a 64-bit ring (stable
    BLAKE2b positions — never Python's salted ``hash``); a key routes to
    the first point at or after its own hash.  The classic guarantee
    follows: growing the fleet from N to N+1 shards moves only the keys
    that now fall to the new shard (~K/(N+1) of them), everything else
    stays put — pinned by the hypothesis property tests.
    """

    def __init__(self, shards: Sequence[int], vnodes: int = 64) -> None:
        shard_list = list(shards)
        if not shard_list:
            raise ConfigurationError("hash ring needs at least one shard")
        if len(set(shard_list)) != len(shard_list):
            raise ConfigurationError(
                f"shard ids must be unique, got {shard_list}")
        if vnodes < 1:
            raise ConfigurationError(
                f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self.shards = tuple(shard_list)
        points = sorted(
            (self._hash(f"shard-{shard}#vnode-{v}"), shard)
            for shard in shard_list for v in range(self.vnodes))
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        """Stable 64-bit position, identical in every process."""
        digest = hashlib.blake2b(key.encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def shard_for(self, key: Union[str, int]) -> int:
        """The shard owning *key* (clockwise successor on the ring)."""
        h = self._hash(str(key))
        index = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[index]

    def distribution(self, keys: Iterable[Union[str, int]]
                     ) -> Dict[int, int]:
        """Key count per shard — balance diagnostics and tests."""
        counts = {shard: 0 for shard in self.shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self._hashes)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ShardingConfig:
    """Operating knobs of one :class:`ShardedService` fleet.

    ``serving`` is applied to every shard — so ``queue_capacity`` etc.
    are *per-shard* bounds, and aggregate admission capacity scales with
    the fleet.  ``start_method`` defaults to ``spawn``: the honest
    configuration in which nothing reaches a shard except through the
    shared-memory artifact (``fork`` would inherit the parent's model
    for free and hide a serialization regression).
    """

    n_shards: int = 2
    vnodes: int = 64
    host: str = "127.0.0.1"
    serving: ServingConfig = ServingConfig()
    shm_backend: str = "shm"
    start_method: str = "spawn"
    spawn_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}")
        if self.vnodes < 1:
            raise ConfigurationError(
                f"vnodes must be >= 1, got {self.vnodes}")
        if self.shm_backend not in SHM_BACKENDS:
            raise ConfigurationError(
                f"unknown shm backend {self.shm_backend!r}; choose one "
                f"of {', '.join(SHM_BACKENDS)}")
        if self.start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start method {self.start_method!r}; choose "
                f"one of {', '.join(START_METHODS)}")
        if self.spawn_timeout_s <= 0:
            raise ConfigurationError(
                f"spawn_timeout_s must be > 0, got {self.spawn_timeout_s}")


def _control_ops(service, registry: ModelRegistry,
                 stop: "asyncio.Event") -> Dict[str, Callable]:
    """The ``ctl`` ops a shard answers its router on (reply fields)."""

    def publish(doc):
        artifact = load_artifact(ShmHandle.from_dict(doc.get("shm") or {}))
        return {"version": registry.publish(
            artifact.package, classifier=artifact.classifier,
            tag=artifact.tag)}

    def drain(_doc):
        # Acknowledge first (the router waits on this frame); the server
        # core then answers what is in flight and closes.
        stop.set()
        return {}

    return {
        "ping": lambda _doc: {},
        "publish": publish,
        "activate": lambda doc: {
            "version": registry.activate(int(doc["version"])).version},
        "stats": lambda _doc: {"stats": {
            "n_submitted": service.n_submitted,
            "n_shed": service.n_shed,
            "n_completed": service.n_completed,
            "n_batches": service.n_batches,
            "queue_depth": service.queue_depth,
            "active_version": registry.active_version,
            "versions": registry.versions(),
        }},
        "drain": drain,
    }


def _shard_main(shard_id: int, conn, host: str,
                serving_config: ServingConfig,
                handle_doc: Dict[str, object]) -> None:  # pragma: no cover
    """Entry point of one shard process.

    Attaches the shared-memory artifact, replicates it into a local
    registry as v1, and serves JSONL on an OS-assigned port with the
    control ops registered.  The only parent communication outside the
    socket is the pipe: ``("ready", shard_id, port)`` once listening,
    forwarded announcements, and ``("exit", shard_id)`` at teardown.

    Runs only in spawned children, which the parent's coverage
    recorder cannot observe; the logic is integration-tested end to
    end by ``tests/serving/test_sharding.py``.
    """
    artifact = load_artifact(ShmHandle.from_dict(handle_doc))
    registry = ModelRegistry()
    registry.publish_and_activate(artifact.package,
                                  classifier=artifact.classifier,
                                  tag=artifact.tag)

    async def _run() -> None:  # pragma: no cover - child process
        from .transport import serve_connections
        from .service import InferenceService
        service = InferenceService(registry, config=serving_config)
        stop = asyncio.Event()
        await serve_connections(
            service, host, 0,
            describe=f"(shard {shard_id})", stop=stop,
            announce=lambda msg: conn.send(("announce", shard_id, msg)),
            control=_control_ops(service, registry, stop),
            on_bound=lambda _h, port: conn.send(("ready", shard_id,
                                                 port)))

    try:  # pragma: no cover - child process
        asyncio.run(_run())
        conn.send(("exit", shard_id))
    except Exception as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("failed", shard_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        conn.close()


def _recv_with_timeout(conn, timeout_s: float):
    """Blocking pipe receive with a deadline (runs in a thread)."""
    if conn.poll(timeout_s):
        return conn.recv()
    raise TimeoutError(f"no message within {timeout_s}s")


class _Shard:
    """Router-side state of one shard process."""

    def __init__(self, shard_id: int, process, conn,
                 capacity: int) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.port: Optional[int] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader_task: Optional["asyncio.Task[None]"] = None
        self.pending: Dict[int, "asyncio.Future[ServeResponse]"] = {}
        self.acks: "asyncio.Queue[dict]" = asyncio.Queue()
        self.window = asyncio.Semaphore(capacity)
        self.ctl_lock = asyncio.Lock()
        self.n_routed = 0


class ShardedService:
    """Consistent-hash front-end router over a fleet of shard processes.

    Mirrors the :class:`~repro.serving.service.InferenceService` surface
    (``submit``/``serve_stream``/``drain``, the ``n_*`` counters, async
    context manager), so the loadgen, the socket transport and the tests
    drive either interchangeably.

    Parameters
    ----------
    artifact:
        The model triple every shard replicates as version 1.
    config:
        Fleet shape; see :class:`ShardingConfig`.  ``config.serving``
        (queue bound, batching, ε-policy, workers) applies per shard.
    """

    def __init__(self, artifact: ShardArtifact,
                 config: ShardingConfig = ShardingConfig()) -> None:
        self._artifact = artifact
        self._config = config
        self._ring = HashRing(range(config.n_shards),
                              vnodes=config.vnodes)
        self._shards: List[_Shard] = []
        self._started = False
        self._closed = False
        self._drained = False
        self._admitting: Optional["asyncio.Event"] = None
        self._idle: Optional["asyncio.Event"] = None
        self._swap_lock: Optional["asyncio.Lock"] = None
        self._in_flight = 0
        self._next_wire_id = 0
        self._active_version: Optional[int] = None
        self._swaps: List[Tuple[Optional[int], int]] = []
        self._n_cues = int(artifact.package.quality.n_cues)
        self._has_classifier = artifact.classifier is not None
        # Plain counters, mirroring InferenceService.
        self.n_submitted = 0
        self.n_shed = 0
        self.n_completed = 0

    # ------------------------------------------------------------------
    @property
    def config(self) -> ShardingConfig:
        return self._config

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def n_shards(self) -> int:
        return self._config.n_shards

    @property
    def in_flight(self) -> int:
        """Routed requests whose response has not resolved yet."""
        return self._in_flight

    @property
    def active_version(self) -> Optional[int]:
        return self._active_version

    @property
    def swap_history(self) -> List[Tuple[Optional[int], int]]:
        """Fleet-wide ``(from, to)`` activations in barrier order."""
        return list(self._swaps)

    @property
    def queue_depth(self) -> int:
        """Router-side proxy: requests in flight across the fleet."""
        return self._in_flight

    # ------------------------------------------------------------------
    def start(self):
        """Launch the fleet; awaitable (``await service.start()``).

        Synchronous callers holding no loop should prefer ``async with``
        or :func:`serve_sharded_requests`.  Idempotent like the
        single-process ``start``.
        """
        return self._start()

    async def _start(self) -> "ShardedService":
        if self._started:
            return self
        self._started = True
        self._admitting = asyncio.Event()
        self._admitting.set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._swap_lock = asyncio.Lock()
        context = multiprocessing.get_context(self._config.start_method)
        handle = publish_artifact(self._artifact,
                                  backend=self._config.shm_backend)
        capacity = self._config.serving.queue_capacity
        try:
            for shard_id in range(self._config.n_shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_main,
                    args=(shard_id, child_conn, self._config.host,
                          self._config.serving, handle.to_dict()),
                    name=f"repro-shard-{shard_id}", daemon=True)
                process.start()
                child_conn.close()
                self._shards.append(_Shard(shard_id, process, parent_conn,
                                           capacity))
            for shard in self._shards:
                await self._await_ready(shard)
            for shard in self._shards:
                shard.reader, shard.writer = await asyncio.open_connection(
                    self._config.host, shard.port)
                shard.reader_task = asyncio.get_running_loop().create_task(
                    self._read_responses(shard),
                    name=f"repro-router-read-{shard.shard_id}")
        except Exception:
            await self._terminate_fleet()
            raise
        finally:
            # Every shard has loaded (or startup failed); the published
            # bytes are no longer needed either way.
            unlink_artifact(handle)
        obs.set_gauge("serving.sharding.n_shards", self._config.n_shards)
        self._active_version = 1
        self._swaps.append((None, 1))
        return self

    async def _await_ready(self, shard: _Shard) -> None:
        deadline = time.monotonic() + self._config.spawn_timeout_s
        while True:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise ConfigurationError(
                    f"shard {shard.shard_id} did not report ready within "
                    f"{self._config.spawn_timeout_s}s")
            try:
                message = await asyncio.to_thread(
                    _recv_with_timeout, shard.conn, budget)
            except (TimeoutError, EOFError, OSError) as exc:
                raise ConfigurationError(
                    f"shard {shard.shard_id} failed during startup: "
                    f"{exc}") from exc
            if message[0] == "ready":
                shard.port = int(message[2])
                return
            if message[0] == "failed":
                raise ConfigurationError(
                    f"shard {shard.shard_id} failed during startup: "
                    f"{message[2]}")
            # "announce" frames are informational; keep waiting.

    async def _terminate_fleet(self) -> None:
        for shard in self._shards:
            if shard.reader_task is not None:
                shard.reader_task.cancel()
            if shard.writer is not None:
                shard.writer.close()
            if shard.process.is_alive():
                shard.process.terminate()
        for shard in self._shards:
            await asyncio.to_thread(shard.process.join, 5.0)
        self._shards = []

    async def __aenter__(self) -> "ShardedService":
        return await self._start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    async def _read_responses(self, shard: _Shard) -> None:
        """Demultiplex one shard connection: data, errors, control acks."""
        while True:
            line = await shard.reader.readline()
            if not line:
                break
            doc = json.loads(line.decode())
            if "ctl" in doc:
                shard.acks.put_nowait(doc)
                continue
            if "error" in doc:
                future = shard.pending.pop(int(doc.get("id", -1)), None)
                if future is not None and not future.done():
                    future.set_exception(ConfigurationError(
                        f"shard {shard.shard_id} rejected the request: "
                        f"{doc.get('error')}: {doc.get('message', '')}"))
                continue
            future = shard.pending.pop(int(doc["id"]), None)
            if future is not None and not future.done():
                future.set_result(ServeResponse.from_json(line.decode()))
        # EOF: during drain this is the expected goodbye; mid-traffic it
        # means the shard died — fail its in-flight futures loudly.
        for future in shard.pending.values():
            if not future.done():
                future.set_exception(ServiceClosedError(
                    f"shard {shard.shard_id} connection closed with "
                    f"requests in flight"))
        shard.pending.clear()

    def _route(self, key: Union[str, int]) -> _Shard:
        return self._shards[self._ring.shard_for(key)]

    def _validate(self, cues: np.ndarray, class_index: Optional[int],
                  request_id: int) -> np.ndarray:
        cues = np.asarray(cues, dtype=float).ravel()
        if cues.shape[0] != self._n_cues:
            raise ConfigurationError(
                f"request {request_id} has {cues.shape[0]} cues but the "
                f"active model expects {self._n_cues}")
        if class_index is None and not self._has_classifier:
            raise ConfigurationError(
                f"request {request_id} carries no class index and the "
                f"active model has no classifier")
        return cues

    async def submit(self, cues: np.ndarray,
                     class_index: Optional[int] = None,
                     request_id: Optional[int] = None,
                     wait: bool = False,
                     key: Optional[str] = None) -> ServeResponse:
        """Route one request to its shard; resolves with the response.

        ``key`` is the stream identity (appliance/user id); requests
        sharing a key always reach the same shard.  Without one the
        request id routes — uniform spread, no stream affinity.
        ``wait=True`` bounds in-flight per shard to the shard's queue
        capacity (closed-loop backpressure, never sheds); ``wait=False``
        forwards immediately and lets the shard's own admission control
        shed (the per-shard ε semantics).
        """
        future = await self._submit_future(cues, class_index=class_index,
                                           request_id=request_id,
                                           wait=wait, key=key)
        return await future

    async def serve_stream(self, requests: Iterable[ServeRequest]
                           ) -> List[ServeResponse]:
        """Serve a request stream with backpressure, in request order."""
        futures = [await self._submit_future(
            request.cues, class_index=request.class_index,
            request_id=request.request_id, wait=True,
            key=request.stream_key) for request in requests]
        return [await future for future in futures]

    async def _submit_future(self, cues: np.ndarray,
                             class_index: Optional[int],
                             request_id: Optional[int],
                             wait: bool, key: Optional[str]
                             ) -> "asyncio.Future[ServeResponse]":
        if not self._started:
            raise ServiceClosedError(
                "sharded service is not started; use 'async with' or "
                "await start()")
        if self._closed:
            raise ServiceClosedError(
                "sharded service is draining; no new requests are "
                "admitted")
        await self._admitting.wait()   # swap barrier: quiesced fleet
        if self._closed:
            raise ServiceClosedError(
                "sharded service is draining; no new requests are "
                "admitted")
        caller_id = (self.n_submitted if request_id is None
                     else int(request_id))
        cues = self._validate(cues, class_index, caller_id)
        wire_id = self._next_wire_id
        self._next_wire_id += 1
        shard = self._route(key if key is not None else caller_id)
        if wait:
            await shard.window.acquire()
        self.n_submitted += 1
        obs.inc("serving.sharding.routed_total")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServeResponse]" = loop.create_future()
        enqueued_s = time.perf_counter()
        resolved: "asyncio.Future[ServeResponse]" = loop.create_future()
        shard.pending[wire_id] = future
        shard.n_routed += 1
        self._in_flight += 1
        self._idle.clear()

        def _finish(done: "asyncio.Future[ServeResponse]") -> None:
            if wait:
                shard.window.release()
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()
            if resolved.cancelled():
                return
            try:
                response = done.result()
            except BaseException as exc:  # noqa: BLE001 - relay verbatim
                resolved.set_exception(exc)
                return
            if response.shed:
                self.n_shed += 1
            else:
                self.n_completed += 1
            resolved.set_result(dataclasses.replace(
                response, request_id=caller_id,
                latency_s=time.perf_counter() - enqueued_s))

        future.add_done_callback(_finish)
        request = ServeRequest(request_id=wire_id, cues=cues,
                               class_index=class_index, stream_key=key)
        shard.writer.write((request.to_json() + "\n").encode())
        await shard.writer.drain()
        return resolved

    # ------------------------------------------------------------------
    async def _control(self, shard: _Shard, frame: Dict[str, object]
                       ) -> dict:
        """One control round-trip on a shard connection (serialized)."""
        async with shard.ctl_lock:
            shard.writer.write((json.dumps(frame) + "\n").encode())
            await shard.writer.drain()
            reply = await asyncio.wait_for(
                shard.acks.get(), timeout=self._config.spawn_timeout_s)
        if not reply.get("ok"):
            raise ConfigurationError(
                f"shard {shard.shard_id} refused "
                f"{frame.get('ctl')!r}: {reply.get('error')}")
        return reply

    async def _quiesce(self) -> None:
        """Hold new admissions and wait for the fleet to go idle."""
        self._admitting.clear()
        await self._idle.wait()

    async def publish_and_activate(self, package, classifier=None,
                                   tag: str = "") -> int:
        """Coordinated fleet-wide hot swap; returns the new version.

        Two-phase with a quiesce barrier: (1) admissions pause and
        in-flight traffic resolves, (2) the artifact is published once
        into shared memory and **every** shard registers it (replicas
        agree on the version number), (3) every shard activates, (4)
        admissions resume and the segment is unlinked.  The fleet is
        never mixed-version for any admitted request: responses before
        the swap carry the old version, responses after carry the new
        one, on every shard.
        """
        if not self._started or self._closed:
            raise ServiceClosedError(
                "cannot swap: sharded service is not running")
        artifact = ShardArtifact(package=package, classifier=classifier,
                                 tag=tag)
        async with self._swap_lock:
            handle = publish_artifact(artifact,
                                      backend=self._config.shm_backend)
            try:
                await self._quiesce()
                replies = await asyncio.gather(*[
                    self._control(shard, {"ctl": "publish",
                                          "shm": handle.to_dict()})
                    for shard in self._shards])
                versions = {int(reply["version"]) for reply in replies}
                if len(versions) != 1:
                    raise ConfigurationError(
                        f"shard registries diverged: published versions "
                        f"{sorted(versions)}")
                version = versions.pop()
                await asyncio.gather(*[
                    self._control(shard, {"ctl": "activate",
                                          "version": version})
                    for shard in self._shards])
                self._swaps.append((self._active_version, version))
                self._active_version = version
                obs.inc("serving.sharding.swaps_total")
                obs.set_gauge("serving.sharding.active_version", version)
            finally:
                self._admitting.set()
                unlink_artifact(handle)
        return version

    async def stats(self) -> Dict[str, object]:
        """Aggregate router + per-shard counters (one control sweep)."""
        replies = await asyncio.gather(*[
            self._control(shard, {"ctl": "stats"})
            for shard in self._shards])
        per_shard = {shard.shard_id: dict(reply["stats"],
                                          n_routed=shard.n_routed)
                     for shard, reply in zip(self._shards, replies)}
        return {
            "n_shards": self._config.n_shards,
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_shed": self.n_shed,
            "in_flight": self.in_flight,
            "active_version": self._active_version,
            "shards": per_shard,
        }

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Quiesce, drain every shard, join the fleet (idempotent)."""
        if not self._started or self._drained:
            return
        self._drained = True
        self._closed = True
        self._admitting.set()   # release waiters into the closed check
        await self._idle.wait()
        for shard in self._shards:
            try:
                await self._control(shard, {"ctl": "drain"})
            except (ConfigurationError, ConnectionError,
                    asyncio.TimeoutError):
                pass   # a dead shard cannot ack; join below regardless
            if shard.writer is not None:
                shard.writer.close()
        for shard in self._shards:
            if shard.reader_task is not None:
                try:
                    await asyncio.wait_for(shard.reader_task, timeout=10)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    shard.reader_task.cancel()
            await asyncio.to_thread(shard.process.join, 10.0)
            if shard.process.is_alive():   # pragma: no cover - stuck child
                shard.process.terminate()
                await asyncio.to_thread(shard.process.join, 5.0)
            shard.conn.close()
        obs.inc("serving.sharding.drains_total")


# ----------------------------------------------------------------------
def serve_sharded_requests(artifact: ShardArtifact,
                           requests: Sequence[ServeRequest],
                           config: ShardingConfig = ShardingConfig()
                           ) -> List[ServeResponse]:
    """Synchronous convenience: serve a fixed request set and drain.

    The sharded sibling of :func:`~repro.serving.service.
    serve_requests` — spins up the fleet, streams *requests* with
    backpressure, drains, and returns responses in request order (the
    entry point behind ``repro serve --shards N`` stdin mode and the
    sharded equivalence tests).
    """

    async def _run() -> List[ServeResponse]:
        async with ShardedService(artifact, config=config) as service:
            return await service.serve_stream(requests)

    return asyncio.run(_run())


async def serve_sharded_socket(artifact: ShardArtifact, host: str,
                               port: int,
                               config: ShardingConfig = ShardingConfig(),
                               ready: Optional["asyncio.Event"] = None,
                               stop: Optional["asyncio.Event"] = None,
                               max_requests: Optional[int] = None,
                               announce=_announce) -> None:
    """Public JSONL endpoint fronting a sharded fleet.

    Like ``repro serve --listen``, but each request is consistent-hash
    forwarded to its shard.  No control ops: clients cannot swap or
    drain the fleet.  Lifecycle knobs match :func:`~repro.serving.
    transport.serve_socket`.
    """
    from .transport import serve_connections
    await serve_connections(
        ShardedService(artifact, config=config), host, port,
        describe=(f"({config.n_shards} shards, "
                  f"batch<={config.serving.max_batch}, "
                  f"queue={config.serving.queue_capacity}/shard)"),
        ready=ready, stop=stop, max_requests=max_requests, announce=announce)
