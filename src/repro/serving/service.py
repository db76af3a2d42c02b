"""The asyncio in-process inference service.

One :class:`InferenceService` is the serving half of a deployed CQM
pipeline: requests enter through a *bounded* admission queue, are
grouped into micro-batches of whatever has arrived
(:mod:`repro.serving.batching`), hit the batched hot paths of the
active :class:`~repro.serving.registry.VersionedModel` (classifier
``predict_indices`` + CQM ``measure_batch``) and leave through the
stateful ε-gate (:class:`~repro.core.degradation.GracefulDegrader`).

Design invariants, pinned by ``tests/serving``:

* **Equivalence** — the queue is FIFO, batches are contiguous runs of
  it, and the gate is applied in arrival order, so for any fixed request
  stream the responses are bit-identical to the direct
  ``predict_indices`` → ``measure_batch`` → ``decide_batch`` pipeline,
  for every batching configuration and with observability on or off.
* **Admission control** — when the queue is full, an open-loop
  ``submit`` is *shed*: it returns immediately with the paper's ε error
  state (quality ``None``, gate action ``reject``) instead of queueing
  unboundedly.  Closed-loop callers pass ``wait=True`` to get
  backpressure instead.
* **Hot swap** — a worker resolves the active model once per batch, so
  swapping the registry mid-traffic never tears a batch: every response
  is attributable to exactly one package version, and no in-flight
  request is dropped.
* **Graceful drain** — :meth:`drain` stops admissions, waits until
  every admitted request has resolved (a closed-loop submitter blocked
  on a full queue included), then stops the workers; nothing in flight
  is lost.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from .. import observability as obs
from ..core.degradation import DegradationPolicy, GateAction, GracefulDegrader
from ..exceptions import ConfigurationError, ServiceClosedError
from ..observability.metrics import linear_edges
from .batching import BatchingConfig, extend_batch
from .protocol import ServeRequest, ServeResponse
from .registry import ModelRegistry, VersionedModel

#: Histogram edges for micro-batch sizes (1 .. 128 in unit-ish bins).
BATCH_SIZE_EDGES = linear_edges(0.0, 128.0, n_bins=64)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Operating knobs of one :class:`InferenceService`.

    Parameters
    ----------
    queue_capacity:
        Admission bound; a full queue sheds open-loop submissions.
    max_batch:
        Most requests in one micro-batch (see :class:`BatchingConfig`).
    policy:
        ε-degradation policy of the response gate.
    n_workers:
        Concurrent batch-collecting tasks on the event loop.  With the
        default ``1`` the gate order equals arrival order exactly; with
        more, batches are gated in completion order.
    """

    queue_capacity: int = 256
    max_batch: int = 32
    policy: Union[DegradationPolicy, str] = DegradationPolicy.REJECT
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}")
        BatchingConfig(max_batch=self.max_batch)  # the batcher's own rule

    @property
    def batching(self) -> BatchingConfig:
        return BatchingConfig(max_batch=self.max_batch)


class _Pending:
    """One admitted request awaiting its response future."""

    __slots__ = ("request", "future", "enqueued_s")

    def __init__(self, request: ServeRequest,
                 future: "asyncio.Future[ServeResponse]") -> None:
        self.request = request
        self.future = future
        self.enqueued_s = time.perf_counter()


class InferenceService:
    """Micro-batching, quality-gated inference over a model registry.

    Parameters
    ----------
    registry:
        Must hold an active model (``publish_and_activate`` first).
    config:
        Operating knobs; see :class:`ServingConfig`.
    degrader:
        Optional pre-built ε-gate.  When omitted one is created from the
        active model's calibrated threshold and ``config.policy``, and
        its threshold *follows* the active model across hot-swaps; a
        caller-supplied degrader keeps its own threshold pinned.
    """

    def __init__(self, registry: ModelRegistry,
                 config: ServingConfig = ServingConfig(),
                 degrader: Optional[GracefulDegrader] = None) -> None:
        model = registry.current()  # fails loudly on an empty registry
        self._registry = registry
        self._config = config
        self._pin_threshold = degrader is not None
        self._degrader = degrader if degrader is not None else (
            model.make_degrader(config.policy))
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=config.queue_capacity)
        self._workers: List["asyncio.Task[None]"] = []
        self._closed = False
        self._started = False
        self._drained = False
        self._drain_done: Optional["asyncio.Event"] = None
        self._settled = asyncio.Event()  # set once closed and in_flight == 0
        # Plain counters, kept regardless of the observability switch.
        self.n_submitted = 0
        self.n_shed = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_batches = 0

    # ------------------------------------------------------------------
    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Admitted requests whose response has not resolved yet."""
        return (self.n_submitted - self.n_shed - self.n_completed
                - self.n_failed)

    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Spawn the worker tasks (idempotent; needs a running loop)."""
        if self._started:
            return self
        self._started = True
        for worker_id in range(self._config.n_workers):
            self._workers.append(
                asyncio.get_running_loop().create_task(
                    self._worker(), name=f"repro-serve-{worker_id}"))
        return self

    async def __aenter__(self) -> "InferenceService":
        return self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    def hot_swap(self, version: int) -> VersionedModel:
        """Activate a published version; in-flight batches are unaffected."""
        return self._registry.activate(version)

    # ------------------------------------------------------------------
    async def submit(self, cues: np.ndarray,
                     class_index: Optional[int] = None,
                     request_id: Optional[int] = None,
                     wait: bool = False) -> ServeResponse:
        """Serve one request; resolves when its micro-batch completes.

        ``wait=False`` (open loop) sheds immediately on a full queue;
        ``wait=True`` (closed loop) applies backpressure instead.
        """
        request = ServeRequest(
            request_id=self.n_submitted if request_id is None
            else int(request_id),
            cues=cues, class_index=class_index)
        future = await self._enqueue(request, wait=wait)
        return await future

    async def serve_stream(self, requests: Iterable[ServeRequest]
                           ) -> List[ServeResponse]:
        """Serve a request stream with backpressure, in arrival order."""
        futures = [await self._enqueue(request, wait=True)
                   for request in requests]
        return [await future for future in futures]

    async def _enqueue(self, request: ServeRequest, wait: bool
                       ) -> "asyncio.Future[ServeResponse]":
        if self._closed:
            raise ServiceClosedError(
                "service is draining; no new requests are admitted")
        if not self._started:
            raise ServiceClosedError(
                "service is not started; call start() or use 'async with'")
        model = self._registry.current()
        if request.cues.shape[0] != model.quality.n_cues:
            raise ConfigurationError(
                f"request {request.request_id} has {request.cues.shape[0]} "
                f"cues but the active model expects {model.quality.n_cues}")
        if request.class_index is None and model.classifier is None:
            raise ConfigurationError(
                f"request {request.request_id} carries no class index and "
                f"the active model has no classifier")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServeResponse]" = loop.create_future()
        pending = _Pending(request, future)
        self.n_submitted += 1
        obs.inc("serving.requests_total")
        if wait:
            try:
                await self._queue.put(pending)
            except asyncio.CancelledError:
                # Never queued: resolve it, or a drain would wait for it.
                future.cancel()
                self.n_failed += 1
                self._settle_if_drained()
                raise
        else:
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self.n_shed += 1
                obs.inc("serving.shed_total")
                future.set_result(self._shed_response(pending))
        return future

    def _shed_response(self, pending: _Pending) -> ServeResponse:
        """Admission-control refusal: the paper's ε error state."""
        return ServeResponse(
            request_id=pending.request.request_id,
            class_index=None, class_name=None, quality=None,
            action=GateAction.REJECT, degraded=True, shed=True,
            package_version=None, batch_size=0,
            latency_s=time.perf_counter() - pending.enqueued_s)

    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        # The only suspension point is the blocking get: a batch is taken
        # and processed without yielding, and drain cancels the worker
        # here once nothing is in flight.
        batching = self._config.batching
        while True:
            batch = extend_batch(self._queue, batching,
                                 [await self._queue.get()])
            completed = self.n_completed
            try:
                self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 - fail the batch, not the service
                obs.inc("serving.batch_errors_total")
                self.n_failed += len(batch) - (self.n_completed - completed)
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            self._settle_if_drained()

    def _settle_if_drained(self) -> None:
        if self._closed and not self.in_flight:
            self._settled.set()

    def _process_batch(self, batch: List[_Pending]) -> None:
        model = self._registry.current()
        cues = np.vstack([p.request.cues for p in batch])
        given = [p.request.class_index for p in batch]
        indices, qualities = _batch_compute(model, cues, given)
        # Gate + resolve synchronously (no awaits): the stateful degrader
        # sees decisions in exact batch order even with several workers.
        now = time.perf_counter()
        observing = obs.STATE.enabled
        with obs.trace("serving.batch", version=model.version,
                       size=len(batch)):
            if not self._pin_threshold:
                self._degrader.threshold = model.threshold
            latencies = []
            for pending, index, quality in zip(batch, indices, qualities):
                q = None if np.isnan(quality) else float(quality)
                decision = self._degrader.decide(q)
                latency = now - pending.enqueued_s
                latencies.append(latency)
                response = ServeResponse(
                    request_id=pending.request.request_id,
                    class_index=int(index),
                    class_name=_class_name(model, int(index)),
                    quality=q,
                    action=decision.action,
                    degraded=decision.degraded,
                    shed=False,
                    package_version=model.version,
                    batch_size=len(batch),
                    latency_s=latency)
                if not pending.future.done():
                    pending.future.set_result(response)
                self.n_completed += 1
        self.n_batches += 1
        if observing:
            registry = obs.get_registry()
            registry.inc("serving.batches_total")
            registry.inc("serving.responses_total", len(batch))
            registry.observe("serving.batch_size", len(batch),
                             edges=BATCH_SIZE_EDGES)
            registry.observe_many("serving.latency_s", latencies)
            registry.set_gauge("serving.queue_depth", self._queue.qsize())
            registry.set_gauge("serving.active_version", model.version)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admissions, serve everything admitted, stop the workers.

        Idempotent: an explicit ``drain()`` followed by the ``async
        with`` exit (or any repeated call) flushes and counts exactly
        once — the first call does the work, later calls return
        immediately.
        """
        if not self._started:
            return
        if self._drained:
            # A drain is already done or in flight; wait it out instead
            # of re-running the flush (and double-counting the metric).
            await self._drain_done.wait()
            return
        # Flag first: this coroutine does not await between the check
        # and the set, so concurrent drain() calls on the same loop
        # cannot both pass the guard.
        self._drained = True
        self._drain_done = asyncio.Event()
        self._closed = True
        if self.in_flight:
            await self._settled.wait()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        obs.inc("serving.drains_total")
        self._drain_done.set()


def _class_name(model: VersionedModel, index: int) -> Optional[str]:
    if model.classifier is None:
        return None
    try:
        return model.classifier.class_for_index(index).name
    except KeyError:
        return None


def _batch_compute(model: VersionedModel, cues: np.ndarray,
                   given: Sequence[Optional[int]]
                   ) -> "tuple[np.ndarray, np.ndarray]":
    """Pure per-batch model compute: class indices + CQM qualities.

    Runs the classifier only for rows that did not bring their own class
    identifier; when the whole batch needs prediction the call covers
    every row at once (the common case).  Row-wise results are
    independent of how requests are batched, which the equivalence tests
    pin.
    """
    indices = np.array([-1 if g is None else int(g) for g in given],
                       dtype=float)
    missing = np.array([g is None for g in given], dtype=bool)
    if np.any(missing):
        assert model.classifier is not None  # checked at admission
        predicted = model.classifier.predict_indices(cues[missing])
        indices[missing] = predicted.astype(float)
    qualities = model.quality.measure_batch(cues, indices)
    return indices.astype(int), qualities


def serve_requests(registry: ModelRegistry,
                   requests: Sequence[ServeRequest],
                   config: ServingConfig = ServingConfig(),
                   degrader: Optional[GracefulDegrader] = None
                   ) -> List[ServeResponse]:
    """Synchronous convenience: serve a fixed request set and drain.

    Spins up an event loop, streams *requests* through a fresh service
    with backpressure, drains, and returns the responses in request
    order — the entry point behind ``repro serve``'s stdin mode and the
    equivalence tests.
    """

    async def _run() -> List[ServeResponse]:
        service = InferenceService(registry, config=config,
                                   degrader=degrader)
        async with service:
            return await service.serve_stream(requests)

    return asyncio.run(_run())
