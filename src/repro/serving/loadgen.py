"""Seeded open-loop load generation against a serving instance.

The generator models the ROADMAP's "heavy traffic" question honestly:
arrivals follow a seeded Poisson process (exponential inter-arrival
times) that does **not** slow down when the service falls behind — the
open-loop discipline under which queueing, shedding and latency
percentiles mean something.  Request payloads are drawn (seeded) from
real AwarePen cue data, so the FIS sees the distribution it was trained
on.

Two transports share the same arrival schedule:

* :func:`run_loadgen` drives an in-process :class:`~repro.serving.
  service.InferenceService` (the bench path — no sockets, no pickling);
* :func:`run_loadgen_socket` speaks the JSONL protocol to a running
  ``repro serve --listen`` instance (the CI smoke path).

Either way the outcome is a :class:`LoadgenReport` with throughput,
exact latency percentiles and the shed rate — the rows
``benchmarks/bench_serving.py`` sweeps into ``BENCH_serving.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .protocol import ServeRequest, ServeResponse
from .service import InferenceService


@dataclasses.dataclass(frozen=True)
class LoadgenConfig:
    """One open-loop run: how many requests, how fast, which seed."""

    n_requests: int = 200
    rate_hz: float = 2000.0
    seed: int = 7
    with_class_index: bool = False

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate_hz <= 0.0:
            raise ConfigurationError(
                f"rate_hz must be > 0, got {self.rate_hz}")


@dataclasses.dataclass(frozen=True)
class LoadgenReport:
    """Outcome of one load-generation run.

    ``n_unanswered`` counts admitted requests that never produced a
    response — the drain guarantee says this must be zero, and the CI
    smoke asserts it.
    """

    config: LoadgenConfig
    n_sent: int
    n_responses: int
    n_shed: int
    wall_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    n_epsilon: int
    n_accepted: int
    versions_seen: Tuple[int, ...]

    @property
    def n_unanswered(self) -> int:
        return self.n_sent - self.n_responses

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_sent if self.n_sent else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.n_responses / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        def _ms(value_s: float) -> Optional[float]:
            # A fully shed (or fully unanswered) run has no served
            # latencies; its percentiles are NaN.  ``json.dumps`` would
            # emit a bare ``NaN`` token — not valid JSON — so the report
            # carries ``null`` instead and n_responses/n_shed tell the
            # honest story.
            if not np.isfinite(value_s):
                return None
            return round(value_s * 1e3, 4)

        return {
            "n_requests": self.config.n_requests,
            "rate_hz": self.config.rate_hz,
            "seed": self.config.seed,
            "n_sent": self.n_sent,
            "n_responses": self.n_responses,
            "n_unanswered": self.n_unanswered,
            "n_shed": self.n_shed,
            "shed_rate": round(self.shed_rate, 6),
            "wall_s": round(self.wall_s, 6),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_p50_ms": _ms(self.latency_p50_s),
            "latency_p95_ms": _ms(self.latency_p95_s),
            "latency_p99_ms": _ms(self.latency_p99_s),
            "latency_mean_ms": _ms(self.latency_mean_s),
            "n_epsilon": self.n_epsilon,
            "n_accepted": self.n_accepted,
            "versions_seen": list(self.versions_seen),
        }

    def to_text(self) -> str:
        def _fmt(value_s: float) -> str:
            if not np.isfinite(value_s):
                return "-"
            return f"{value_s * 1e3:.2f}"

        lines = [
            f"loadgen: {self.n_sent} sent at {self.config.rate_hz:.0f}/s "
            f"(seed {self.config.seed})",
            f"  responses {self.n_responses}, shed {self.n_shed} "
            f"({self.shed_rate * 100:.1f}%), unanswered {self.n_unanswered}",
            f"  throughput {self.throughput_rps:.0f} rps over "
            f"{self.wall_s * 1e3:.1f} ms",
            f"  latency p50/p95/p99 = {_fmt(self.latency_p50_s)} / "
            f"{_fmt(self.latency_p95_s)} / "
            f"{_fmt(self.latency_p99_s)} ms",
            f"  accepted {self.n_accepted}, epsilon {self.n_epsilon}, "
            f"versions {list(self.versions_seen) or '-'}",
        ]
        return "\n".join(lines)


def make_workload(config: LoadgenConfig, cue_pool: np.ndarray,
                  class_pool: Optional[np.ndarray] = None
                  ) -> Tuple[List[ServeRequest], np.ndarray]:
    """Seeded requests plus their open-loop arrival offsets (seconds).

    Cue vectors are drawn with replacement from *cue_pool*; when the
    workload carries class indices they are drawn from *class_pool* row
    for row.  Everything depends only on ``config.seed``.
    """
    cue_pool = np.asarray(cue_pool, dtype=float)
    if cue_pool.ndim != 2 or cue_pool.shape[0] == 0:
        raise ConfigurationError(
            f"cue_pool must be a non-empty 2-D array, got {cue_pool.shape}")
    rng = np.random.default_rng(config.seed)
    rows = rng.integers(0, cue_pool.shape[0], size=config.n_requests)
    arrivals = np.cumsum(rng.exponential(1.0 / config.rate_hz,
                                         size=config.n_requests))
    requests = []
    for k, row in enumerate(rows):
        class_index: Optional[int] = None
        if config.with_class_index:
            if class_pool is None:
                raise ConfigurationError(
                    "with_class_index=True needs a class_pool")
            class_index = int(np.asarray(class_pool).ravel()[int(row)])
        requests.append(ServeRequest(request_id=k, cues=cue_pool[int(row)],
                                     class_index=class_index))
    return requests, arrivals


def summarize(config: LoadgenConfig, responses: List[ServeResponse],
              n_sent: int, wall_s: float) -> LoadgenReport:
    """Fold raw responses into a :class:`LoadgenReport` (exact quantiles)."""
    served = [r for r in responses if not r.shed]
    latencies = np.array([r.latency_s for r in served], dtype=float)
    if latencies.size:
        p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])
        mean = float(np.mean(latencies))
    else:
        p50 = p95 = p99 = mean = float("nan")
    versions = sorted({r.package_version for r in served
                       if r.package_version is not None})
    return LoadgenReport(
        config=config,
        n_sent=n_sent,
        n_responses=len(responses),
        n_shed=sum(1 for r in responses if r.shed),
        wall_s=wall_s,
        latency_p50_s=float(p50),
        latency_p95_s=float(p95),
        latency_p99_s=float(p99),
        latency_mean_s=mean,
        n_epsilon=sum(1 for r in served if r.is_error_state),
        n_accepted=sum(1 for r in served if r.accepted),
        versions_seen=tuple(versions),
    )


async def drive_service(service: InferenceService,
                        requests: List[ServeRequest],
                        arrivals: np.ndarray) -> List[ServeResponse]:
    """Open-loop drive: submit each request at its arrival offset.

    Submission never waits for earlier responses (tasks carry them), so
    a slow service accumulates queue depth and, past the admission
    bound, shed responses — exactly what the bench wants to observe.
    """
    start = time.perf_counter()
    tasks: List["asyncio.Task[ServeResponse]"] = []
    for request, at_s in zip(requests, arrivals):
        delay = (start + float(at_s)) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(
            service.submit(request.cues, class_index=request.class_index,
                           request_id=request.request_id)))
    return list(await asyncio.gather(*tasks))


def run_loadgen(service_factory, config: LoadgenConfig,
                cue_pool: np.ndarray,
                class_pool: Optional[np.ndarray] = None) -> LoadgenReport:
    """Run one seeded open-loop load test against an in-process service.

    *service_factory* is a zero-argument callable building the service
    (an :class:`InferenceService`, or a stand-in with its ``async with``
    and ``submit`` surface), constructed inside the event loop so its
    queues bind to the right loop.  The timed window covers submissions
    and their responses only: startup and teardown are excluded.
    """
    requests, arrivals = make_workload(config, cue_pool, class_pool)

    async def _run() -> Tuple[List[ServeResponse], float]:
        service = service_factory()
        async with service:
            t0 = time.perf_counter()
            responses = await drive_service(service, requests, arrivals)
            wall_s = time.perf_counter() - t0
        return responses, wall_s

    responses, wall_s = asyncio.run(_run())
    return summarize(config, responses, n_sent=len(requests), wall_s=wall_s)


async def _drive_socket(host: str, port: int, requests: List[ServeRequest],
                        arrivals: np.ndarray, timeout_s: float
                        ) -> Tuple[List[ServeResponse], float]:
    reader, writer = await asyncio.open_connection(host, port)
    responses: List[ServeResponse] = []

    async def _read_all() -> None:
        while len(responses) < len(requests):
            line = await reader.readline()
            if not line:
                return
            responses.append(ServeResponse.from_json(line.decode()))

    t0 = time.perf_counter()
    reader_task = asyncio.get_running_loop().create_task(_read_all())
    start = time.perf_counter()
    for request, at_s in zip(requests, arrivals):
        delay = (start + float(at_s)) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer.write((request.to_json() + "\n").encode())
        await writer.drain()
    writer.write_eof()
    try:
        await asyncio.wait_for(reader_task, timeout=timeout_s)
    except asyncio.TimeoutError:
        reader_task.cancel()
    wall_s = time.perf_counter() - t0
    writer.close()
    await writer.wait_closed()
    return responses, wall_s


def run_loadgen_socket(host: str, port: int, config: LoadgenConfig,
                       cue_pool: np.ndarray,
                       class_pool: Optional[np.ndarray] = None,
                       timeout_s: float = 30.0) -> LoadgenReport:
    """Drive a running ``repro serve --listen`` instance over TCP JSONL."""
    requests, arrivals = make_workload(config, cue_pool, class_pool)
    responses, wall_s = asyncio.run(
        _drive_socket(host, port, requests, arrivals, timeout_s))
    return summarize(config, responses, n_sent=len(requests), wall_s=wall_s)
