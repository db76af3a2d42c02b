"""The serving-path workload: ``serve-jsonl``.

A server process (``repro serve --listen``, or the benchmark's launcher
for traced and planted runs) is driven over one TCP connection by a
seeded open-loop Poisson generator in this process.  Every request is
timed from the moment it was due, so a generator that runs late or a
server stall shows in the latency of every request behind it.

The run has two phases: a nominal phase at ``NOMINAL_RPS`` (the
latency metrics) and a fixed ladder of rates (the capacity metric).  A
ladder step meets the capacity conditions when its p99 is within
``LATENCY_LIMIT_MS``, it shed nothing, every request was answered and
its backlog did not grow; a step on which the generator itself ran late
by more than ``LATENESS_SHARE`` of the limit is invalid and cannot
count.  Every answered, unshed response must equal the direct
``serve_requests`` pipeline's response for the same request.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import common
from .layers import zero_layer_metrics
from .spans import additivity, layer_table, read_spans, render_table, \
    write_spans

NOMINAL_RPS = 2000.0
#: Nominal-phase latencies are summarised per chunk of this many
#: requests, half a second at the nominal rate (see
#: :func:`common.chunked_percentiles`).
NOMINAL_CHUNK = 1000
#: Unscored requests at the nominal rate before anything is measured.
WARMUP_REQUESTS = 1000
#: Ladder rates in requests per second, lowest first, and the requests
#: sent per step (enough for ten beyond the p99).
LADDER_RPS = (4000, 6000, 7000, 8000, 9000, 10000, 11000, 12000, 13500,
              15000)
STEP_REQUESTS = 1500
#: Pause between phases, so one step's queue does not leak into the next.
PAUSE_S = 0.15
LATENCY_LIMIT_MS = 25.0
#: A step is invalid when the generator's p99 lateness exceeds this
#: share of the latency limit.
LATENESS_SHARE = 0.4
#: Backlog grows when the median latency of a step's last fifth exceeds
#: twice that of its first fifth plus this slack.
BACKLOG_SLACK_MS = 1.0
#: A request not answered within this long after its due time failed.
RESPONSE_TIMEOUT_S = 2.0
#: Share of ``--seconds`` spent at the nominal rate.  The rest climbs
#: the ladder as many times as it fits (at least three); a rate counts
#: as met when more than half of its steps meet every condition.
NOMINAL_SHARE = 0.3
MIN_CLIMBS = 3
#: Server spawns timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Largest accepted gap between summed span self time and the summed
#: request latencies of the traced phase.
ADDITIVITY_TOLERANCE = 0.02
#: The model the server trains at start-up (the paper's seed).
MODEL_SEED = 7

LAUNCHER = Path(__file__).with_name("serve_launcher.py")


def input_size(seconds: float) -> Dict[str, object]:
    nominal_s, climbs = phase_plan(seconds)
    return {"nominal_rps": NOMINAL_RPS, "nominal_s": nominal_s,
            "warmup_requests": WARMUP_REQUESTS,
            "ladder_rps": list(LADDER_RPS), "step_requests": STEP_REQUESTS,
            "ladder_climbs": climbs,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "lateness_share": LATENESS_SHARE}


def phase_plan(seconds: float) -> Tuple[float, int]:
    """Seconds at the nominal rate and the number of ladder climbs."""
    nominal = seconds * NOMINAL_SHARE
    climb_s = sum(STEP_REQUESTS / r + PAUSE_S for r in LADDER_RPS)
    return nominal, max(MIN_CLIMBS, int((seconds - nominal) // climb_s))


# ----------------------------------------------------------------------
def cue_pool(seed: int) -> np.ndarray:
    """AwarePen cue vectors generated from the workload seed."""
    from repro.datasets.generator import make_awarepen_material
    material = make_awarepen_material(seed=seed)
    return np.vstack([material.analysis.cues, material.quality_check.cues,
                      material.quality_train.cues])


def make_phase(rng: np.random.Generator, pool: np.ndarray, rate: float,
               n: int, first_id: int) -> Dict[str, Any]:
    """*n* seeded Poisson arrivals at *rate*, with payloads."""
    from repro.serving.protocol import ServeRequest
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    rows = rng.integers(0, pool.shape[0], size=n)
    requests = [ServeRequest(request_id=first_id + k, cues=pool[int(r)])
                for k, r in enumerate(rows)]
    return {"rate": rate, "due": due, "requests": requests,
            "lines": [(r.to_json() + "\n").encode() for r in requests]}


# ----------------------------------------------------------------------
class Server:
    """One server process and its announced address."""

    def __init__(self, argv: List[str]) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} "
                               f"{self.proc.stderr.read()[-2000:]}")
        host, _, port = line.split()[2].rpartition(":")
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> Optional[float]:
        return common.pid_rss_peak_mb(self.proc.pid)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM, then wait; kill if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


def server_argv(launcher: bool, spans: Optional[Path] = None,
                delay: bool = False) -> List[str]:
    if not launcher:
        return [sys.executable, "-m", "repro", "serve", "--listen",
                "127.0.0.1:0", "--seed", str(MODEL_SEED)]
    argv = [sys.executable, str(LAUNCHER)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if delay:
        argv.append("--plant-delay")
    return argv


def start_servers(argv: List[str]
                  ) -> Tuple[Server, List[float], List[float]]:
    """Spawn ``SETUP_REPEATS`` servers one after another; keep the last.

    Returns the server, the spawn times and host-speed probes, each
    probe taken while no server runs.
    """
    times: List[float] = []
    probes: List[float] = []
    server: Optional[Server] = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        probes.append(common.probe_s())
        server = Server(argv)
        times.append(server.setup_s)
    return server, times, probes


# ----------------------------------------------------------------------
async def _drive(host: str, port: int, phases: Sequence[Dict[str, Any]]
                 ) -> None:
    """Send every phase open-loop on one connection; record times."""
    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=1 << 20)
    received: Dict[int, Tuple[float, bytes]] = {}
    expected = sum(len(p["requests"]) for p in phases)

    async def read_all() -> None:
        while len(received) < expected:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            rid = json.loads(line).get("id")
            if isinstance(rid, int):
                received[rid] = (now, line)

    reader_task = asyncio.get_running_loop().create_task(read_all())
    try:
        for phase in phases:
            due, lines = phase["due"], phase["lines"]
            n = len(lines)
            sent = np.empty(n)
            start = time.perf_counter() + 0.02
            i = 0
            while i < n:
                now = time.perf_counter()
                wait = start + due[i] - now
                if wait > 0:
                    await asyncio.sleep(wait)
                    continue
                j = i
                while j < n and start + due[j] <= now:
                    j += 1
                writer.write(b"".join(lines[i:j]))
                sent[i:j] = time.perf_counter()
                i = j
                await writer.drain()
            phase["start"] = start
            phase["sent"] = sent
            ids = [r.request_id for r in phase["requests"]]
            limit = start + due[-1] + RESPONSE_TIMEOUT_S
            while (time.perf_counter() < limit
                   and not all(k in received for k in ids)):
                await asyncio.sleep(0.005)
            phase["received"] = {k: received[k] for k in ids
                                 if k in received}
            await asyncio.sleep(PAUSE_S)
        writer.write_eof()
    finally:
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def drive(server: Server, phases: Sequence[Dict[str, Any]]) -> None:
    """Drive *phases* with this process's garbage collector parked.

    The generator holds every planned request; a full collection over
    them would stall sending and receiving for tens of milliseconds and
    charge that to the server.  Collection resumes after the drive.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        asyncio.run(_drive(server.host, server.port, phases))
    finally:
        gc.enable()
        gc.unfreeze()


# ----------------------------------------------------------------------
def build_registry():
    """The registry ``repro serve`` builds: the freshly trained paper
    pipeline (seed ``MODEL_SEED``) with its calibrated quality package."""
    from repro.core.persistence import QualityPackage
    from repro.experiment import run_awarepen_experiment
    from repro.serving import ModelRegistry

    result = run_awarepen_experiment(seed=MODEL_SEED)
    registry = ModelRegistry()
    registry.publish_and_activate(
        QualityPackage.from_calibration(result.augmented.quality,
                                        result.calibration),
        classifier=result.classifier, tag=f"trained:seed={MODEL_SEED}")
    return registry


def reference_keys(requests: Sequence[Any]) -> Dict[int, tuple]:
    """Direct ``serve_requests`` responses for *requests*, in order."""
    from repro.serving import ServingConfig, serve_requests

    responses = serve_requests(build_registry(), list(requests),
                               config=ServingConfig(max_batch=256,
                                                    queue_capacity=4096))
    return {r.request_id: r.key() for r in responses}


def score_phase(phase: Dict[str, Any], reference: Dict[int, tuple]
                ) -> Dict[str, Any]:
    """Latency from due time, lateness, sheds, failures and backlog."""
    from repro.serving.protocol import ServeResponse

    due_abs = phase["start"] + phase["due"]
    lateness_ms = (phase["sent"] - due_abs) * 1e3
    latencies: List[float] = []
    transport: List[float] = []
    shed = failed = mismatched = 0
    for k, request in enumerate(phase["requests"]):
        got = phase["received"].get(request.request_id)
        if got is None:
            failed += 1
            latencies.append(math.inf)
            continue
        t_recv, line = got
        try:
            response = ServeResponse.from_json(line.decode())
        except (KeyError, ValueError):
            failed += 1  # an error reply
            latencies.append(math.inf)
            continue
        if response.shed:
            shed += 1
            latencies.append(math.inf)
            continue
        if response.key() != reference.get(request.request_id):
            mismatched += 1
        latency_s = t_recv - due_abs[k]
        if latency_s > RESPONSE_TIMEOUT_S:
            failed += 1  # answered, but too late to count
            latencies.append(math.inf)
            continue
        latencies.append(latency_s * 1e3)
        transport.append((t_recv - phase["sent"][k]) * 1e3
                         - response.latency_s * 1e3)
    n = len(latencies)
    fifth = max(1, n // 5)
    head = sorted(latencies[:fifth])[fifth // 2]
    tail = sorted(latencies[-fifth:])[fifth // 2]
    chunks = [latencies[i:i + NOMINAL_CHUNK]
              for i in range(0, n - NOMINAL_CHUNK + 1, NOMINAL_CHUNK)]
    out = {
        "rate": phase["rate"], "n": n, "shed": shed,
        "failed": failed + mismatched, "mismatched": mismatched,
        "p50_ms": common.quantile(latencies, 0.5),
        "p99_ms": common.percentile_or_none(latencies, 0.99),
        "lateness_p99_ms": common.quantile(lateness_ms, 0.99),
        "backlog": tail > 2.0 * head + BACKLOG_SLACK_MS,
        "transport_ms": (common.quantile(transport, 0.5)
                         if transport else 0.0),
        "chunked": common.chunked_percentiles(chunks) if chunks else None,
    }
    out["valid"] = (out["lateness_p99_ms"]
                    <= LATENESS_SHARE * LATENCY_LIMIT_MS)
    out["meets"] = (out["valid"] and out["p99_ms"] is not None
                    and out["p99_ms"] <= LATENCY_LIMIT_MS
                    and shed == 0 and out["failed"] == 0
                    and not out["backlog"])
    return out


def pick_capacity(steps: Sequence[Dict[str, Any]]) -> float:
    """The highest ladder rate met by more than half of its valid steps.

    A step meets when its p99 is within the limit, it shed nothing,
    failed nothing and its backlog did not grow.  An invalid step (the
    generator ran late) does not vote.  Each rate is stepped once per
    climb; the majority keeps a stall of the machine during one step
    from deciding the capacity.  Returns 0 when no rate is met.
    """
    votes: Dict[float, List[bool]] = {}
    for step in steps:
        if step.get("valid", True):
            votes.setdefault(float(step["rate"]), []).append(
                bool(step["meets"]))
    met = [rate for rate, v in votes.items() if 2 * sum(v) > len(v)]
    return max(met) if met else 0.0


def plan_phases(seed: int, seconds: float) -> List[Dict[str, Any]]:
    """Warm-up, nominal phase and ladder climbs, all from *seed*."""
    nominal_s, climbs = phase_plan(seconds)
    rng = np.random.default_rng([seed, 4242])
    pool = cue_pool(seed)
    phases: List[Dict[str, Any]] = []

    def add(kind: str, rate: float, n: int) -> None:
        first = sum(len(p["requests"]) for p in phases)
        phases.append(make_phase(rng, pool, rate, n, first))
        phases[-1]["kind"] = kind

    add("warmup", NOMINAL_RPS, WARMUP_REQUESTS)
    add("nominal", NOMINAL_RPS, int(round(NOMINAL_RPS * nominal_s)))
    for climb in range(climbs):
        for rate in LADDER_RPS:
            add(f"climb{climb}", rate, STEP_REQUESTS)
    return phases


def brief(score: Dict[str, Any]) -> Dict[str, Any]:
    """A scored phase with plain, rounded numbers (for the report)."""
    def plain(v: Any) -> Any:
        if isinstance(v, tuple):
            return [plain(x) for x in v]
        if isinstance(v, (float, np.floating)):
            return round(float(v), 4)
        return bool(v) if isinstance(v, np.bool_) else v
    return {k: plain(v) for k, v in score.items()}


def ladder_mark(score: Dict[str, Any]) -> str:
    """``ok``, or why a step failed: invalid/shed/failed/backlog/p99."""
    if score["meets"]:
        return "ok"
    if not score["valid"]:
        return "late-generator"
    for key in ("shed", "failed"):
        if score[key]:
            return key
    return "backlog" if score["backlog"] else "p99"


# ----------------------------------------------------------------------
def run_untraced(seed: int, seconds: float, plant: Optional[str] = None
                 ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    phases = plan_phases(seed, seconds)
    argv = server_argv(launcher=plant == "server-delay",
                       delay=plant == "server-delay")
    server, setup, probes = start_servers(argv)
    try:
        drive(server, phases)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    reference = reference_keys([r for p in phases for r in p["requests"]])
    scored = [score_phase(p, reference) for p in phases]
    nominal = scored[1]
    steps = scored[2:]
    climbs: Dict[str, List[Dict[str, Any]]] = {}
    for phase, score in zip(phases[2:], steps):
        climbs.setdefault(phase["kind"], []).append(score)
    # Reported as measured, not at reference host speed: two processes
    # share the two vCPUs here, and a probe taken from one of them did
    # not track the server's speed.  ``host_slowdown`` is shown only.
    metrics = {
        "setup_s": common.median(setup),
        "windows_per_s": pick_capacity(steps),
        "latency_p50_ms": nominal["chunked"][0],
        "latency_p99_ms": nominal["chunked"][1],
        "peak_rss_mb": rss if rss is not None else math.nan,
    }
    # The workload's operations are the nominal-phase requests; the
    # ladder probes capacity, where sheds above it are expected.  A
    # mismatched or unanswered response on any step is still a failure.
    attempted = nominal["n"]
    failed = (nominal["shed"] + nominal["failed"]
              + sum(s["failed"] for s in scored[0:1] + steps))
    report = {
        "host_slowdown": common.slowdown(probes),
        "nominal": brief(nominal),
        "ladder": [" ".join(f"{s['rate']:.0f}:{ladder_mark(s)}" for s in c)
                   for c in climbs.values()],
        "samples": {"setup_s": len(setup), "windows_per_s": len(steps),
                    "latency_p50_ms": nominal["n"],
                    "latency_p99_ms": nominal["n"], "peak_rss_mb": 1},
        "serve_capacity_rps": metrics["windows_per_s"],
        "gates": [],
    }
    if metrics["windows_per_s"] <= 0:
        report["gates"].append("no ladder step met the capacity conditions")
    return metrics, attempted, failed, report


# ----------------------------------------------------------------------
def run_traced(seed: int, seconds: float, plant: Optional[str] = None
               ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """The nominal phase against the plain server, then against the
    launcher with spans; per-layer numbers join both sides on the
    request id, overhead compares the two phases."""
    rng = np.random.default_rng([seed, 4242])
    pool = cue_pool(seed)
    template = make_phase(rng, pool, NOMINAL_RPS,
                          int(NOMINAL_RPS * seconds * NOMINAL_SHARE), 0)
    plain = dict(template)
    traced = dict(template)
    span_path = common.RUN_DIR / f"spans-serve-server-{seed}.json"
    common.RUN_DIR.mkdir(parents=True, exist_ok=True)
    server = Server(server_argv(launcher=False))
    try:
        drive(server, [plain])
    finally:
        server.stop()
    server = Server(server_argv(launcher=True, spans=span_path,
                                delay=plant == "server-delay"))
    try:
        drive(server, [traced])
    finally:
        server.stop()
    reference = reference_keys(template["requests"])
    s_plain = score_phase(plain, reference)
    s_traced = score_phase(traced, reference)
    server_spans = read_spans(span_path)
    metrics, table, check = serve_layers(
        traced, s_traced, server_spans,
        common.RUN_DIR / f"spans-serve-jsonl-{seed}.json")
    metrics["trace.overhead_share"] = (s_traced["p50_ms"]
                                       / s_plain["p50_ms"] - 1.0)
    metrics["trace.additivity_gap_share"] = check["gap_share"]
    failed = (s_plain["failed"] + s_plain["shed"] + s_traced["failed"]
              + s_traced["shed"])
    report = {
        "table": table,
        "untraced_nominal": brief(s_plain),
        "traced_nominal": brief(s_traced),
        "additivity": check,
        "additivity_tolerance": ADDITIVITY_TOLERANCE,
        "overhead_share": metrics["trace.overhead_share"],
        "gates": [],
    }
    if check["gap_share"] > ADDITIVITY_TOLERANCE:
        report["gates"].append(
            f"span self times add up to {check['self_sum_s']:.4f} s, "
            f"request latencies to {check['wall_s']:.4f} s: gap "
            f"{check['gap_share']:.3%} > {ADDITIVITY_TOLERANCE:.0%}")
        failed += 1
    return metrics, s_plain["n"] + s_traced["n"], failed, report


def serve_layers(phase: Dict[str, Any], scored: Dict[str, Any],
                 server_spans: List[list], out: Path
                 ) -> Tuple[Dict[str, float], str, Dict[str, float]]:
    """Join client and server spans per request (written to *out*);
    per-layer metrics, the rendered table and the additivity check."""
    by_name: Dict[str, List[list]] = {}
    for span in server_spans:
        by_name.setdefault(span[0], []).append(span)
    per_request: Dict[str, Dict[int, list]] = {
        name: {s[4]: s for s in by_name.get(name, [])}
        for name in ("serving.decode", "serving.submit", "serving.encode")}
    # Batches: the collect span lists its requests and when each was
    # enqueued; the batch lasts until its last gate decision.
    batch_end: Dict[int, float] = {}
    for name in ("classifiers.predict_indices", "core.quality.measure_batch",
                 "serving.gate"):
        for s in by_name.get(name, []):
            batch_end[s[4]] = max(batch_end.get(s[4], 0.0), s[2])
    queued: Dict[int, Tuple[float, float, float]] = {}
    batch_sizes = []
    for s in by_name.get("serving.collect", []):
        ids, enq = s[5]["ids"], s[5]["enqueued"]
        batch_sizes.append(len(ids))
        for rid, t_enq in zip(ids, enq):
            queued[rid] = (t_enq, s[2], batch_end.get(s[4], s[2]))

    spans: List[list] = []
    waits = []
    due_abs = phase["start"] + phase["due"]
    for k, request in enumerate(phase["requests"]):
        rid = request.request_id
        got = phase["received"].get(rid)
        if got is None:
            continue
        root = len(spans)
        spans.append(["client.request", float(due_abs[k]), got[0], -1, rid,
                      {}])
        spans.append(["client.lateness", float(due_abs[k]),
                      float(phase["sent"][k]), root, rid,
                      {"wait_s": float(phase["sent"][k] - due_abs[k])}])
        for name in ("serving.decode", "serving.encode"):
            s = per_request[name].get(rid)
            if s is not None:
                spans.append([name, s[1], s[2], root, rid, {}])
        sub = per_request["serving.submit"].get(rid)
        if sub is not None:
            parent = len(spans)
            spans.append(["serving.submit", sub[1], sub[2], root, rid, {}])
            if rid in queued:
                t_enq, t_start, t_end = queued[rid]
                waits.append((t_start - t_enq) * 1e3)
                spans.append(["serving.queue_wait", t_enq, t_start, parent,
                              rid, {"wait_s": t_start - t_enq}])
                spans.append(["serving.batch", t_start, t_end, parent, rid,
                              {}])
    write_spans(out, spans, meta={"workload": "serve-jsonl",
                                  "tree": "per request, client root"})
    roots_total = sum(s[2] - s[1] for s in spans if s[3] < 0)
    check = additivity(spans, roots_total)

    def mean_us(name: str) -> float:
        items = by_name.get(name, [])
        return (sum(s[2] - s[1] for s in items) / len(items) * 1e6
                if items else 0.0)

    measure = by_name.get("core.quality.measure_batch", [])
    predict = by_name.get("classifiers.predict_indices", [])
    rows = sum(s[5].get("rows", 0) for s in measure)
    per_batch: Dict[int, float] = {}
    for s in measure + predict:
        per_batch[s[4]] = per_batch.get(s[4], 0.0) + (s[2] - s[1])
    compute = list(per_batch.values())
    docs = [json.loads(line) for _, line in phase["received"].values()]
    served = [d for d in docs if d.get("shed") is False]
    n_eps = sum(1 for d in served if d.get("q") is None)
    n_served = len(served)
    metrics = zero_layer_metrics()
    metrics.update({
        "classifiers.predict_rows_per_call":
            (sum(s[5].get("rows", 0) for s in predict) / len(predict)
             if predict else 0.0),
        "core.quality.measure_batch_us_per_row":
            (sum(s[2] - s[1] for s in measure) / rows * 1e6
             if rows else 0.0),
        "core.quality.epsilon_share": n_eps / n_served if n_served else 0.0,
        "serving.queue_wait_p50_ms": (common.quantile(waits, 0.5)
                                      if waits else 0.0),
        "serving.queue_wait_p99_ms": (
            common.percentile_or_none(waits, 0.99) or 0.0),
        "serving.batch_size_mean": (sum(batch_sizes) / len(batch_sizes)
                                    if batch_sizes else 0.0),
        "serving.batches": float(len(batch_sizes)),
        "serving.compute_us_per_batch": (sum(compute) / len(compute) * 1e6
                                         if compute else 0.0),
        "serving.gate_us": mean_us("serving.gate"),
        "serving.shed": float(scored["shed"]),
        "serving.decode_us": mean_us("serving.decode"),
        "serving.encode_us": mean_us("serving.encode"),
        "serving.transport_ms": scored["transport_ms"],
    })
    extra = {
        "client.request": {
            "failed_or_retried": f"{scored['shed']} shed, "
                                 f"{scored['failed']} failed",
            "useful_over_attempted":
                (scored["n"] - scored["shed"] - scored["failed"])
                / scored["n"]},
    }
    batch_rows = layer_table(
        [s for s in server_spans if s[0] in (
            "serving.collect", "classifiers.predict_indices",
            "core.quality.measure_batch", "serving.gate")])
    table = (render_table(layer_table(spans, extra), roots_total)
             + "\nserver batch spans (self% of summed request latency):\n"
             + render_table(batch_rows, roots_total))
    return metrics, table, check
