"""The benchmark's metrics: end-to-end ones and per-layer ones.

``BENCHMARK.json`` lists the same names, units and directions; the
tests check that the two agree.  Each per-layer metric also names the
end-to-end metric it should move and on which workload -- written down
before any change is measured against it.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS = ("office-eventbus", "office-broker", "serve-jsonl")

#: name -> (unit, better, bound, meaning per workload).  The office
#: metrics (one process, CPU-bound) are reported at reference host
#: speed: times divided and rates multiplied by the run's host slowdown,
#: measured by a probe between repetitions; the report lines show the
#: raw values too.  The serve-jsonl metrics are reported as measured.
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": (
        "s", "lower", 0.25,
        "office-*: model build, spec generation and log directory "
        "creation; serve-jsonl: process spawn until the server announces "
        "it is listening. Median of several set-ups per run."),
    "windows_per_s": (
        "1/s", "higher", 0.25,
        "office-*: windows through the appliance graph per second at the "
        "stated input size (median over repetitions); serve-jsonl: "
        "capacity, the highest ladder rate (one window per request) with "
        "p99 within the limit, zero sheds and no growing backlog."),
    "latency_p50_ms": (
        "ms", "lower", 0.25,
        "office-*: per-window decision time, the gap between consecutive "
        "event deliveries seen by a benchmark subscriber; serve-jsonl: "
        "latency from due time at the nominal rate. Median over chunks "
        "(office: repetitions; serve: 1000 requests) of the chunk p50."),
    "latency_p99_ms": (
        "ms", "lower", 0.25,
        "as latency_p50_ms, 99th percentile (reported only with at least "
        "ten samples beyond it), per chunk of about 1000 samples "
        "(office: repetitions; serve: 1000 requests); the lower quartile "
        "over chunks, which discounts chunks hit by a machine stall."),
    "peak_rss_mb": (
        "MiB", "lower", 0.1,
        "peak resident memory of the system under test: the benchmark "
        "process for office-*, the server process for serve-jsonl."),
}

#: name -> (unit, better, target end-to-end metric and workload)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "sensors.windows": (
        "count", "higher", "input size of office-*; constant per seed"),
    "sensors.collect_us_per_window": (
        "us", "lower", "windows_per_s on office-eventbus (~25%), less on "
        "office-broker; none on serve-jsonl"),
    "classifiers.classify_calls": (
        "count", "lower", "windows_per_s on office-*; falls if windows are "
        "micro-batched"),
    "classifiers.classify_us_per_call": (
        "us", "lower", "windows_per_s on office-* (~50% of "
        "office-eventbus); serve-jsonl stays flat"),
    "classifiers.predict_rows_per_call": (
        "count", "higher", "windows_per_s on office-*; serve-jsonl batch "
        "size"),
    "core.quality.qualify_us_per_call": (
        "us", "lower", "windows_per_s on office-*"),
    "core.quality.measure_batch_us_per_row": (
        "us", "lower", "windows_per_s (capacity) on serve-jsonl, small"),
    "core.quality.epsilon_share": (
        "share", "lower", "none; a behaviour check (q = eps share)"),
    "appliances.process_window_self_us": (
        "us", "lower", "windows_per_s on office-eventbus (~3%)"),
    "appliances.publish_us": (
        "us", "lower", "windows_per_s on office-eventbus; office-broker "
        "via the broker publish"),
    "appliances.camera_accept_share": (
        "share", "higher", "none; a behaviour check (gated camera)"),
    "bus.broker_publish_us": (
        "us", "lower", "windows_per_s and latency_p99_ms on "
        "office-broker only"),
    "bus.log_append_us": (
        "us", "lower", "windows_per_s on office-broker only"),
    "bus.fsyncs": (
        "count", "lower", "windows_per_s and latency_p99_ms on "
        "office-broker only"),
    "bus.events_per_fsync": (
        "count", "higher", "windows_per_s on office-broker only"),
    "bus.redeliveries": (
        "count", "lower", "windows_per_s on office-broker only"),
    "bus.dedupe_dropped": (
        "count", "lower", "windows_per_s on office-broker only"),
    "bus.replay_read_us_per_event": (
        "us", "lower", "replay_events_per_s on office-broker (report "
        "line)"),
    "scenarios.run_self_s": (
        "s", "lower", "windows_per_s on office-*"),
    "scenarios.model_build_s": (
        "s", "lower", "setup_s on office-*"),
    "serving.queue_wait_p50_ms": (
        "ms", "lower", "latency_p50_ms on serve-jsonl"),
    "serving.queue_wait_p99_ms": (
        "ms", "lower", "latency_p99_ms on serve-jsonl"),
    "serving.batch_size_mean": (
        "count", "higher", "windows_per_s (capacity) and latency_p99_ms "
        "on serve-jsonl"),
    "serving.batches": (
        "count", "lower", "windows_per_s (capacity) on serve-jsonl"),
    "serving.compute_us_per_batch": (
        "us", "lower", "windows_per_s (capacity) and latency_p99_ms on "
        "serve-jsonl"),
    "serving.gate_us": (
        "us", "lower", "windows_per_s (capacity) on serve-jsonl, small"),
    "serving.shed": (
        "count", "lower", "windows_per_s (capacity) on serve-jsonl"),
    "serving.decode_us": (
        "us", "lower", "windows_per_s (capacity) and latency_p99_ms on "
        "serve-jsonl only"),
    "serving.encode_us": (
        "us", "lower", "windows_per_s (capacity) and latency_p99_ms on "
        "serve-jsonl only"),
    "serving.transport_ms": (
        "ms", "lower", "latency_p50_ms and latency_p99_ms on serve-jsonl "
        "only"),
    "trace.overhead_share": (
        "share", "lower", "none; traced over untraced time, minus one"),
    "trace.additivity_gap_share": (
        "share", "lower", "none; must stay within the stated tolerance"),
}


def zero_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a layer a workload does
    not exercise (it did no work there)."""
    return {name: 0.0 for name in PER_LAYER}
