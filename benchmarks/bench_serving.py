"""Experiment ``serving`` — micro-batching inference service under load.

Open-loop, seeded load generation (:mod:`repro.serving.loadgen`) against
the in-process :class:`~repro.serving.service.InferenceService`, swept
across the **worker count** — concurrent batch consumers on the queue.
Batches are arrival-driven: a free worker dispatches whatever has
arrived, so there is no wait knob to sweep.

A final overload run shrinks the admission queue until the service
sheds, demonstrating the ε load-shedding path under honest open-loop
pressure.  Every run lands in ``BENCH_serving.json`` at the repo root
(throughput, exact latency percentiles, shed rate), diffable across
PRs like ``BENCH_throughput.json``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core.degradation import DegradationPolicy
from repro.core.persistence import QualityPackage
from repro.serving import (InferenceService, LoadgenConfig, ModelRegistry,
                           ServingConfig, run_loadgen)

#: Requests per swept configuration (seeded; arrival process included).
N_REQUESTS = 300
RATE_HZ = 2500.0
SEED = 7

#: The sweep grid: queue workers.
WORKERS = (1, 2)

#: Overload run: a deliberately tiny admission queue at a hot rate.
SHED_QUEUE = 8
SHED_RATE_HZ = 20000.0


def _report_path() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "BENCH_serving.json"
    return Path.cwd() / "BENCH_serving.json"


class ServingReporter:
    """Collects per-configuration runs into ``BENCH_serving.json``."""

    def __init__(self) -> None:
        self.runs: List[Dict[str, object]] = []

    def add(self, kind: str, config: ServingConfig, report) -> None:
        row: Dict[str, object] = {
            "kind": kind,
            "max_batch": config.max_batch,
            "n_workers": config.n_workers,
            "queue_capacity": config.queue_capacity,
        }
        row.update(report.as_dict())
        self.runs.append(row)

    def write(self, path: Path) -> Path:
        document = {
            "schema": 1,
            "environment": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
            },
            "runs": self.runs,
        }
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path


@pytest.fixture(scope="module")
def serving_report():
    reporter = ServingReporter()
    yield reporter
    reporter.write(_report_path())


@pytest.fixture(scope="module")
def registry(experiment):
    package = QualityPackage.from_calibration(
        experiment.augmented.quality, experiment.calibration)
    reg = ModelRegistry()
    reg.publish_and_activate(package, classifier=experiment.classifier,
                             tag="bench")
    return reg


def _run(registry, cue_pool, serving_config, n_requests=N_REQUESTS,
         rate_hz=RATE_HZ):
    config = LoadgenConfig(n_requests=n_requests, rate_hz=rate_hz,
                           seed=SEED)
    return run_loadgen(
        lambda: InferenceService(registry, config=serving_config),
        config, cue_pool)


@pytest.mark.parametrize("n_workers", WORKERS)
def test_worker_sweep(registry, experiment, serving_report, report,
                      n_workers):
    """Throughput/latency for each worker count.

    The invariants every cell must hold: zero unanswered requests (the
    drain guarantee) and zero sheds (the queue is sized for the load).
    """
    config = ServingConfig(n_workers=n_workers)
    out = _run(registry, experiment.material.analysis.cues, config)
    serving_report.add("sweep", config, out)
    report.row("serving", f"workers={n_workers}", "-",
               f"{out.throughput_rps:.0f} rps, "
               f"p95={out.latency_p95_s * 1e3:.2f}ms")
    assert out.n_unanswered == 0
    assert out.n_shed == 0
    assert out.n_responses == N_REQUESTS


def test_overload_sheds_but_answers_everything(registry, experiment,
                                               serving_report, report):
    """A tiny queue at a hot rate must shed — with ε responses, not
    hangs: every request is still answered immediately."""
    config = ServingConfig(queue_capacity=SHED_QUEUE, max_batch=8,
                           policy=DegradationPolicy.REJECT)
    out = _run(registry, experiment.material.analysis.cues, config,
               rate_hz=SHED_RATE_HZ)
    serving_report.add("overload", config, out)
    report.row("serving", f"overload (queue={SHED_QUEUE})",
               "epsilon load-shedding",
               f"shed {out.shed_rate * 100:.0f}%, "
               f"{out.n_unanswered} unanswered")
    assert out.n_unanswered == 0
    assert out.n_shed > 0
    # Shed responses carry the paper's error state, not a fabricated q.
    assert out.n_responses == N_REQUESTS
