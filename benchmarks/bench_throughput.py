"""Experiment ``throughput`` — batched and parallel hot-path performance.

The runtime bench (`bench_runtime.py`) guards the paper's per-window
real-time claim; this bench guards the *production* claim layered on top
of it: batched cue extraction, batched CQM queries and the parallel
execution backends must beat their per-sample/serial ancestors — and the
parallel backends must do so while returning bit-identical results.

Every measurement lands in ``BENCH_throughput.json`` at the repo root
(via :mod:`repro.evaluation.throughput`) so the numbers are diffable
across PRs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.anfis.training import HybridTrainer
from repro.evaluation.throughput import (ThroughputReporter, best_of,
                                         default_report_path)
from repro.fuzzy.tsk import TSKSystem
from repro.parallel import ParallelExecutor
from repro.sensors.cues import AWAREPEN_CUES
from repro.stats.bootstrap import bootstrap_threshold
from repro.verify import reference

#: The acceptance workload: a 100 Hz x 60 s, 3-axis accelerometer trace
#: cut into the AwarePen's 1 s windows with 0.5 s hop.
SAMPLE_RATE_HZ = 100
DURATION_S = 60
WINDOW = 100
HOP = 50

#: Floor asserted for batched-vs-generator cue extraction.
MIN_CUE_SPEEDUP = 5.0

#: ANFIS training workload: a quality-FIS-shaped hybrid-learning run.
ANFIS_N = 512
ANFIS_INPUTS = 4
ANFIS_RULES = 6
ANFIS_EPOCHS = 120

#: Floor asserted for the cached trainer's epochs/s against the
#: pre-optimization loop-kernel trainer measured in the same run.
MIN_ANFIS_SPEEDUP = 10.0

_MULTICORE = (os.cpu_count() or 1) >= 2


@pytest.fixture(scope="module")
def throughput():
    reporter = ThroughputReporter()
    yield reporter
    reporter.write(default_report_path())


@pytest.fixture(scope="module")
def signal():
    rng = np.random.default_rng(0)
    return rng.normal(size=(SAMPLE_RATE_HZ * DURATION_S, 3))


def test_batched_cue_extraction_speedup(signal, throughput, report):
    """Vectorized sliding windows must be >= 5x the generator loop."""
    t_generator = best_of(
        lambda: AWAREPEN_CUES.extract_all(signal, WINDOW, HOP,
                                          batched=False),
        repeats=5, min_time=0.02)
    t_batched = best_of(
        lambda: AWAREPEN_CUES.extract_all(signal, WINDOW, HOP),
        repeats=5, min_time=0.02)

    starts, batched = AWAREPEN_CUES.extract_all(signal, WINDOW, HOP)
    _, reference = AWAREPEN_CUES.extract_all(signal, WINDOW, HOP,
                                             batched=False)
    assert np.allclose(batched, reference, rtol=1e-10, atol=1e-12)

    n_windows = len(starts)
    speedup = t_generator / t_batched
    throughput.record("cue_extraction_generator", n_windows / t_generator,
                      "windows/s", note=f"{WINDOW}x3 window, hop {HOP}")
    throughput.record("cue_extraction_batched", n_windows / t_batched,
                      "windows/s", note=f"{WINDOW}x3 window, hop {HOP}")
    throughput.record("cue_extraction_speedup", speedup, "x",
                      note="batched vs per-window generator")
    report.row("throughput", "batched cue extraction",
               ">= 5x generator path", f"{speedup:.1f}x")
    assert speedup >= MIN_CUE_SPEEDUP


def test_batched_cue_extraction_hop1(signal, throughput):
    """Dense (hop 1) extraction — the worst case for the generator."""
    t_batched = best_of(
        lambda: AWAREPEN_CUES.extract_all(signal, WINDOW, 1),
        repeats=3, min_time=0.02)
    n_windows = signal.shape[0] - WINDOW + 1
    throughput.record("cue_extraction_batched_hop1",
                      n_windows / t_batched, "windows/s",
                      note=f"{WINDOW}x3 window, hop 1")


def test_batched_cqm_throughput(experiment, throughput, report):
    """measure_batch must dominate the per-sample measure loop."""
    quality = experiment.augmented.quality
    base = experiment.material.analysis.cues
    reps = int(np.ceil(4096 / base.shape[0]))
    cues = np.tile(base, (reps, 1))[:4096]
    predicted = experiment.classifier.predict_indices(cues).astype(float)

    t_batch = best_of(lambda: quality.measure_batch(cues, predicted),
                      repeats=5, min_time=0.02)

    loop_cues = cues[:256]
    loop_pred = predicted[:256]

    def per_sample_loop():
        for row, idx in zip(loop_cues, loop_pred):
            quality.measure(row, int(idx))

    t_loop = best_of(per_sample_loop, repeats=3, min_time=0.02) / 256

    batch_rate = cues.shape[0] / t_batch
    loop_rate = 1.0 / t_loop
    throughput.record("cqm_batched", batch_rate, "samples/s",
                      note=f"batch of {cues.shape[0]}")
    throughput.record("cqm_per_sample", loop_rate, "samples/s")
    throughput.record("cqm_batch_speedup", batch_rate / loop_rate, "x")
    report.row("throughput", "batched CQM",
               "batch >> per-sample", f"{batch_rate / loop_rate:.0f}x")
    assert batch_rate > loop_rate


def _labeled(experiment):
    dataset = experiment.material.analysis
    predicted = experiment.classifier.predict_indices(dataset.cues)
    q = experiment.augmented.quality.measure_batch(
        dataset.cues, predicted.astype(float))
    correct = predicted == dataset.labels
    usable = ~np.isnan(q)
    return q[usable], correct[usable]


def test_parallel_bootstrap_speedup_and_equivalence(experiment, throughput,
                                                    report):
    """1000-resample bootstrap: parallel must *exactly* match serial, and
    beat it on wall clock whenever there is more than one core."""
    q, c = _labeled(experiment)

    t0 = time.perf_counter()
    serial = bootstrap_threshold(q, c, n_resamples=1000, seed=0,
                                 parallel="serial")
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = bootstrap_threshold(q, c, n_resamples=1000, seed=0,
                                   parallel="process")
    t_parallel = time.perf_counter() - t0

    # Bit-identical confidence interval, not merely close.
    assert (serial.low, serial.high, serial.point, serial.n_failed) == \
        (parallel.low, parallel.high, parallel.point, parallel.n_failed)

    speedup = t_serial / t_parallel
    throughput.record("bootstrap_serial_1000", t_serial, "s")
    throughput.record("bootstrap_process_1000", t_parallel, "s",
                      note=f"{os.cpu_count()} cores")
    throughput.record("bootstrap_parallel_speedup", speedup, "x",
                      note="process backend vs serial, 1000 resamples")
    report.row("throughput", "parallel bootstrap (1000 resamples)",
               "beats serial on >= 2 cores",
               f"{speedup:.2f}x on {os.cpu_count()} core(s)")
    if _MULTICORE:
        assert speedup > 1.0


def test_parallel_crossval_equivalence_and_wallclock(experiment, throughput,
                                                     report):
    """Process-backend scenario CV matches serial bit for bit."""
    from repro.core import ConstructionConfig
    from repro.datasets import evaluation_script, generate_dataset
    from repro.evaluation import ScenarioCrossValidator

    def factory(seed):
        return generate_dataset(
            lambda rng: evaluation_script(rng, blocks=2), seed=seed)

    config = ConstructionConfig(epochs=10)

    def run(backend):
        cv = ScenarioCrossValidator(experiment.classifier, factory,
                                    n_folds=2, config=config,
                                    parallel=backend)
        t0 = time.perf_counter()
        out = cv.run()
        return out, time.perf_counter() - t0

    serial, t_serial = run("serial")
    parallel, t_parallel = run("process")
    assert serial.folds == parallel.folds

    speedup = t_serial / t_parallel
    throughput.record("crossval_serial_2folds", t_serial, "s")
    throughput.record("crossval_process_2folds", t_parallel, "s",
                      note=f"{os.cpu_count()} cores")
    throughput.record("crossval_parallel_speedup", speedup, "x",
                      note="process backend vs serial, 2 folds")
    report.row("throughput", "parallel crossval",
               "bit-identical folds",
               f"{speedup:.2f}x on {os.cpu_count()} core(s)")


@pytest.fixture(scope="module")
def anfis_workload():
    """Seeded hybrid-learning workload: data plus a template system."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(ANFIS_N, ANFIS_INPUTS))
    y = (rng.random(ANFIS_N) > 0.5).astype(float)
    means = rng.normal(size=(ANFIS_RULES, ANFIS_INPUTS))
    sigmas = rng.uniform(0.5, 2.0, size=(ANFIS_RULES, ANFIS_INPUTS))
    coefficients = rng.normal(size=(ANFIS_RULES, ANFIS_INPUTS + 1))
    template = TSKSystem(means, sigmas, coefficients, order=1)
    return x, y, template


def _loop_epoch(system, x, y, lr=0.05):
    """One hybrid-learning epoch on the pre-optimization loop kernels.

    This is the per-rule/per-sample scalar-loop trainer the vectorized
    kernels replaced (the kernels live on as the verify
    oracle in ``repro.verify.reference``): loop gradients, a loop-built
    design matrix, the SVD solve, and a loop forward pass for the epoch
    RMSE.  Measured in the same run as the optimized rows so the
    recorded speedup never compares across machines.
    """
    d_means, d_sigmas, _ = reference.premise_gradients_loop(
        system.means, system.sigmas, system.coefficients, system.order,
        x, y)
    system.means -= lr * d_means
    system.sigmas -= lr * d_sigmas
    np.maximum(system.sigmas, 1e-4, out=system.sigmas)
    a = reference.lse_design_matrix(system.means, system.sigmas,
                                    system.order, x)
    solution = np.linalg.lstsq(a, y, rcond=None)[0]
    system.coefficients = solution.reshape(system.n_rules,
                                           system.n_inputs + 1)
    out = reference.tsk_evaluate(system.means, system.sigmas,
                                 system.coefficients, system.order, x)
    return float(np.sqrt(np.mean((out - y) ** 2)))


def _train_rate(workload, use_cache=True, epochs=ANFIS_EPOCHS, repeats=3):
    """Best-of epochs/s of a full HybridTrainer run."""
    x, y, template = workload
    best = np.inf
    for _ in range(repeats):
        trainer = HybridTrainer(epochs=epochs, use_cache=use_cache,
                                patience=epochs)
        system = template.copy()
        t0 = time.perf_counter()
        trainer.train(system, x, y)
        best = min(best, time.perf_counter() - t0)
    return epochs / best


def test_anfis_train_throughput(anfis_workload, throughput, report):
    """Cached hybrid learning must be >= 10x the loop trainer.

    Rows recorded per trainer: epochs/s and samples/s (epochs/s times
    the training-set size).  The 10x gate compares the numpy kernels
    with the epoch cache against the pre-vectorization loop-kernel
    trainer measured in this same run; ``anfis_train_unfused``
    (vectorized kernels, no epoch cache) is recorded alongside so the
    cache's own gain is visible.
    """
    x, y, template = anfis_workload
    note = (f"n={ANFIS_N}, {ANFIS_RULES} rules, {ANFIS_INPUTS} inputs, "
            f"order 1, {ANFIS_EPOCHS} epochs")

    # Pre-optimization baseline: scalar-loop kernels, 2 epochs timed.
    loop_system = template.copy()
    t_loop = best_of(lambda: _loop_epoch(loop_system, x, y),
                     repeats=3, min_time=0.0)
    loops_rate = 1.0 / t_loop

    rates = {
        "unfused": _train_rate(anfis_workload, use_cache=False),
        "numpy": _train_rate(anfis_workload),
    }

    throughput.record("anfis_train_baseline_loops", loops_rate, "epochs/s",
                      note=f"{note}; scalar-loop reference kernels")
    for name, rate in rates.items():
        throughput.record(f"anfis_train_{name}", rate, "epochs/s",
                          note=note)
        throughput.record(f"anfis_train_{name}_samples", rate * ANFIS_N,
                          "samples/s", note=note)

    speedup = rates["numpy"] / loops_rate
    cache_speedup = rates["numpy"] / rates["unfused"]
    throughput.record("anfis_train_speedup", speedup, "x",
                      note="cached numpy trainer vs loop-kernel trainer, "
                           "same run")
    throughput.record("anfis_train_cache_speedup", cache_speedup, "x",
                      note="epoch cache on vs off")
    report.row("throughput", "ANFIS hybrid training",
               ">= 10x loop-kernel trainer",
               f"{speedup:.0f}x cached "
               f"({rates['numpy']:.0f} epochs/s), cache +"
               f"{(cache_speedup - 1) * 100:.0f}%")
    assert speedup >= MIN_ANFIS_SPEEDUP
    assert cache_speedup > 1.0


def test_anfis_train_cached_bit_identity(anfis_workload):
    """The epoch cache must not move a single bit of the trained system."""
    x, y, template = anfis_workload

    def run(use_cache):
        system = template.copy()
        HybridTrainer(epochs=15, use_cache=use_cache).train(
            system, x, y, x_check=x[:128], y_check=y[:128])
        return system

    cached, uncached = run(True), run(False)
    assert np.array_equal(cached.means, uncached.means)
    assert np.array_equal(cached.sigmas, uncached.sigmas)
    assert np.array_equal(cached.coefficients, uncached.coefficients)


def test_parallel_multiseed_equivalence_and_wallclock(throughput, report):
    """Thread-backend multi-seed replication matches serial bit for bit."""
    from repro.core import ConstructionConfig
    from repro.evaluation import MultiSeedRunner

    config = ConstructionConfig(epochs=10)
    t0 = time.perf_counter()
    serial = MultiSeedRunner(seeds=(7, 11), config=config,
                             parallel="serial").run()
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    threaded = MultiSeedRunner(seeds=(7, 11), config=config,
                               parallel="thread").run()
    t_thread = time.perf_counter() - t0

    assert serial.per_seed == threaded.per_seed
    speedup = t_serial / t_thread
    throughput.record("multiseed_serial_2seeds", t_serial, "s")
    throughput.record("multiseed_thread_2seeds", t_thread, "s")
    throughput.record("multiseed_thread_speedup", speedup, "x",
                      note="thread backend vs serial, 2 seeds")
    report.row("throughput", "parallel multiseed",
               "bit-identical aggregates", f"{speedup:.2f}x wall clock")
