#!/usr/bin/env python3
"""Serving: hot-swap a re-calibrated quality package under live traffic.

The paper's deployment story ends at "flash the trained FIS onto the
appliance".  ``repro.serving`` finishes it: the trained
``QualityPackage`` is published into a versioned ``ModelRegistry`` and
served by an asyncio ``InferenceService`` — bounded admission queue,
micro-batched inference on the batched hot paths, and the paper's ε
error state as the load-shedding answer.

This example shows the part that is hard to get right by hand: swapping
in a re-calibrated package **while requests are in flight**, without
dropping a single one.  The service resolves the active model once per
micro-batch, so every response is attributable to exactly one version
and no batch is ever torn across two calibrations:

1. serve open-loop traffic against package v1 (the factory calibration);
2. mid-traffic, adapt a copy of the quality FIS with online RLS
   feedback (``OnlineQualityAdapter``) and ``publish_and_activate`` it
   as v2 — a single atomic reference swap;
3. keep the traffic flowing, then drain and audit: every request
   answered, each response stamped with the version that computed it.

Run:  python examples/serving.py
"""

import asyncio

import numpy as np

from repro.core import FeedbackRecord, OnlineQualityAdapter
from repro.core.persistence import (QualityPackage, quality_from_dict,
                                    quality_to_dict)
from repro.experiment import run_awarepen_experiment
from repro.serving import (InferenceService, LoadgenConfig, ModelRegistry,
                           ServingConfig, make_workload, summarize)


def adapted_package(package, classifier, dataset, n_feedback=150):
    """A v2 package: same threshold, consequents refined by online RLS."""
    quality = quality_from_dict(quality_to_dict(package.quality))
    adapter = OnlineQualityAdapter(quality, forgetting=0.999, warmup=10)
    predicted = classifier.predict_indices(dataset.cues[:n_feedback])
    correct = predicted == dataset.labels[:n_feedback]
    for i in range(len(predicted)):
        adapter.feedback(FeedbackRecord(cues=dataset.cues[i],
                                        class_index=int(predicted[i]),
                                        was_correct=bool(correct[i])))
    return QualityPackage(quality=quality, threshold=package.threshold,
                          right=package.right, wrong=package.wrong), adapter


async def drive_with_swap(registry, v2_package, classifier, requests,
                          arrivals):
    """Open-loop traffic with a hot-swap fired halfway through."""
    service = InferenceService(registry,
                               config=ServingConfig(max_batch=16))
    swap_at = len(requests) // 2
    async with service:
        start = asyncio.get_running_loop().time()
        tasks = []
        for k, (request, at_s) in enumerate(zip(requests, arrivals)):
            delay = (start + float(at_s)) - asyncio.get_running_loop().time()
            if delay > 0:
                await asyncio.sleep(delay)
            if k == swap_at:
                version = registry.publish_and_activate(
                    v2_package, classifier=classifier, tag="online-adapted")
                print(f"  hot-swap at request {k}: v{version} active, "
                      f"{service.in_flight} requests in flight")
            tasks.append(asyncio.get_running_loop().create_task(
                service.submit(request.cues,
                               class_index=request.class_index,
                               request_id=request.request_id)))
        responses = list(await asyncio.gather(*tasks))
    return service, responses


def main() -> None:
    # Factory calibration: train, package, publish as v1.
    experiment = run_awarepen_experiment(seed=7)
    package = QualityPackage.from_calibration(
        experiment.augmented.quality, experiment.calibration)
    registry = ModelRegistry()
    registry.publish_and_activate(package, classifier=experiment.classifier,
                                  tag="factory")
    print(f"v1 published: {package.quality.n_rules} rules, "
          f"s = {package.threshold:.3f}")

    # The re-calibrated v2, prepared offline while v1 keeps serving.
    v2, adapter = adapted_package(package, experiment.classifier,
                                  experiment.material.analysis)
    print(f"v2 prepared: {adapter.n_feedback} RLS feedback items absorbed "
          f"(recent |residual| = {adapter.recent_residual():.3f})")

    # Live traffic with the swap in the middle.
    config = LoadgenConfig(n_requests=300, rate_hz=2500.0, seed=11)
    requests, arrivals = make_workload(
        config, experiment.material.analysis.cues)
    print(f"driving {config.n_requests} open-loop requests at "
          f"{config.rate_hz:.0f}/s ...")
    service, responses = asyncio.run(drive_with_swap(
        registry, v2, experiment.classifier, requests, arrivals))

    # Audit: nothing dropped, every response owned by exactly one version.
    report = summarize(config, responses, n_sent=len(requests),
                       wall_s=max(r.latency_s for r in responses))
    by_version = {}
    for r in responses:
        by_version[r.package_version] = by_version.get(r.package_version,
                                                       0) + 1
    print(f"\ndrained: {service.n_completed} served in "
          f"{service.n_batches} micro-batches, {service.n_shed} shed, "
          f"{service.in_flight} in flight")
    print(f"unanswered: {report.n_unanswered} (the drain guarantee)")
    for version in sorted(v for v in by_version if v is not None):
        tag = registry.get(version).tag
        print(f"  v{version} ({tag}): {by_version[version]} responses")
    print(f"latency p50/p95 = {report.latency_p50_s * 1e3:.2f} / "
          f"{report.latency_p95_s * 1e3:.2f} ms")
    print(f"swap history: {registry.swap_history}")
    assert report.n_unanswered == 0
    assert set(by_version) <= {1, 2}
    print("\nno request was dropped across the swap; every response is "
          "attributable to exactly one package version")


if __name__ == "__main__":
    main()
