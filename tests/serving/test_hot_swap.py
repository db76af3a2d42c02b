"""Hot-swap under traffic (acceptance criterion).

Swapping the active package mid-stream must not drop an in-flight
request, and every response must be attributable to exactly one package
version — batches are never torn across two calibrations.
"""

import asyncio

import numpy as np
import pytest

from repro.core.persistence import (QualityPackage, quality_from_dict,
                                    quality_to_dict)
from repro.serving import InferenceService, ModelRegistry, ServingConfig

from .conftest import make_requests


@pytest.fixture
def v2_package(package, experiment, cue_pool):
    """A distinguishable second calibration (copied FIS, moved s).

    The new threshold sits at the median served quality, so on any
    reasonable request stream some gate decisions genuinely flip
    between v1 and v2.
    """
    quality = quality_from_dict(quality_to_dict(package.quality))
    predicted = experiment.classifier.predict_indices(cue_pool)
    qualities = package.quality.measure_batch(cue_pool,
                                              predicted.astype(float))
    threshold = float(np.nanmedian(qualities))
    return QualityPackage(quality=quality, threshold=threshold,
                          right=package.right, wrong=package.wrong)


def run_with_swaps(registry, requests, swap_points, publish):
    """Stream *requests*, firing ``publish(k)`` at each swap index."""

    async def scenario():
        service = InferenceService(registry,
                                   config=ServingConfig(max_batch=4))
        async with service:
            futures = []
            for k, request in enumerate(requests):
                if k in swap_points:
                    publish(k)
                futures.append(await service._enqueue(request, wait=True))
                await asyncio.sleep(0)  # let workers interleave
            responses = [await f for f in futures]
        return responses, service

    return asyncio.run(scenario())


class TestHotSwap:
    def test_no_request_lost_and_versions_partition(self, registry,
                                                    experiment,
                                                    v2_package, cue_pool):
        requests = make_requests(cue_pool, 80)

        def publish(_k):
            registry.publish_and_activate(
                v2_package, classifier=experiment.classifier, tag="v2")

        responses, service = run_with_swaps(registry, requests, {40},
                                            publish)
        # Drain guarantee: every admitted request resolved.
        assert len(responses) == 80
        assert service.in_flight == 0
        assert not any(r.shed for r in responses)
        # Exactly-one-version attribution.
        versions = [r.package_version for r in responses]
        assert all(v in (1, 2) for v in versions)
        assert set(versions) == {1, 2}
        # The switch is monotone in batch order: once v2 appears no
        # later response reverts to v1 (single worker, FIFO batches).
        first_v2 = versions.index(2)
        assert all(v == 2 for v in versions[first_v2:])
        assert registry.swap_history == [(None, 1), (1, 2)]

    def test_batches_are_never_torn(self, registry, experiment,
                                    v2_package, cue_pool):
        """All members of one micro-batch carry the same version."""
        requests = make_requests(cue_pool, 60)

        def publish(_k):
            registry.publish_and_activate(
                v2_package, classifier=experiment.classifier, tag="v2")

        responses, _ = run_with_swaps(registry, requests, {20, 40},
                                      publish)
        # Reconstruct batch membership from (version, batch_size) runs:
        # a torn batch would show two versions inside one contiguous
        # run of equal batch_size whose length matches that size.
        position = 0
        while position < len(responses):
            size = responses[position].batch_size
            batch = responses[position:position + size]
            assert len({r.package_version for r in batch}) == 1
            assert len({r.batch_size for r in batch}) == 1
            position += size

    def test_swapped_threshold_is_applied(self, registry, experiment,
                                          package, v2_package, cue_pool):
        """The default gate follows the active model's threshold."""
        requests = make_requests(cue_pool, 50)

        def decisions_at(active_package, tag):
            reg = ModelRegistry()
            reg.publish_and_activate(active_package,
                                     classifier=experiment.classifier,
                                     tag=tag)
            from repro.serving import serve_requests
            return [r.key() for r in serve_requests(reg, requests)]

        v1_keys = decisions_at(package, "v1")
        v2_keys = decisions_at(v2_package, "v2")
        # The moved threshold flips at least one gate decision on this
        # stream (qualities straddle both thresholds).
        qualities = [k[2] for k in v1_keys if k[2] is not None]
        low, high = sorted([package.threshold, v2_package.threshold])
        between = [q for q in qualities if low < q <= high]
        assert between, "test stream must straddle the two thresholds"
        assert v1_keys != v2_keys

    def test_hot_swap_via_service_helper(self, registry, experiment,
                                         v2_package, cue_pool):
        registry.publish(v2_package, classifier=experiment.classifier)

        async def scenario():
            service = InferenceService(registry)
            async with service:
                before = await service.submit(cue_pool[0])
                model = service.hot_swap(2)
                after = await service.submit(cue_pool[0])
            return before, model, after

        before, model, after = asyncio.run(scenario())
        assert before.package_version == 1
        assert model.version == 2
        assert after.package_version == 2
        # Same cues, same copied FIS: the quality itself is unchanged.
        if before.quality is not None:
            assert after.quality == pytest.approx(before.quality)


class TestVersionAttributionUnderConcurrency:
    def test_two_workers_still_attribute_exactly_one_version(
            self, registry, experiment, v2_package, cue_pool):
        requests = make_requests(cue_pool, 60)

        async def scenario():
            service = InferenceService(registry, config=ServingConfig(
                max_batch=4, n_workers=2))
            async with service:
                futures = []
                for k, request in enumerate(requests):
                    if k == 30:
                        registry.publish_and_activate(
                            v2_package,
                            classifier=experiment.classifier)
                    futures.append(await service._enqueue(request,
                                                          wait=True))
                    await asyncio.sleep(0)
                return [await f for f in futures]

        responses = asyncio.run(scenario())
        assert len(responses) == 60
        assert all(r.package_version in (1, 2) for r in responses)
        assert not any(r.shed for r in responses)
