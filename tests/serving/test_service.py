"""Service behavior: admission, shedding, drain, validation, metrics."""

import asyncio

import numpy as np
import pytest

from repro import observability as obs
from repro.core.degradation import DegradationPolicy, GateAction
from repro.exceptions import ConfigurationError, ServiceClosedError
from repro.serving import (BatchingConfig, InferenceService, ModelRegistry,
                           ServingConfig, extend_batch, serve_requests)
from repro.serving.service import _batch_compute

from .conftest import HeldQueue, make_requests


def run(coro):
    return asyncio.run(coro)


class TestServingConfig:
    @pytest.mark.parametrize("kwargs", [{"queue_capacity": 0},
                                        {"n_workers": 0},
                                        {"max_batch": -1},
                                        {"max_batch": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)

    def test_batching_view(self):
        config = ServingConfig(max_batch=7)
        assert config.batching == BatchingConfig(max_batch=7)


class TestLifecycle:
    def test_submit_before_start_rejected(self, registry, cue_pool):
        async def scenario():
            service = InferenceService(registry)
            await service.submit(cue_pool[0])

        with pytest.raises(ServiceClosedError, match="not started"):
            run(scenario())

    def test_submit_after_drain_rejected(self, registry, cue_pool):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                pass
            await service.submit(cue_pool[0])

        with pytest.raises(ServiceClosedError, match="draining"):
            run(scenario())

    def test_empty_registry_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="no active model"):
            InferenceService(ModelRegistry())

    def test_start_is_idempotent(self, registry, cue_pool):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                service.start()
                response = await service.submit(cue_pool[0])
            return response

        response = run(scenario())
        assert response.request_id == 0

    def test_drain_flushes_queued_requests(self, registry, cue_pool):
        """Everything admitted before drain resolves; nothing is lost."""
        requests = make_requests(cue_pool, 40)

        async def scenario():
            service = InferenceService(registry, config=ServingConfig(
                max_batch=8))
            service.start()
            futures = [await service._enqueue(r, wait=True)
                       for r in requests]
            await service.drain()
            return [f.result() for f in futures], service

        responses, service = run(scenario())
        assert len(responses) == 40
        assert service.in_flight == 0
        assert service.n_completed == 40
        assert [r.request_id for r in responses] == list(range(40))

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_drain_serves_a_submitter_blocked_on_a_full_queue(
            self, registry, cue_pool, n_workers):
        """A closed-loop submit waiting for queue space when the drain
        starts was admitted: it is served, not dropped."""
        requests = make_requests(cue_pool, 3)

        async def scenario():
            service = InferenceService(registry, config=ServingConfig(
                queue_capacity=2, max_batch=2, n_workers=n_workers))
            service.start()

            async def submit_all():
                return [await service._enqueue(r, wait=True)
                        for r in requests]

            submitter = asyncio.ensure_future(submit_all())
            await asyncio.sleep(0)  # two queued, the third blocks on put
            blocked = (service.queue_depth, service.n_submitted)
            await asyncio.wait_for(service.drain(), timeout=10)
            futures = await submitter
            return blocked, [f.result() for f in futures], service

        blocked, responses, service = run(scenario())
        assert blocked == (2, 3)
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert service.n_completed == 3
        assert service.in_flight == 0

    def test_drain_after_a_blocked_submitter_is_cancelled(self, registry,
                                                          cue_pool):
        """A closed-loop submit cancelled while waiting for queue space
        was never queued; drain must not wait for it."""
        async def scenario():
            service = InferenceService(registry)
            service._queue = held = HeldQueue(maxsize=1)
            service.start()
            first = await service._enqueue(make_requests(cue_pool, 1)[0],
                                           wait=False)
            blocked = asyncio.ensure_future(service.submit(cue_pool[1],
                                                           wait=True))
            await asyncio.sleep(0)  # the queue is full: it blocks on put
            assert (service.n_submitted, service.queue_depth) == (2, 1)
            blocked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await blocked
            held.release.set()
            await asyncio.wait_for(service.drain(), timeout=10)
            return service, first.result()

        service, first = run(scenario())
        assert first.request_id == 0
        assert service.n_completed == 1
        assert service.in_flight == 0

    def test_burst_leaves_as_contiguous_fifo_batches(self, registry,
                                                     cue_pool,
                                                     monkeypatch):
        from repro.serving import service as service_module

        batches = []

        def recording(queue, config, items):
            batch = extend_batch(queue, config, items)
            batches.append([p.request.request_id for p in batch])
            return batch

        monkeypatch.setattr(service_module, "extend_batch", recording)
        responses = serve_requests(registry, make_requests(cue_pool, 10),
                                   config=ServingConfig(max_batch=4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert [r.batch_size for r in responses] == [4] * 8 + [2] * 2

    def test_failed_batch_resolves_and_drains(self, registry, cue_pool,
                                              monkeypatch):
        def broken(*_args):
            raise RuntimeError("model fault")

        monkeypatch.setattr("repro.serving.service._batch_compute", broken)

        async def scenario():
            service = InferenceService(registry).start()
            with pytest.raises(RuntimeError, match="model fault"):
                await service.submit(cue_pool[0])
            await asyncio.wait_for(service.drain(), timeout=10)
            return service

        service = run(scenario())
        assert service.n_failed == 1
        assert service.in_flight == 0


class TestDrainIdempotence:
    """Regression: double drain used to double-count ``drains_total``.

    ``drain()`` followed by ``__aexit__`` (or any explicit re-drain) is
    the normal shutdown shape — e.g. a caller that drains to flush, then
    leaves the ``async with`` block — and must tear down exactly once.
    """

    def test_explicit_drain_plus_context_exit_counts_once(self, registry,
                                                          cue_pool):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                await service.submit(cue_pool[0])
                await service.drain()
            return service

        with obs.observed(fresh=True) as (metrics, _):
            service = run(scenario())
            counters = metrics.snapshot()["counters"]
        assert counters["serving.drains_total"] == 1
        assert service.n_completed == 1

    def test_repeated_drain_is_a_noop(self, registry, cue_pool):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                await service.submit(cue_pool[0])
                await service.drain()
                await service.drain()
                await service.drain()
            return service

        with obs.observed(fresh=True) as (metrics, _):
            run(scenario())
            counters = metrics.snapshot()["counters"]
        assert counters["serving.drains_total"] == 1

    def test_concurrent_drains_complete_together(self, registry, cue_pool):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                await service.submit(cue_pool[0])
                await asyncio.gather(service.drain(), service.drain(),
                                     service.drain())
            return service

        with obs.observed(fresh=True) as (metrics, _):
            service = run(scenario())
            counters = metrics.snapshot()["counters"]
        assert counters["serving.drains_total"] == 1
        assert service.in_flight == 0

    def test_drain_before_start_is_a_noop(self, registry):
        async def scenario():
            service = InferenceService(registry)
            await service.drain()

        with obs.observed(fresh=True) as (metrics, _):
            run(scenario())
            counters = metrics.snapshot()["counters"]
        assert counters.get("serving.drains_total", 0) == 0


class TestValidation:
    def test_wrong_cue_count_rejected(self, registry):
        async def scenario():
            service = InferenceService(registry)
            async with service:
                await service.submit(np.ones(2))

        with pytest.raises(ConfigurationError, match="cues"):
            run(scenario())

    def test_no_classifier_requires_class_index(self, package, cue_pool):
        registry = ModelRegistry()
        registry.publish_and_activate(package)  # no classifier

        async def scenario(class_index):
            service = InferenceService(registry)
            async with service:
                return await service.submit(cue_pool[0],
                                            class_index=class_index)

        with pytest.raises(ConfigurationError, match="no classifier"):
            run(scenario(None))
        response = run(scenario(1))
        assert response.class_index == 1
        assert response.class_name is None


class TestShedding:
    def test_overload_sheds_epsilon(self, registry, cue_pool):
        """Open-loop submits beyond the queue bound get ε, instantly."""
        requests = make_requests(cue_pool, 30)

        async def scenario():
            # An open-loop _enqueue never yields, so the worker cannot
            # run while the loop stuffs the tiny queue: 4 fit, 26 shed.
            service = InferenceService(registry, config=ServingConfig(
                queue_capacity=4, max_batch=64))
            async with service:
                futures = [await service._enqueue(r, wait=False)
                           for r in requests]
                responses = [await f for f in futures]
            return responses, service

        responses, service = run(scenario())
        shed = [r for r in responses if r.shed]
        served = [r for r in responses if not r.shed]
        assert service.n_shed == len(shed) == 26
        assert len(responses) == 30
        for r in shed:
            assert r.is_error_state
            assert r.action is GateAction.REJECT
            assert r.degraded
            assert r.package_version is None
            assert r.batch_size == 0
        for r in served:
            assert r.package_version == 1

    def test_wait_true_never_sheds(self, registry, cue_pool):
        requests = make_requests(cue_pool, 30)
        config = ServingConfig(queue_capacity=2, max_batch=4)
        responses = serve_requests(registry, requests, config=config)
        assert len(responses) == 30
        assert not any(r.shed for r in responses)


class TestPolicies:
    def test_policy_flows_to_gate(self, registry, cue_pool):
        from repro.serving import ServeRequest

        requests = make_requests(cue_pool, 12)
        # A non-finite cue vector forces the CQM into the ε error state.
        broken = np.full_like(cue_pool[0], np.nan)
        requests.append(ServeRequest(request_id=12, cues=broken,
                                     class_index=0))
        config = ServingConfig(policy=DegradationPolicy.ABSTAIN)
        responses = serve_requests(registry, requests, config=config)
        # The ε-policy only governs error-state responses: under
        # ABSTAIN, every ε answer abstains instead of rejecting.
        epsilon = [r for r in responses if r.is_error_state]
        assert epsilon
        for r in epsilon:
            assert r.action is GateAction.ABSTAIN
            assert r.degraded

    def test_pinned_degrader_keeps_threshold(self, registry, cue_pool):
        from repro.core.degradation import GracefulDegrader

        requests = make_requests(cue_pool, 12)
        degrader = GracefulDegrader(threshold=0.0,
                                    policy=DegradationPolicy.REJECT)
        responses = serve_requests(registry, requests, degrader=degrader)
        # Threshold 0: every finite quality is accepted.
        for r in responses:
            if not r.is_error_state:
                assert r.accepted
        assert degrader.threshold == 0.0


class TestBatchCompute:
    def test_given_class_indices_skip_the_classifier(self, registry,
                                                     cue_pool):
        model = registry.current()
        cues = cue_pool[:6]
        given = [1, None, 0, None, 2, 1]
        indices, qualities = _batch_compute(model, cues, given)
        predicted = model.classifier.predict_indices(cues)
        for k, g in enumerate(given):
            assert indices[k] == (g if g is not None else predicted[k])
        assert qualities.shape == (6,)

    def test_row_independence(self, registry, cue_pool):
        """Batch boundaries cannot change per-row results."""
        model = registry.current()
        cues = cue_pool[:16]
        given = [None] * 16
        full_idx, full_q = _batch_compute(model, cues, given)
        for split in (1, 5, 8):
            left_idx, left_q = _batch_compute(model, cues[:split],
                                              given[:split])
            right_idx, right_q = _batch_compute(model, cues[split:],
                                                given[split:])
            assert np.array_equal(np.concatenate([left_idx, right_idx]),
                                  full_idx)
            assert np.array_equal(np.concatenate([left_q, right_q]),
                                  full_q, equal_nan=True)


class TestServiceMetrics:
    def test_serving_metrics_recorded(self, registry, cue_pool):
        requests = make_requests(cue_pool, 20)
        with obs.observed(fresh=True) as (metrics, tracer):
            serve_requests(registry, requests,
                           config=ServingConfig(max_batch=8))
            snapshot = metrics.snapshot()
            span_names = [s.name for root in tracer.roots
                          for s in root.walk()]
        counters = snapshot["counters"]
        assert counters["serving.requests_total"] == 20
        assert counters["serving.responses_total"] == 20
        assert counters["serving.batches_total"] >= 1
        assert counters["serving.drains_total"] == 1
        assert "serving.batch_size" in snapshot["histograms"]
        assert "serving.latency_s" in snapshot["histograms"]
        assert snapshot["histograms"]["serving.latency_s"]["count"] == 20
        assert "serving.batch" in span_names
