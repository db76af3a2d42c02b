"""Arrival-driven micro-batching: take what is queued, FIFO, capped at
``max_batch``, and never wait for more."""

import asyncio
import dataclasses
import inspect

import pytest

from repro.exceptions import ConfigurationError
from repro.serving import (BatchingConfig, InferenceService, ServingConfig,
                           extend_batch)


def queued(*items):
    queue = asyncio.Queue()
    for item in items:
        queue.put_nowait(item)
    return queue


def collect(queue, max_batch):
    """The batch a free worker dispatches: its first item plus whatever
    has already arrived."""
    return extend_batch(queue, BatchingConfig(max_batch=max_batch),
                        [queue.get_nowait()])


class TestBatchingConfig:
    def test_defaults(self):
        config = BatchingConfig()
        assert config.max_batch == 32
        # No timer knob: the batch is whatever has arrived.
        assert [f.name for f in dataclasses.fields(config)] == ["max_batch"]

    @pytest.mark.parametrize("kwargs", [{"max_batch": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchingConfig(**kwargs)


class TestCollectBatch:
    def test_takes_everything_already_queued(self):
        assert collect(queued(0, 1, 2, 3, 4), max_batch=32) == [0, 1, 2, 3, 4]

    def test_max_batch_caps_the_flush(self):
        queue = queued(*range(10))
        assert collect(queue, max_batch=4) == [0, 1, 2, 3]
        assert queue.qsize() == 6

    def test_preserves_fifo_order(self):
        """A burst queued before the worker runs leaves as contiguous
        FIFO batches of at most ``max_batch``."""
        queue = queued(*range(10))
        batches = []
        while not queue.empty():
            batches.append(collect(queue, max_batch=4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_blocks_for_the_first_item(self, registry, cue_pool):
        """An idle worker blocks on the queue with no timer armed, and a
        request that arrives later is dispatched alone at once."""
        async def scenario():
            loop = asyncio.get_running_loop()
            async with InferenceService(registry) as service:
                for _ in range(3):
                    await asyncio.sleep(0)
                timers = list(loop._scheduled)
                response = await service.submit(cue_pool[0])
            return timers, response

        timers, response = asyncio.run(scenario())
        assert timers == []
        assert response.batch_size == 1


class TestExtendBatch:
    def test_extends_in_place(self):
        queue = queued("b", "c")
        items = ["a"]
        out = extend_batch(queue, BatchingConfig(max_batch=3), items)
        assert out is items
        assert items == ["a", "b", "c"]

    def test_full_seed_skips_the_queue(self):
        queue = queued("never")
        items = ["a", "b"]
        extend_batch(queue, BatchingConfig(max_batch=2), items)
        assert items == ["a", "b"]
        assert queue.qsize() == 1

    def test_empty_queue_returns_the_seed_without_suspending(self):
        # A plain function: calling it cannot yield to the event loop.
        assert not inspect.iscoroutinefunction(extend_batch)
        items = ["a"]
        assert extend_batch(asyncio.Queue(), BatchingConfig(), items) is items
        assert items == ["a"]

    def test_does_not_wait_for_company(self, registry, cue_pool):
        """Requests that arrive while a batch computes form the next
        batch; the first request is not held back for them."""
        async def scenario():
            service = InferenceService(registry,
                                       config=ServingConfig(max_batch=32))
            async with service:
                first = asyncio.ensure_future(service.submit(cue_pool[0]))
                await asyncio.sleep(0)  # request 0 queued, worker woken
                rest = [asyncio.ensure_future(service.submit(cue_pool[k]))
                        for k in range(1, 4)]
                return [await f for f in [first, *rest]]

        sizes = [r.batch_size for r in asyncio.run(scenario())]
        assert sizes == [1, 3, 3, 3]
