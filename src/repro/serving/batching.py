"""Arrival-driven micro-batching over a bounded asyncio admission queue.

The batched hot paths (:meth:`~repro.core.quality.QualityMeasure.
measure_batch`, the classifiers' vectorized ``predict_indices``) amortize
the fuzzy-system membership sweep across rows, so serving throughput
comes from grouping concurrent requests into one numpy call.  The rule
is arrival-driven: a free worker takes whatever has already arrived, up
to ``max_batch`` requests, and dispatches it at once.  Nothing waits on
a timer for company, so an idle service adds no latency; under load the
next batch forms by itself while the previous one computes.

Collection never reorders: the queue is FIFO and a batch is a contiguous
run of it, which is what keeps the stateful ε-gate's decision order (and
therefore the serving-vs-direct equivalence) exact.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, List

from ..exceptions import ConfigurationError


@dataclasses.dataclass(frozen=True)
class BatchingConfig:
    """Shape of the micro-batcher.

    Parameters
    ----------
    max_batch:
        Most requests one batch takes from the queue.
    """

    max_batch: int = 32

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}")


def extend_batch(queue: "asyncio.Queue[Any]", config: BatchingConfig,
                 items: List[Any]) -> List[Any]:
    """Top up a started batch with what is already queued; never waits.

    A worker obtains the first item by blocking on the queue and passes
    it in *items*, which is extended in place, in FIFO order, up to
    ``config.max_batch`` items, and returned.
    """
    for _ in range(min(config.max_batch - len(items), queue.qsize())):
        items.append(queue.get_nowait())
    return items
