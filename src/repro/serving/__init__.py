"""repro.serving — micro-batching, quality-gated inference service.

The deployment layer the paper implies but never builds: a trained
:class:`~repro.core.persistence.QualityPackage` (plus, optionally, the
black-box classifier) is published into a versioned
:class:`~repro.serving.registry.ModelRegistry` and served under
concurrent load by an asyncio :class:`~repro.serving.service.
InferenceService` — bounded admission queue with ε load-shedding,
arrival-driven micro-batches on the batched hot paths, a stateful
:class:`~repro.core.degradation.GracefulDegrader` at the response
boundary, atomic hot-swap of re-calibrated packages and graceful drain.

Seven pieces:

* :mod:`~repro.serving.protocol` — request/response records + JSONL wire
  format;
* :mod:`~repro.serving.registry` — versioned models, atomic activation;
* :mod:`~repro.serving.batching` — arrival-driven micro-batching: a free
  worker takes whatever has been queued, up to ``max_batch``;
* :mod:`~repro.serving.service` — the asyncio service itself;
* :mod:`~repro.serving.loadgen` — seeded open-loop load generation
  (:func:`~repro.serving.loadgen.run_loadgen`) feeding
  ``benchmarks/bench_serving.py`` → ``BENCH_serving.json``;
* :mod:`~repro.serving.framing` — the one JSONL server core (listener,
  hardened frame loop, drain) under ``repro serve`` and the
  ``repro bus serve`` broker;
* :mod:`~repro.serving.transport` — stdio/TCP adapters behind
  ``repro serve`` and ``repro loadgen --connect``.

Everything is observable (``serving.*`` metrics, ``serving.batch``
spans) and bit-identical to the direct pipeline — see
``tests/serving/test_equivalence.py``.
"""

from .batching import BatchingConfig, extend_batch
from .loadgen import (LoadgenConfig, LoadgenReport, make_workload,
                      run_loadgen, run_loadgen_socket, summarize)
from .protocol import ServeRequest, ServeResponse
from .registry import ModelRegistry, VersionedModel
from .service import (InferenceService, ServingConfig, serve_requests)
from .transport import read_requests, serve_socket, serve_stdio

__all__ = [
    "ServeRequest", "ServeResponse",
    "ModelRegistry", "VersionedModel",
    "BatchingConfig", "extend_batch",
    "ServingConfig", "InferenceService", "serve_requests",
    "LoadgenConfig", "LoadgenReport", "make_workload", "run_loadgen",
    "run_loadgen_socket", "summarize",
    "read_requests", "serve_stdio", "serve_socket",
]
