"""The serving equivalence invariant (acceptance criterion).

For any fixed request stream, the service's responses must be
**bit-identical** to the direct pipeline — classifier
``predict_indices`` → CQM ``measure_batch`` → a fresh
:class:`GracefulDegrader` gating in arrival order — for every
micro-batch size and queue depth, and with observability on or off.  The invariant holds because the admission queue is FIFO, batches
are contiguous runs of it, the gate runs in arrival order, and the
numpy model compute is row-independent.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.core.degradation import DegradationPolicy, GracefulDegrader
from repro.serving import ServingConfig, serve_requests

from .conftest import make_requests


def direct_reference(experiment, package, requests,
                     policy=DegradationPolicy.REJECT):
    """The unbatched, unqueued ground truth for a request stream."""
    cues = np.vstack([r.cues for r in requests])
    given = np.array([-1 if r.class_index is None else r.class_index
                      for r in requests], dtype=float)
    missing = given < 0
    indices = given.copy()
    if np.any(missing):
        indices[missing] = experiment.classifier.predict_indices(
            cues[missing]).astype(float)
    qualities = package.quality.measure_batch(cues, indices)
    degrader = GracefulDegrader(threshold=package.threshold, policy=policy)
    decisions = degrader.decide_batch(qualities)
    keys = []
    for request, index, quality, decision in zip(requests, indices,
                                                 qualities, decisions):
        q = None if np.isnan(quality) else float(quality)
        keys.append((request.request_id, int(index), q, decision.action,
                     decision.degraded, False))
    return keys


def served_keys(registry, requests, config):
    return [r.key() for r in serve_requests(registry, requests,
                                            config=config)]


#: The batching grid: pathological singles up to everything-in-one-batch,
#: each with a roomy queue (the whole stream queues before the first
#: batch) and a tiny one (backpressure: each batch is whatever the
#: blocked submitter managed to queue).
CONFIGS = [ServingConfig(max_batch=b, queue_capacity=q)
           for b in (1, 4, 32, 256) for q in (3, 256)]


class TestServingEquivalence:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[f"b{c.max_batch}-q{c.queue_capacity}"
                                  for c in CONFIGS])
    def test_every_batching_config_matches_direct(self, registry,
                                                  experiment, package,
                                                  cue_pool, config):
        requests = make_requests(cue_pool, 60)
        reference = direct_reference(experiment, package, requests)
        assert served_keys(registry, requests, config) == reference

    def test_observability_does_not_change_results(self, registry,
                                                   experiment, package,
                                                   cue_pool):
        requests = make_requests(cue_pool, 60)
        config = ServingConfig(max_batch=8)
        reference = direct_reference(experiment, package, requests)
        plain = served_keys(registry, requests, config)
        with obs.observed(fresh=True):
            observed = served_keys(registry, requests, config)
        assert plain == reference
        assert observed == reference

    @pytest.mark.parametrize("policy", list(DegradationPolicy),
                             ids=[p.value for p in DegradationPolicy])
    def test_stateful_policies_match_in_order(self, registry, experiment,
                                              package, cue_pool, policy):
        """Order-dependent ε-policies agree too — the gate must see
        decisions in exact arrival order despite batching."""
        requests = make_requests(cue_pool, 60)
        config = ServingConfig(max_batch=8, policy=policy)
        reference = direct_reference(experiment, package, requests,
                                     policy=policy)
        assert served_keys(registry, requests, config) == reference

    def test_given_class_indices_match(self, registry, experiment,
                                       package, cue_pool):
        requests = make_requests(cue_pool, 40, with_class_index=True)
        config = ServingConfig(max_batch=8)
        reference = direct_reference(experiment, package, requests)
        assert served_keys(registry, requests, config) == reference

    def test_repeated_runs_are_deterministic(self, registry, cue_pool):
        requests = make_requests(cue_pool, 30)
        config = ServingConfig(max_batch=4)
        first = served_keys(registry, requests, config)
        second = served_keys(registry, requests, config)
        assert first == second
