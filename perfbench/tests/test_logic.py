"""The benchmark's own logic: percentiles, self time, capacity, metadata.

Run from the checkout root: ``python -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import common, layers, serve
from perfbench.spans import Recorder, additivity, covered, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles -------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert not common.supported(999, 0.99)
    assert common.supported(1000, 0.99)
    assert common.supported(20, 0.5)
    assert not common.supported(19, 0.5)
    assert common.percentile_or_none(list(range(999)), 0.99) is None
    assert common.percentile_or_none(list(range(1000)), 0.99) == \
        pytest.approx(989.01)


def test_chunked_percentiles_skip_chunks_too_small_for_p99():
    big = [float(i) for i in range(1000)]
    small = [1e6] * 999  # would dominate the p99 if it were used
    p50, p99 = common.chunked_percentiles([big, big, small])
    assert p99 == pytest.approx(common.quantile(big, 0.99))
    assert p50 == pytest.approx(common.quantile(big, 0.5))
    assert math.isnan(common.chunked_percentiles([small])[1])


def test_chunked_p99_discounts_a_minority_of_stalled_chunks():
    calm = [1.0] * 990 + [2.0] * 10
    stalled = [1.0] * 970 + [50.0] * 30
    _, p99 = common.chunked_percentiles([calm, stalled, calm, stalled])
    assert p99 < 3.0


# -- spans and self time -----------------------------------------------
def span(name, start, end, parent=-1):
    return [name, start, end, parent, None, {}]


def test_self_time_subtracts_what_children_cover():
    spans = [span("root", 0.0, 10.0),          # 0
             span("a", 1.0, 4.0, 0),           # 1
             span("a.inner", 2.0, 3.0, 1),     # 2
             span("b", 5.0, 6.0, 0),           # 3
             span("c", 5.5, 7.0, 0)]           # 4 overlaps b
    selfs = self_times(spans)
    # root is covered by a (1-4) and the union of b and c (5-7).
    assert selfs == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_self_times_add_up_to_the_root_for_a_nested_tree():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0),
             span("a.inner", 2.0, 3.0, 1), span("b", 5.0, 6.0, 0)]
    check = additivity(spans, 10.0)
    assert check["self_sum_s"] == pytest.approx(10.0)
    assert check["gap_share"] == pytest.approx(0.0)


def test_overlapping_siblings_show_as_an_additivity_gap():
    spans = [span("root", 0.0, 10.0), span("b", 5.0, 6.0, 0),
             span("c", 5.5, 7.0, 0)]
    assert additivity(spans, 10.0)["gap_share"] == pytest.approx(0.05)


def test_covered_clips_to_the_interval():
    assert covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered((0.0, 10.0), []) == 0.0


def test_recorder_nests_spans_and_restores_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    original = Layer.__dict__["outer"]
    rec = Recorder()
    rec.wrap(Layer, "outer", "x.outer", new_id=lambda a, k: "w1")
    rec.wrap(Layer, "inner", "x.inner")
    rec.wrap(Layer, "build", "x.build")
    assert Layer.build().outer() == 2
    rec.restore()
    assert Layer.__dict__["outer"] is original
    names = [s[0] for s in rec.spans]
    assert names == ["x.build", "x.outer", "x.inner"]
    outer, inner = rec.spans[1], rec.spans[2]
    assert inner[3] == 1 and outer[3] == -1
    assert inner[4] == outer[4] == "w1"


# -- capacity ------------------------------------------------------------
def step(rate, meets):
    return {"rate": rate, "meets": meets}


def test_capacity_is_the_highest_rate_most_of_whose_steps_meet():
    # Three climbs.  4000 stalled once, 8000 met only once of three,
    # 10000 never: capacity is 6000 (three of three).
    climbs = [[(2000, True), (4000, False), (6000, True), (8000, True),
               (10000, False)],
              [(2000, True), (4000, True), (6000, True), (8000, False),
               (10000, False)],
              [(2000, True), (4000, True), (6000, True), (8000, False),
               (10000, False)]]
    ladder = [step(rate, meets) for climb in climbs for rate, meets in climb]
    assert serve.pick_capacity(ladder) == 6000.0
    # A tie is not a majority.
    assert serve.pick_capacity([step(2000, True), step(4000, True),
                                step(4000, False)]) == 2000.0
    assert serve.pick_capacity([step(2000, False)]) == 0.0


def synthetic_phase(latencies_ms, lateness_ms=0.0, shed=()):
    """A scored-ready phase whose responses arrive after *latencies_ms*."""
    from repro.core.degradation import GateAction
    from repro.serving.protocol import ServeRequest, ServeResponse

    n = len(latencies_ms)
    due = np.arange(n) * 1e-3
    requests = [ServeRequest(request_id=k, cues=np.ones(3))
                for k in range(n)]
    received, reference = {}, {}
    for k in range(n):
        response = ServeResponse(
            request_id=k, class_index=0, class_name="writing", quality=0.9,
            action=GateAction.ACCEPT, degraded=False, shed=k in shed,
            package_version=1, batch_size=1, latency_s=0.001)
        reference[k] = response.key()
        received[k] = (100.0 + due[k] + latencies_ms[k] / 1e3,
                       response.to_json().encode())
    phase = {"rate": 1000.0, "due": due, "requests": requests,
             "start": 100.0, "sent": 100.0 + due + lateness_ms / 1e3,
             "received": received}
    return phase, reference


def test_a_calm_step_meets_the_conditions():
    phase, ref = synthetic_phase([3.0] * 1000)
    scored = serve.score_phase(phase, ref)
    assert scored["meets"] and scored["valid"] and not scored["backlog"]


def test_a_late_generator_invalidates_the_step():
    late = serve.LATENESS_SHARE * serve.LATENCY_LIMIT_MS * 1.5
    phase, ref = synthetic_phase([3.0] * 1000, lateness_ms=late)
    scored = serve.score_phase(phase, ref)
    assert not scored["valid"] and not scored["meets"]


def test_a_growing_backlog_fails_the_step():
    phase, ref = synthetic_phase(list(np.linspace(2.0, 20.0, 1000)))
    scored = serve.score_phase(phase, ref)
    assert scored["p99_ms"] <= serve.LATENCY_LIMIT_MS
    assert scored["backlog"] and not scored["meets"]


def test_a_shed_counts_as_missing_the_limit():
    phase, ref = synthetic_phase([3.0] * 1000, shed=set(range(0, 1000, 50)))
    scored = serve.score_phase(phase, ref)
    assert scored["shed"] == 20 and not scored["meets"]
    assert math.isinf(scored["p99_ms"])


def test_a_mismatched_response_is_a_failure():
    phase, ref = synthetic_phase([3.0] * 1000)
    ref[7] = ref[7][:2] + (0.5,) + ref[7][3:]
    scored = serve.score_phase(phase, ref)
    assert scored["mismatched"] == 1 and scored["failed"] == 1


# -- metadata ------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(layers.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in doc["end_to_end"]}
    assert e2e == {k: v[:3] for k, v in layers.END_TO_END.items()}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in doc["per_layer"]}
    assert per_layer == {k: v[:2] for k, v in layers.PER_LAYER.items()}
