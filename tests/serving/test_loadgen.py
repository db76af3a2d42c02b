"""Loadgen reporting: honest empty-run summaries.

Regression focus: a run whose every request was shed (or never
answered) has **no** served latencies.  The percentile math must not
crash on the empty array, and the JSON report must stay strictly valid
— ``json.dumps`` happily emits bare ``NaN`` tokens that no strict
parser (or CI artifact consumer) accepts.
"""

import asyncio
import json

import numpy as np

from repro.core.degradation import GateAction
from repro.serving import (InferenceService, LoadgenConfig, ServeResponse,
                           ServingConfig, run_loadgen, summarize)


class FullShedService:
    """A service whose admission control rejects everything.

    The deterministic stand-in for a fully saturated deployment: every
    submission resolves instantly to a shed ε-response, which is what
    the real service returns past its queue bound.
    """

    def __init__(self):
        self.n_submitted = 0

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb):
        return None

    async def submit(self, cues, class_index=None, request_id=None,
                     wait=False):
        self.n_submitted += 1
        return ServeResponse(
            request_id=request_id, class_index=None, class_name=None,
            quality=None, action=GateAction.REJECT, degraded=True,
            shed=True, package_version=None, batch_size=0, latency_s=0.0)


class TestEmptyLatencySummaries:
    def test_zero_responses_do_not_crash(self):
        config = LoadgenConfig(n_requests=10)
        report = summarize(config, [], n_sent=10, wall_s=0.05)
        assert report.n_responses == 0
        assert report.n_unanswered == 10
        assert report.throughput_rps == 0.0
        assert np.isnan(report.latency_p50_s)

    def test_report_json_stays_strictly_valid(self):
        config = LoadgenConfig(n_requests=10)
        report = summarize(config, [], n_sent=10, wall_s=0.05)
        doc = report.as_dict()
        # allow_nan=False is the strict-JSON check: a bare NaN token
        # would raise here (and break any conforming parser downstream).
        text = json.dumps(doc, allow_nan=False)
        parsed = json.loads(text)
        assert parsed["latency_p50_ms"] is None
        assert parsed["latency_p99_ms"] is None
        assert parsed["n_responses"] == 0
        assert parsed["n_unanswered"] == 10

    def test_text_report_renders_dashes(self):
        config = LoadgenConfig(n_requests=4)
        report = summarize(config, [], n_sent=4, wall_s=0.01)
        text = report.to_text()
        assert "- / - / - ms" in text
        assert "unanswered 4" in text

    def test_full_shed_run_reports_honestly(self, cue_pool):
        """End-to-end pin: a 100%-shed loadgen run summarizes cleanly
        — every response shed, no latencies, valid JSON report."""
        config = LoadgenConfig(n_requests=25, rate_hz=10_000.0, seed=11)
        report = run_loadgen(FullShedService, config, cue_pool)
        assert report.n_sent == 25
        assert report.n_responses == 25
        assert report.n_shed == 25
        assert report.shed_rate == 1.0
        assert report.n_unanswered == 0
        assert report.versions_seen == ()
        doc = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert doc["latency_p95_ms"] is None
        assert doc["n_shed"] == 25

    def test_served_runs_keep_real_percentiles(self, registry, cue_pool):
        config = LoadgenConfig(n_requests=30, rate_hz=5000.0, seed=5)
        report = run_loadgen(
            lambda: InferenceService(registry, config=ServingConfig()),
            config, cue_pool)
        assert report.n_unanswered == 0
        assert report.n_responses == 30
        assert np.isfinite(report.latency_p50_s)
        doc = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert doc["latency_p50_ms"] > 0
        assert doc["versions_seen"] == [1]
