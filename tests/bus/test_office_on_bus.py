"""The one-pen office runs unmodified on the distributed bus.

Same spec, same appliances, same ``subscribe``/``publish`` surface —
``run_scenario_on`` over the broker must produce *bit-identical* results
to the plain :class:`~repro.appliances.bus.EventBus`, and the broker's
event log must replay to the same golden trace.
"""

import hashlib

import numpy as np
import pytest

from repro.appliances.awarepen import PEN_TOPIC
from repro.appliances.messages import ContextEvent
from repro.bus.replay import (RunMeta, capture_bus_trace, check_replay,
                              dedupe_events, read_log_events)
from repro.datasets.activities import evaluation_script
from repro.scenarios import (capture_scenario_trace, models, office_spec,
                             run_scenario_on)
from repro.verify.golden import diff_traces


@pytest.fixture(autouse=True)
def primed_pen_model(experiment):
    models.prime_pen_model(experiment.augmented, experiment.threshold,
                           seed=7)


def run_office(transport, log_dir=None, blocks=2):
    spec = office_spec(evaluation_script(np.random.default_rng(123),
                                         blocks=blocks))
    return run_scenario_on(spec, seed=7, transport=transport,
                           log_dir=log_dir)


class TestOfficeOnBus:
    def test_reports_bit_identical_to_eventbus(self):
        on_eventbus = run_office("eventbus")
        on_broker = run_office("broker")
        diff = diff_traces(capture_scenario_trace(on_broker),
                           capture_scenario_trace(on_eventbus),
                           rtol=0.0, atol=0.0)
        assert diff.passed, diff.to_text()

    def test_snapshots_identical(self):
        [a] = run_office("eventbus").cameras
        [b] = run_office("broker").cameras
        assert a.n_snapshots > 0
        assert (b.name, b.threshold, b.n_snapshots) == (
            a.name, a.threshold, a.n_snapshots)
        for field in ("snapshot_times", "session_starts",
                      "n_writing_events"):
            assert np.array_equal(getattr(b, field), getattr(a, field))

    def test_every_pen_event_logged(self, tmp_path):
        run = run_office("broker", log_dir=tmp_path)
        events = read_log_events(tmp_path)
        assert len(events) == run.n_windows
        assert all(e.topic == PEN_TOPIC for e in events)
        assert [e.seq for e in events] == list(range(1,
                                                     len(events) + 1))

    def test_logged_run_replays_bit_identically(self, tmp_path):
        run = run_office("broker", log_dir=tmp_path)
        [camera] = run.cameras
        RunMeta(seed=7, gate_threshold=camera.threshold,
                camera_topic=PEN_TOPIC).save(tmp_path)
        live = capture_bus_trace(
            7, dedupe_events(read_log_events(tmp_path)), camera=camera)
        golden_path = tmp_path / "golden.json"
        live.save(golden_path)
        diff = check_replay(tmp_path, golden_path)
        assert diff.passed, diff.to_text()
        assert diff.first_diverging_stage is None


#: sha256 of the log segment of the seed-7 broker office run below, as
#: recorded before in-process consumers reused the broker's checked event.
OFFICE_LOG_SHA256 = (
    "6a0a212b2ccdbbb84ce8eb4997fbe093ec1d9490daff49a3dc0640d42a03d345")


class TestValidateOnce:
    """Each event is parsed once in the broker; consumers reuse it."""

    def test_one_from_wire_per_published_event(self, tmp_path,
                                               monkeypatch):
        parse = ContextEvent.from_wire.__func__
        calls = []

        def counting(cls, doc):
            calls.append(doc)
            return parse(cls, doc)

        monkeypatch.setattr(ContextEvent, "from_wire",
                            classmethod(counting))
        run = run_office("broker", log_dir=tmp_path)
        monkeypatch.undo()
        n_logged = len(read_log_events(tmp_path))
        assert run.n_windows == n_logged > 0
        assert len(calls) == n_logged

    def test_log_segment_byte_identical(self, tmp_path):
        spec = office_spec(evaluation_script(np.random.default_rng(107),
                                             blocks=2))
        run = run_scenario_on(spec, seed=7, transport="broker",
                              log_dir=tmp_path)
        assert run.n_windows == 69
        [segment] = sorted(tmp_path.glob("*.jsonl"))
        digest = hashlib.sha256(segment.read_bytes()).hexdigest()
        assert digest == OFFICE_LOG_SHA256

