"""Tests for the one-pen AwareOffice run: ``office_spec`` through the
scenario runner, the path ``repro office`` and ``repro bus record`` take."""

import pytest

from repro.appliances.base import Appliance
from repro.appliances.bus import EventBus
from repro.datasets.activities import evaluation_script
from repro.exceptions import ConfigurationError
from repro.scenarios import models, office_spec, run_scenario


class RecorderAppliance(Appliance):
    """Test appliance: records every pen event."""

    def __init__(self, bus, name="recorder"):
        super().__init__(name=name, bus=bus)
        self.events = []
        bus.subscribe("context.*", self.events.append, name=name)

    def describe(self):
        return "recorder"


@pytest.fixture(autouse=True)
def primed_pen_model(experiment):
    """Run the office on the session experiment's seed-7 pen model."""
    models.prime_pen_model(experiment.augmented, experiment.threshold,
                           seed=7)


def run_office(rng, blocks, gated=True):
    spec = office_spec(evaluation_script(rng, blocks=blocks), gated=gated)
    run = run_scenario(spec, seed=7)
    [camera] = run.cameras
    return run, camera


class TestAwareOffice:
    def test_run_scenario(self, rng):
        run, camera = run_office(rng, blocks=2)
        assert run.n_windows > 0
        assert run.n_correct + run.n_wrong == run.n_windows
        assert (camera.accepted_events + camera.rejected_events
                == run.n_windows)

    def test_gated_office_rejects_some_events(self, rng, experiment):
        run, camera = run_office(rng, blocks=3)
        assert camera.threshold == experiment.threshold
        assert camera.rejected_events > 0

    def test_ungated_office_accepts_everything(self, rng):
        run, camera = run_office(rng, blocks=2, gated=False)
        assert camera.threshold is None
        assert camera.rejected_events == 0
        assert camera.accepted_events == run.n_windows

    def test_writing_sessions_photographed(self, rng):
        _run, camera = run_office(rng, blocks=3)
        # The scenario contains real writing sessions; at least one must
        # survive the gate and be photographed.
        assert camera.n_snapshots >= 1
        assert (camera.snapshot_times.shape == camera.session_starts.shape
                == camera.n_writing_events.shape == (camera.n_snapshots,))
        assert (camera.session_starts <= camera.snapshot_times).all()
        assert (camera.n_writing_events >= 2).all()

    def test_pen_accuracy_reported(self, rng):
        run, _camera = run_office(rng, blocks=2)
        assert 0.0 <= run.accuracy <= 1.0


class TestApplianceBase:
    def test_name_required(self):
        with pytest.raises(ConfigurationError):
            RecorderAppliance(EventBus(), name="")
