"""Fixtures for the appliance tests."""

import numpy as np
import pytest

from repro.appliances.bus import EventBus
from repro.scenarios import models, registry, run_scenario
from repro.scenarios.activities import FAMILY_CLASSES, FAMILY_MODELS


@pytest.fixture
def runner_and_window_by_window(experiment):
    """Run a one-sensor registry scenario at seed 7 and, separately,
    feed its sensor windows one at a time through ``process_window`` of
    a fresh appliance of class *cls*.  Returns the runner's
    ``ApplianceEvents`` and the per-window ``(times, classes, q)``
    arrays, q with ε as NaN."""
    models.prime_pen_model(experiment.augmented, experiment.threshold,
                           seed=7)

    def run(name, cls):
        spec = registry.get(name)
        [app] = spec.sensing_appliances()
        [sensor] = spec.sensors
        [events] = run_scenario(spec, seed=7).events
        windows = sensor.build_node().collect(
            sensor.build_segments(spec.resolved_styles(),
                                  FAMILY_MODELS[sensor.family]),
            np.random.default_rng([7, 0]), FAMILY_CLASSES[sensor.family])
        model = models.model_for(app.kind, spec.classifier, 7)
        appliance = cls(EventBus(), model.augmented)
        single = [appliance.process_window(w.cues, time_s=w.time_s)
                  for w in windows]
        return events, (
            np.array([e.time_s for e in single]),
            np.array([e.context.index for e in single]),
            np.array([np.nan if e.quality is None else e.quality
                      for e in single]))

    return run
