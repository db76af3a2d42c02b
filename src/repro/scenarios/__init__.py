"""Declarative scenario zoo: specs, registry, runner, golden traces.

See :mod:`repro.scenarios.spec` for the schema,
:mod:`repro.scenarios.registry` for discovery, and
:mod:`repro.scenarios.runner` for execution on either bus.
"""

from .registry import (clear, discover, get, iter_specs, load_scenario_file,
                       names, register)
from .runner import (ScenarioRunResult, capture_scenario_trace, run_scenario,
                     run_scenario_on)
from .spec import (ApplianceSpec, ClassifierSpec, FaultWindowSpec,
                   ScenarioSpec, SegmentSpec, SensorSpec, StyleSpec,
                   office_spec)

__all__ = [
    "ApplianceSpec",
    "ClassifierSpec",
    "FaultWindowSpec",
    "ScenarioRunResult",
    "ScenarioSpec",
    "SegmentSpec",
    "SensorSpec",
    "StyleSpec",
    "capture_scenario_trace",
    "clear",
    "discover",
    "get",
    "iter_specs",
    "load_scenario_file",
    "names",
    "office_spec",
    "register",
    "run_scenario",
    "run_scenario_on",
]
