"""Declarative scenario specifications with strict schema validation.

A scenario is data, not code: sensors (with activity mixes and fault
schedules), appliances wired into a graph, classifiers, and q-gated
actions are all described by frozen dataclasses that load from plain
dicts (and therefore YAML).  Validation is strict and actionable —
unknown fields, dangling references and cyclic appliance graphs raise
:class:`~repro.exceptions.ScenarioError` naming the offending field —
following the argument of Bertossi & Rizzolo that data quality must be
assessed *relative to an explicit context specification*.

Round-trip guarantee: for any valid spec ``s``,
``ScenarioSpec.from_dict(s.to_dict()) == s`` exactly (pinned by the
hypothesis property tests).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..datasets.dsl import STYLES
from ..exceptions import ConfigurationError, ScenarioError
from ..sensors.accelerometer import UserStyle
from ..sensors.faults import (DropoutFault, FaultInjectingSensor,
                              FaultSchedule, JitterFault,
                              MiscalibrationFault, NoiseBurstFault,
                              SaturationFault, ScheduledFault, SpikeFault,
                              StuckAtFault)
from ..sensors.node import Segment, SensorNode
from ..sensors.signal import SensorModel

#: Declarable fault kinds -> fault model classes (all reused from
#: :mod:`repro.sensors.faults`).
FAULT_KINDS = {
    "dropout": DropoutFault,
    "stuck": StuckAtFault,
    "spikes": SpikeFault,
    "noise-burst": NoiseBurstFault,
    "saturation": SaturationFault,
    "jitter": JitterFault,
    "miscalibration": MiscalibrationFault,
}

#: Declarable classifier kinds and the parameters each accepts.
CLASSIFIER_KINDS = {
    "tsk": ("radius",),
    "centroid": (),
    "knn": ("k",),
    "mlp": ("hidden", "epochs", "seed"),
    "ensemble": (),
}

SENSOR_FAMILIES = ("pen", "chair")
APPLIANCE_KINDS = ("pen", "chair", "camera", "situation", "display")
_SENSING_KINDS = ("pen", "chair")
_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")

Params = Tuple[Tuple[str, float], ...]


# ----------------------------------------------------------------------
# strict-dict helpers
def _check_fields(payload: Mapping[str, Any], allowed: Sequence[str],
                  where: str) -> None:
    if not isinstance(payload, Mapping):
        raise ScenarioError(f"{where}: expected a mapping, got "
                            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown field(s) {unknown}; "
            f"allowed fields: {sorted(allowed)}")


def _require(payload: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in payload:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return payload[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"{where}: expected a number, got {value!r}")
    return value


def _text(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: expected a string, got {value!r}")
    return value


def _freeze_params(value: Any, where: str) -> Params:
    if not isinstance(value, Mapping):
        raise ScenarioError(
            f"{where}: params must be a mapping of name -> number")
    items = []
    for key in sorted(value):
        items.append((_text(key, where), _number(value[key],
                                                 f"{where}: param {key!r}")))
    return tuple(items)


def _name(value: Any, where: str) -> str:
    text = _text(value, where)
    if not _NAME_RE.match(text):
        raise ScenarioError(
            f"{where}: name {text!r} must match {_NAME_RE.pattern}")
    return text


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FaultWindowSpec:
    """One scheduled fault: kind, time window, intensity, parameters."""

    kind: str
    start_s: float = 0.0
    end_s: Optional[float] = None
    intensity: float = 1.0
    params: Params = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(
                f"fault kind {self.kind!r} is unknown; "
                f"available: {sorted(FAULT_KINDS)}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ScenarioError(
                f"fault {self.kind!r}: intensity must be in [0, 1], "
                f"got {self.intensity}")
        fault_cls = FAULT_KINDS[self.kind]
        fields = {f.name: f for f in dataclasses.fields(fault_cls)}
        for key, value in self.params:
            if key not in fields:
                raise ScenarioError(
                    f"fault {self.kind!r}: unknown param {key!r}; "
                    f"available: {sorted(fields)}")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "fault") -> "FaultWindowSpec":
        _check_fields(payload, ("kind", "start_s", "end_s", "intensity",
                                "params"), where)
        kind = _text(_require(payload, "kind", where), where)
        end_s = payload.get("end_s")
        return cls(
            kind=kind,
            start_s=_number(payload.get("start_s", 0.0), f"{where}.start_s"),
            end_s=None if end_s is None else _number(end_s, f"{where}.end_s"),
            intensity=_number(payload.get("intensity", 1.0),
                              f"{where}.intensity"),
            params=_freeze_params(payload.get("params", {}),
                                  f"{where}.params"),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.start_s != 0.0:
            out["start_s"] = self.start_s
        if self.end_s is not None:
            out["end_s"] = self.end_s
        if self.intensity != 1.0:
            out["intensity"] = self.intensity
        if self.params:
            out["params"] = dict(self.params)
        return out

    def build(self) -> ScheduledFault:
        """Construct the :class:`ScheduledFault` this spec declares."""
        fault_cls = FAULT_KINDS[self.kind]
        fields = {f.name: f for f in dataclasses.fields(fault_cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in self.params:
            default = fields[key].default
            if isinstance(default, int) and not isinstance(default, bool):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        try:
            fault = fault_cls(**kwargs).scaled(self.intensity)
            return ScheduledFault(fault=fault, start_s=self.start_s,
                                  end_s=self.end_s)
        except ScenarioError:
            raise
        except ConfigurationError as exc:
            raise ScenarioError(f"fault {self.kind!r}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class SegmentSpec:
    """One activity stretch: what, for how long, in which style."""

    activity: str
    duration_s: float
    style: str = "default"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ScenarioError(
                f"segment {self.activity!r}: duration_s must be > 0, "
                f"got {self.duration_s}")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "segment") -> "SegmentSpec":
        _check_fields(payload, ("activity", "duration_s", "style"), where)
        return cls(
            activity=_text(_require(payload, "activity", where),
                           f"{where}.activity"),
            duration_s=_number(_require(payload, "duration_s", where),
                               f"{where}.duration_s"),
            style=_text(payload.get("style", "default"), f"{where}.style"),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"activity": self.activity,
                               "duration_s": self.duration_s}
        if self.style != "default":
            out["style"] = self.style
        return out


@dataclasses.dataclass(frozen=True)
class StyleSpec:
    """A scenario-local user style (novel handling patterns / OOD users)."""

    name: str
    amplitude_scale: float = 1.0
    tempo_scale: float = 1.0
    tremor: float = 0.01
    pause_probability: float = 0.1

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "style") -> "StyleSpec":
        _check_fields(payload, ("name", "amplitude_scale", "tempo_scale",
                                "tremor", "pause_probability"), where)
        name = _name(_require(payload, "name", where), f"{where}.name")
        return cls(
            name=name,
            amplitude_scale=_number(payload.get("amplitude_scale", 1.0),
                                    f"{where}.amplitude_scale"),
            tempo_scale=_number(payload.get("tempo_scale", 1.0),
                                f"{where}.tempo_scale"),
            tremor=_number(payload.get("tremor", 0.01), f"{where}.tremor"),
            pause_probability=_number(payload.get("pause_probability", 0.1),
                                      f"{where}.pause_probability"),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        for field, default in (("amplitude_scale", 1.0), ("tempo_scale", 1.0),
                               ("tremor", 0.01), ("pause_probability", 0.1)):
            value = getattr(self, field)
            if value != default:
                out[field] = value
        return out

    def build(self) -> UserStyle:
        """Construct the :class:`UserStyle` (validates its invariants)."""
        try:
            return UserStyle(amplitude_scale=self.amplitude_scale,
                             tempo_scale=self.tempo_scale,
                             tremor=self.tremor,
                             pause_probability=self.pause_probability)
        except ConfigurationError as exc:
            raise ScenarioError(f"style {self.name!r}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class SensorSpec:
    """One sensor stream: family, activity mix, node and fault schedule."""

    name: str
    family: str
    segments: Tuple[SegmentSpec, ...]
    rate_hz: float = 100.0
    window: int = 100
    hop: int = 50
    transition_s: float = 0.5
    noise_std: float = 0.02
    bias_walk_std: float = 0.0005
    faults: Tuple[FaultWindowSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in SENSOR_FAMILIES:
            raise ScenarioError(
                f"sensor {self.name!r}: family {self.family!r} is unknown; "
                f"available: {sorted(SENSOR_FAMILIES)}")
        if not self.segments:
            raise ScenarioError(
                f"sensor {self.name!r}: needs at least one segment")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "sensor") -> "SensorSpec":
        _check_fields(payload, ("name", "family", "segments", "rate_hz",
                                "window", "hop", "transition_s", "noise_std",
                                "bias_walk_std", "faults"), where)
        name = _name(_require(payload, "name", where), f"{where}.name")
        where = f"sensor {name!r}"
        raw_segments = _require(payload, "segments", where)
        if not isinstance(raw_segments, Sequence) or isinstance(
                raw_segments, (str, bytes)):
            raise ScenarioError(f"{where}: segments must be a list")
        segments = tuple(
            SegmentSpec.from_dict(seg, f"{where}: segment[{i}]")
            for i, seg in enumerate(raw_segments))
        raw_faults = payload.get("faults", ())
        if not isinstance(raw_faults, Sequence) or isinstance(
                raw_faults, (str, bytes)):
            raise ScenarioError(f"{where}: faults must be a list")
        faults = tuple(
            FaultWindowSpec.from_dict(f, f"{where}: fault[{i}]")
            for i, f in enumerate(raw_faults))
        return cls(
            name=name,
            family=_text(_require(payload, "family", where),
                         f"{where}.family"),
            segments=segments,
            rate_hz=_number(payload.get("rate_hz", 100.0),
                            f"{where}.rate_hz"),
            window=int(_number(payload.get("window", 100),
                               f"{where}.window")),
            hop=int(_number(payload.get("hop", 50), f"{where}.hop")),
            transition_s=_number(payload.get("transition_s", 0.5),
                                 f"{where}.transition_s"),
            noise_std=_number(payload.get("noise_std", 0.02),
                              f"{where}.noise_std"),
            bias_walk_std=_number(payload.get("bias_walk_std", 0.0005),
                                  f"{where}.bias_walk_std"),
            faults=faults,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "family": self.family,
            "segments": [s.to_dict() for s in self.segments],
        }
        for field, default in (("rate_hz", 100.0), ("window", 100),
                               ("hop", 50), ("transition_s", 0.5),
                               ("noise_std", 0.02),
                               ("bias_walk_std", 0.0005)):
            value = getattr(self, field)
            if value != default:
                out[field] = value
        if self.faults:
            out["faults"] = [f.to_dict() for f in self.faults]
        return out

    def build_node(self) -> SensorNode:
        """Construct the :class:`SensorNode` (with fault injection)."""
        base = SensorModel(noise_std=self.noise_std,
                           bias_walk_std=self.bias_walk_std)
        fault = (FaultSchedule(tuple(f.build() for f in self.faults))
                 if self.faults else None)
        try:
            sensor = FaultInjectingSensor(base=base, fault=fault,
                                          rate_hz=self.rate_hz)
            return SensorNode(rate_hz=self.rate_hz, window=self.window,
                              hop=self.hop, sensor=sensor,
                              transition_s=self.transition_s)
        except ScenarioError:
            raise
        except ConfigurationError as exc:
            raise ScenarioError(f"sensor {self.name!r}: {exc}") from exc

    def build_segments(self, styles: Mapping[str, UserStyle],
                       models: Mapping[str, Any]) -> List[Segment]:
        """Resolve segment specs against activity and style registries."""
        segments: List[Segment] = []
        for spec in self.segments:
            if spec.activity not in models:
                raise ScenarioError(
                    f"sensor {self.name!r}: unknown activity "
                    f"{spec.activity!r} for family {self.family!r}; "
                    f"available: {sorted(models)}")
            if spec.style not in styles:
                raise ScenarioError(
                    f"sensor {self.name!r}: unknown style {spec.style!r}; "
                    f"available: {sorted(styles)}")
            segments.append(Segment(model=models[spec.activity],
                                    duration_s=spec.duration_s,
                                    style=styles[spec.style]))
        return segments


@dataclasses.dataclass(frozen=True)
class ClassifierSpec:
    """Which black-box classifier backs a sensing appliance."""

    kind: str = "tsk"
    params: Params = ()
    members: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CLASSIFIER_KINDS:
            raise ScenarioError(
                f"classifier kind {self.kind!r} is unknown; "
                f"available: {sorted(CLASSIFIER_KINDS)}")
        allowed = CLASSIFIER_KINDS[self.kind]
        for key, _ in self.params:
            if key not in allowed:
                raise ScenarioError(
                    f"classifier {self.kind!r}: unknown param {key!r}; "
                    f"available: {sorted(allowed)}")
        if self.kind == "ensemble":
            if len(self.members) < 2:
                raise ScenarioError(
                    "classifier 'ensemble' needs >= 2 members, got "
                    f"{len(self.members)}")
            for member in self.members:
                if member not in CLASSIFIER_KINDS or member == "ensemble":
                    raise ScenarioError(
                        f"ensemble member {member!r} must be a "
                        "non-ensemble classifier kind; available: "
                        f"{sorted(set(CLASSIFIER_KINDS) - {'ensemble'})}")
        elif self.members:
            raise ScenarioError(
                f"classifier {self.kind!r} does not take members")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "classifier") -> "ClassifierSpec":
        _check_fields(payload, ("kind", "params", "members"), where)
        raw_members = payload.get("members", ())
        if not isinstance(raw_members, Sequence) or isinstance(
                raw_members, (str, bytes)):
            raise ScenarioError(f"{where}: members must be a list")
        return cls(
            kind=_text(payload.get("kind", "tsk"), f"{where}.kind"),
            params=_freeze_params(payload.get("params", {}),
                                  f"{where}.params"),
            members=tuple(_text(m, f"{where}.members") for m in raw_members),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        if self.members:
            out["members"] = list(self.members)
        return out


@dataclasses.dataclass(frozen=True)
class ApplianceSpec:
    """One node of the appliance graph and its q-gated behaviour."""

    name: str
    kind: str
    sensor: Optional[str] = None
    topic: Optional[str] = None
    inputs: Tuple[str, ...] = ()
    gated: bool = True
    threshold: Optional[float] = None
    min_session_events: int = 2
    min_quality: float = 0.0
    classifier: Optional[ClassifierSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in APPLIANCE_KINDS:
            raise ScenarioError(
                f"appliance {self.name!r}: kind {self.kind!r} is unknown; "
                f"available: {sorted(APPLIANCE_KINDS)}")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ScenarioError(
                f"appliance {self.name!r}: threshold must be in [0, 1], "
                f"got {self.threshold}")
        if self.min_session_events < 1:
            raise ScenarioError(
                f"appliance {self.name!r}: min_session_events must be >= 1, "
                f"got {self.min_session_events}")
        if not 0.0 <= self.min_quality <= 1.0:
            raise ScenarioError(
                f"appliance {self.name!r}: min_quality must be in [0, 1], "
                f"got {self.min_quality}")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "appliance") -> "ApplianceSpec":
        _check_fields(payload, ("name", "kind", "sensor", "topic", "inputs",
                                "gated", "threshold", "min_session_events",
                                "min_quality", "classifier"), where)
        name = _name(_require(payload, "name", where), f"{where}.name")
        where = f"appliance {name!r}"
        raw_inputs = payload.get("inputs", ())
        if not isinstance(raw_inputs, Sequence) or isinstance(
                raw_inputs, (str, bytes)):
            raise ScenarioError(f"{where}: inputs must be a list")
        gated = payload.get("gated", True)
        if not isinstance(gated, bool):
            raise ScenarioError(f"{where}: gated must be true/false, "
                                f"got {gated!r}")
        sensor = payload.get("sensor")
        topic = payload.get("topic")
        threshold = payload.get("threshold")
        classifier = payload.get("classifier")
        return cls(
            name=name,
            kind=_text(_require(payload, "kind", where), f"{where}.kind"),
            sensor=None if sensor is None else _text(sensor,
                                                     f"{where}.sensor"),
            topic=None if topic is None else _text(topic, f"{where}.topic"),
            inputs=tuple(_text(i, f"{where}.inputs") for i in raw_inputs),
            gated=gated,
            threshold=(None if threshold is None
                       else _number(threshold, f"{where}.threshold")),
            min_session_events=int(_number(
                payload.get("min_session_events", 2),
                f"{where}.min_session_events")),
            min_quality=_number(payload.get("min_quality", 0.0),
                                f"{where}.min_quality"),
            classifier=(None if classifier is None else
                        ClassifierSpec.from_dict(classifier,
                                                 f"{where}.classifier")),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.sensor is not None:
            out["sensor"] = self.sensor
        if self.topic is not None:
            out["topic"] = self.topic
        if self.inputs:
            out["inputs"] = list(self.inputs)
        if not self.gated:
            out["gated"] = False
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.min_session_events != 2:
            out["min_session_events"] = self.min_session_events
        if self.min_quality != 0.0:
            out["min_quality"] = self.min_quality
        if self.classifier is not None:
            out["classifier"] = self.classifier.to_dict()
        return out

    def resolved_topic(self) -> str:
        """The bus topic a sensing appliance publishes on."""
        return self.topic if self.topic is not None else f"context.{self.name}"


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    sensors: Tuple[SensorSpec, ...]
    appliances: Tuple[ApplianceSpec, ...]
    description: str = ""
    classifier: ClassifierSpec = ClassifierSpec()
    styles: Tuple[StyleSpec, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ScenarioError(
                f"scenario name {self.name!r} must match {_NAME_RE.pattern}")
        if not self.sensors:
            raise ScenarioError(
                f"scenario {self.name!r}: needs at least one sensor")
        if not self.appliances:
            raise ScenarioError(
                f"scenario {self.name!r}: needs at least one appliance")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        where = "scenario"
        _check_fields(payload, ("name", "description", "sensors",
                                "appliances", "classifier", "styles"), where)
        name = _name(_require(payload, "name", where), f"{where}.name")
        where = f"scenario {name!r}"

        def _list(key: str, required: bool) -> Sequence[Any]:
            raw = (_require(payload, key, where) if required
                   else payload.get(key, ()))
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise ScenarioError(f"{where}: {key} must be a list")
            return raw

        sensors = tuple(SensorSpec.from_dict(s, f"{where}: sensor[{i}]")
                        for i, s in enumerate(_list("sensors", True)))
        appliances = tuple(
            ApplianceSpec.from_dict(a, f"{where}: appliance[{i}]")
            for i, a in enumerate(_list("appliances", True)))
        styles = tuple(StyleSpec.from_dict(s, f"{where}: style[{i}]")
                       for i, s in enumerate(_list("styles", False)))
        classifier = payload.get("classifier")
        return cls(
            name=name,
            sensors=sensors,
            appliances=appliances,
            description=_text(payload.get("description", ""),
                              f"{where}.description"),
            classifier=(ClassifierSpec() if classifier is None else
                        ClassifierSpec.from_dict(classifier,
                                                 f"{where}.classifier")),
            styles=styles,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["sensors"] = [s.to_dict() for s in self.sensors]
        out["appliances"] = [a.to_dict() for a in self.appliances]
        if self.classifier != ClassifierSpec():
            out["classifier"] = self.classifier.to_dict()
        if self.styles:
            out["styles"] = [s.to_dict() for s in self.styles]
        return out

    # ------------------------------------------------------------------
    def resolved_styles(self) -> Dict[str, UserStyle]:
        """Builtin styles merged with (validated) scenario-local ones."""
        styles = dict(STYLES)
        for spec in self.styles:
            styles[spec.name] = spec.build()
        return styles

    def appliance(self, name: str) -> ApplianceSpec:
        for app in self.appliances:
            if app.name == name:
                return app
        raise ScenarioError(
            f"scenario {self.name!r}: no appliance named {name!r}")

    def sensing_appliances(self) -> Tuple[ApplianceSpec, ...]:
        return tuple(a for a in self.appliances if a.kind in _SENSING_KINDS)

    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Cross-reference validation; returns self for chaining."""
        where = f"scenario {self.name!r}"
        from .activities import FAMILY_MODELS  # local: avoids cycle

        sensor_names = [s.name for s in self.sensors]
        if len(set(sensor_names)) != len(sensor_names):
            raise ScenarioError(f"{where}: sensor names must be unique, "
                                f"got {sensor_names}")
        app_names = [a.name for a in self.appliances]
        if len(set(app_names)) != len(app_names):
            raise ScenarioError(f"{where}: appliance names must be unique, "
                                f"got {app_names}")
        style_names = [s.name for s in self.styles]
        if len(set(style_names)) != len(style_names):
            raise ScenarioError(f"{where}: style names must be unique, "
                                f"got {style_names}")
        shadowed = sorted(set(style_names) & set(STYLES))
        if shadowed:
            raise ScenarioError(
                f"{where}: style(s) {shadowed} shadow builtin styles "
                f"{sorted(STYLES)}; pick different names")

        # Sensors: activities, styles and faults must be constructible.
        styles = self.resolved_styles()
        for sensor in self.sensors:
            sensor.build_segments(styles, FAMILY_MODELS[sensor.family])
            sensor.build_node()

        # Appliance graph: references first, then cycles, then kind rules.
        by_name = {a.name: a for a in self.appliances}
        for app in self.appliances:
            for ref in app.inputs:
                if ref not in by_name:
                    raise ScenarioError(
                        f"{where}: appliance {app.name!r} inputs dangling "
                        f"reference {ref!r}; appliances: {sorted(by_name)}")
                if ref == app.name:
                    raise ScenarioError(
                        f"{where}: appliance {app.name!r} cannot input "
                        "itself")
        self._check_acyclic(by_name, where)

        sensors_by_name = {s.name: s for s in self.sensors}
        used: Dict[str, str] = {}
        topics: Dict[str, str] = {}
        for app in self.appliances:
            self._check_kind_rules(app, by_name, sensors_by_name, where)
            if app.kind in _SENSING_KINDS:
                used.setdefault(app.sensor, app.name)
                if used[app.sensor] != app.name:
                    raise ScenarioError(
                        f"{where}: sensor {app.sensor!r} is attached to "
                        f"both {used[app.sensor]!r} and {app.name!r}; "
                        "each sensor feeds exactly one appliance")
                topic = app.resolved_topic()
                if topic in topics:
                    raise ScenarioError(
                        f"{where}: topic {topic!r} is published by both "
                        f"{topics[topic]!r} and {app.name!r}; sensing "
                        "topics must be unique")
                topics[topic] = app.name
        unused = sorted(set(sensors_by_name) - set(used))
        if unused:
            raise ScenarioError(
                f"{where}: sensor(s) {unused} are not attached to any "
                "sensing appliance")
        return self

    def _check_acyclic(self, by_name: Mapping[str, ApplianceSpec],
                       where: str) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in by_name}

        def visit(name: str, trail: List[str]) -> None:
            color[name] = GREY
            trail.append(name)
            for ref in by_name[name].inputs:
                if color[ref] == GREY:
                    cycle = trail[trail.index(ref):] + [ref]
                    raise ScenarioError(
                        f"{where}: appliance graph has a cycle: "
                        f"{' -> '.join(cycle)}")
                if color[ref] == WHITE:
                    visit(ref, trail)
            trail.pop()
            color[name] = BLACK

        for name in sorted(by_name):
            if color[name] == WHITE:
                visit(name, [])

    def _check_kind_rules(self, app: ApplianceSpec,
                          by_name: Mapping[str, ApplianceSpec],
                          sensors: Mapping[str, SensorSpec],
                          where: str) -> None:
        prefix = f"{where}: appliance {app.name!r} ({app.kind})"

        def require_default(field: str, default: Any) -> None:
            if getattr(app, field) != default:
                raise ScenarioError(
                    f"{prefix}: field {field!r} does not apply to kind "
                    f"{app.kind!r}; leave it at its default ({default!r})")

        if app.kind in _SENSING_KINDS:
            if app.sensor is None:
                raise ScenarioError(f"{prefix}: needs a sensor reference")
            if app.sensor not in sensors:
                raise ScenarioError(
                    f"{prefix}: dangling sensor reference {app.sensor!r}; "
                    f"sensors: {sorted(sensors)}")
            if sensors[app.sensor].family != app.kind:
                raise ScenarioError(
                    f"{prefix}: sensor {app.sensor!r} has family "
                    f"{sensors[app.sensor].family!r}, expected {app.kind!r}")
            if not app.resolved_topic().startswith("context."):
                raise ScenarioError(
                    f"{prefix}: topic {app.resolved_topic()!r} must start "
                    "with 'context.'")
            require_default("inputs", ())
            require_default("gated", True)
            require_default("threshold", None)
            require_default("min_session_events", 2)
            require_default("min_quality", 0.0)
        else:
            require_default("sensor", None)
            require_default("classifier", None)
            if app.kind == "camera":
                if len(app.inputs) != 1:
                    raise ScenarioError(
                        f"{prefix}: needs exactly one input (the pen it "
                        f"listens to), got {list(app.inputs)}")
                source = by_name[app.inputs[0]]
                if source.kind != "pen":
                    raise ScenarioError(
                        f"{prefix}: input {source.name!r} has kind "
                        f"{source.kind!r}, expected 'pen'")
                require_default("topic", None)
                require_default("min_quality", 0.0)
            elif app.kind == "situation":
                kinds = sorted(by_name[ref].kind for ref in app.inputs)
                if kinds != ["chair", "pen"]:
                    raise ScenarioError(
                        f"{prefix}: needs exactly one pen and one chair "
                        f"input, got kinds {kinds}")
                require_default("topic", None)
                require_default("gated", True)
                require_default("threshold", None)
                require_default("min_session_events", 2)
            elif app.kind == "display":
                require_default("topic", None)
                require_default("gated", True)
                require_default("threshold", None)
                require_default("min_session_events", 2)
                require_default("min_quality", 0.0)


# ----------------------------------------------------------------------
def office_spec(segments: Sequence[Segment], gated: bool = True
                ) -> ScenarioSpec:
    """The paper's one-pen office as a spec: an AwarePen whose q gates
    (or, with ``gated=False``, does not gate) a whiteboard camera.

    Each :class:`Segment` converts by name: its activity is the model's
    context name in the pen registry, its style the name it has in
    :data:`repro.datasets.dsl.STYLES`.  A model or style not registered
    under those names raises :class:`ScenarioError`.
    """
    from .activities import FAMILY_MODELS  # local: avoids cycle

    models = FAMILY_MODELS["pen"]
    specs = []
    for i, seg in enumerate(segments):
        activity = seg.model.context.name
        if models.get(activity) is not seg.model:
            raise ScenarioError(
                f"office segment[{i}]: activity model {activity!r} is not "
                f"the registered pen model; available: {sorted(models)}")
        style = next((name for name, s in STYLES.items()
                      if s == seg.style), None)
        if style is None:
            raise ScenarioError(
                f"office segment[{i}]: style {seg.style!r} is not a named "
                f"style; available: {sorted(STYLES)}")
        specs.append(SegmentSpec(activity=activity,
                                 duration_s=seg.duration_s, style=style))
    return ScenarioSpec(
        name="office",
        description="The one-pen office: AwarePen and whiteboard camera.",
        sensors=(SensorSpec(name="pen-accel", family="pen",
                            segments=tuple(specs)),),
        appliances=(
            ApplianceSpec(name="awarepen", kind="pen", sensor="pen-accel",
                          topic="context.pen"),
            ApplianceSpec(name="whiteboard-camera", kind="camera",
                          inputs=("awarepen",), gated=gated),
        ))
