"""Request/response records and the JSONL wire format of the service.

One :class:`ServeRequest` is the serving-boundary form of the paper's
quality input vector ``v_Q = (v_1, ..., v_n, c)``: the cue vector plus —
optionally — a class identifier produced by an external black box.  When
``class_index`` is omitted the service runs the registered classifier
itself, mirroring :class:`repro.core.interconnection.
QualityAugmentedClassifier`.

A :class:`ServeResponse` carries everything the appliance needs to act:
the (possibly classifier-produced) class, the CQM ``q`` (``None`` is the
paper's error state ε), the gate's :class:`~repro.core.degradation.
GateAction` under the configured ε-policy, and the provenance fields
that make serving auditable — the package version that produced the
answer, the micro-batch size it rode in, and whether admission control
shed it before it ever reached a model.

Both records round-trip through single-line JSON so ``repro serve`` can
speak JSONL over stdin/stdout or a TCP socket with no framing beyond
newlines.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Dict, Optional

import numpy as np

from ..core.degradation import GateAction
from ..exceptions import ConfigurationError

#: Wire format tag included in every serialized line.
WIRE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One inference request entering the service.

    Attributes
    ----------
    request_id:
        Caller-chosen correlation id echoed back on the response.
    cues:
        The cue vector ``v_C``.
    class_index:
        Optional externally produced class identifier ``c``; when
        ``None`` the service's registered classifier predicts it.
    stream_key:
        Optional stable stream identity (appliance id, user id).  It is
        validated and round-trips on the wire; the service does not
        route on it.
    """

    request_id: int
    cues: np.ndarray
    class_index: Optional[int] = None
    stream_key: Optional[str] = None

    def __post_init__(self) -> None:
        cues = np.asarray(self.cues, dtype=float).ravel()
        object.__setattr__(self, "cues", cues)
        if cues.size == 0:
            raise ConfigurationError(
                f"request {self.request_id} has an empty cue vector")

    def to_json(self) -> str:
        doc: Dict[str, object] = {"id": int(self.request_id),
                                  "cues": self.cues.tolist()}
        if self.class_index is not None:
            doc["class_index"] = int(self.class_index)
        if self.stream_key is not None:
            doc["key"] = self.stream_key
        return json.dumps(doc)

    @classmethod
    def from_json(cls, line: str) -> "ServeRequest":
        """Decode one request line, rejecting what it would have to coerce.

        ``id`` (default 0) and ``class_index`` must be JSON integers, not
        booleans; ``cues`` a flat list of finite JSON numbers; ``key`` a
        string.  Anything else raises :class:`ConfigurationError`: a
        truncated ``1.7`` would get a q for a class the client never sent.
        """
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"request line is not valid JSON: {line!r}") from exc
        if not isinstance(doc, dict) or "cues" not in doc:
            raise ConfigurationError(
                f"request line must be an object with 'cues': {line!r}")
        request_id = doc.get("id", 0)
        class_index = doc.get("class_index")
        stream_key = doc.get("key")
        cues = doc["cues"]
        # json.loads yields exact int/float for numbers; type() excludes bool.
        if type(request_id) is not int:
            bad = "id"
        elif class_index is not None and type(class_index) is not int:
            bad = "class_index"
        elif stream_key is not None and type(stream_key) is not str:
            bad = "key"
        elif type(cues) is not list or not all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in cues):  # also rejects NaN, ±Infinity, 1e400
            bad = "cues"
        else:
            bad = None
        if bad is not None:
            raise ConfigurationError(
                f"request field {bad!r} is malformed: {line!r}")
        return cls(request_id=request_id, cues=cues,
                   class_index=class_index, stream_key=stream_key)


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """One gated inference result leaving the service.

    ``shed=True`` marks a request refused by admission control: it never
    reached a model, its quality is the error state ε (``None``) and its
    ``package_version`` is ``None`` — the serving-layer analogue of the
    paper's "no semantically correct statement about the quality is
    possible".  Every non-shed response is attributable to exactly one
    package version.
    """

    request_id: int
    class_index: Optional[int]
    class_name: Optional[str]
    quality: Optional[float]
    action: GateAction
    degraded: bool
    shed: bool
    package_version: Optional[int]
    batch_size: int
    latency_s: float

    @property
    def is_error_state(self) -> bool:
        """Whether the CQM reported ε for this response."""
        return self.quality is None

    @property
    def accepted(self) -> bool:
        return self.action is GateAction.ACCEPT

    def key(self) -> tuple:
        """The deterministic fields, for equivalence comparisons.

        Excludes ``latency_s``, ``batch_size`` and ``package_version`` —
        scheduling-dependent provenance that may legitimately differ
        between two runs producing the same answers.
        """
        return (self.request_id, self.class_index, self.quality,
                self.action, self.degraded, self.shed)

    def to_json(self) -> str:
        doc: Dict[str, object] = {
            "wire": WIRE_VERSION,
            "id": int(self.request_id),
            "class_index": self.class_index,
            "class": self.class_name,
            "q": self.quality,
            "action": self.action.value,
            "degraded": self.degraded,
            "shed": self.shed,
            "version": self.package_version,
            "batch_size": int(self.batch_size),
            "latency_ms": round(self.latency_s * 1e3, 4),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, line: str) -> "ServeResponse":
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"response line is not valid JSON: {line!r}") from exc
        return cls(
            request_id=int(doc["id"]),
            class_index=(None if doc.get("class_index") is None
                         else int(doc["class_index"])),
            class_name=doc.get("class"),
            quality=None if doc.get("q") is None else float(doc["q"]),
            action=GateAction(doc["action"]),
            degraded=bool(doc["degraded"]),
            shed=bool(doc["shed"]),
            package_version=(None if doc.get("version") is None
                             else int(doc["version"])),
            batch_size=int(doc.get("batch_size", 1)),
            latency_s=float(doc.get("latency_ms", 0.0)) / 1e3,
        )
