"""Context-event messages exchanged between appliances.

"The detected situation information is then distributed to other
appliances in the AwareOffice environment" (paper section 1).  A
:class:`ContextEvent` is the unit of that distribution: the source
appliance, the classified context and — the paper's contribution — the
attached Context Quality Measure.

Event identity is the pair ``(source, seq)``: every publisher owns a
monotonic sequence counter for its own events, so identities are stable
across processes and replay (a module-global counter would collide the
moment two appliance processes publish concurrently).  ``event_id``
remains available for backward compatibility as a *derived* field,
computed deterministically from ``(source, seq)`` — equal on every host
that sees the same event.

Events cross process boundaries as plain JSON objects via
:meth:`ContextEvent.to_wire` / :meth:`ContextEvent.from_wire`; the wire
form carries ``quality: null`` for the error state ε.  Each event is
validated once per process boundary: a :class:`CheckedWire` is the wire
form of an event that has already passed :meth:`ContextEvent.from_wire`,
so in-process consumers take its event instead of parsing it again.
"""

from __future__ import annotations

import itertools
import dataclasses
import sys
import threading
import zlib
from collections.abc import Mapping
from typing import Dict, Iterator, Optional

from ..exceptions import ConfigurationError
from ..types import ContextClass

#: Bits of ``event_id`` reserved for the per-source sequence number.
#: 2**40 events per source is ~35 years of 1 kHz publishing.
SEQ_BITS = 40


def derive_event_id(source: str, seq: int) -> int:
    """Deterministic integer identity for the event ``(source, seq)``.

    The source name hashes (CRC-32) into the high bits and the sequence
    number occupies the low :data:`SEQ_BITS`, so ids stay monotonic per
    source while distinct sources land in distinct id ranges.
    """
    return (zlib.crc32(source.encode("utf-8")) << SEQ_BITS) | (
        seq & ((1 << SEQ_BITS) - 1))


# Fallback sequencers for ad-hoc ``ContextEvent.create`` calls that do
# not pass an explicit ``seq`` (appliances own their counters; see
# ``Appliance.publish_context``).  Per-source, so two sources never race
# each other's numbering the way the old module-global counter did.
_fallback_lock = threading.Lock()
_fallback_counters: Dict[str, "Iterator[int]"] = {}


def _fallback_seq(source: str) -> int:
    with _fallback_lock:
        counter = _fallback_counters.setdefault(source, itertools.count(1))
        return next(counter)


def reset_fallback_sequencers() -> None:
    """Forget the ad-hoc per-source counters (test isolation hook)."""
    with _fallback_lock:
        _fallback_counters.clear()


@dataclasses.dataclass(frozen=True)
class ContextEvent:
    """One published context observation.

    Attributes
    ----------
    event_id:
        Derived identifier; equals ``derive_event_id(source, seq)`` for
        every event built through :meth:`create` or :meth:`from_wire`.
    source:
        Name of the publishing appliance, e.g. ``"awarepen"``.
    topic:
        Routing topic, e.g. ``"context.pen"``.
    context:
        The classified context.
    quality:
        The CQM ``q``; ``None`` means the error state epsilon.
    time_s:
        Simulation timestamp of the underlying sensor window.
    seq:
        Publisher-owned monotonic sequence number (identity with
        ``source``; consumers dedupe redeliveries on this pair).
    """

    event_id: int
    source: str
    topic: str
    context: ContextClass
    quality: Optional[float]
    time_s: float
    seq: int = 0

    @classmethod
    def create(cls, source: str, topic: str, context: ContextClass,
               quality: Optional[float], time_s: float,
               seq: Optional[int] = None) -> "ContextEvent":
        """Build an event with a fresh (or caller-owned) identity.

        Publishers that own a sequence counter pass ``seq`` explicitly;
        without it a process-local per-source counter allocates one.
        """
        if seq is None:
            seq = _fallback_seq(source)
        return cls(event_id=derive_event_id(source, seq), source=source,
                   topic=topic, context=context, quality=quality,
                   time_s=time_s, seq=seq)

    @property
    def has_quality(self) -> bool:
        """False when the quality is the epsilon error state."""
        return self.quality is not None

    # -- wire form -----------------------------------------------------
    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict carrying the event's full identity and payload."""
        return {
            "source": self.source,
            "seq": int(self.seq),
            "topic": self.topic,
            "context": {"index": int(self.context.index),
                        "name": self.context.name},
            "quality": None if self.quality is None else float(self.quality),
            "time_s": float(self.time_s),
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, object]) -> "ContextEvent":
        """Rebuild an event from its wire form; validates every field.

        ``event_id`` is re-derived from ``(source, seq)``, so a wire
        round-trip of any :meth:`create`-built event is exact equality.
        """
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"event wire form must be an object, got {type(doc).__name__}")
        source = doc.get("source")
        if not isinstance(source, str) or not source:
            raise ConfigurationError(
                f"event source must be a non-empty string, got {source!r}")
        seq = doc.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ConfigurationError(
                f"event seq must be an int >= 0, got {seq!r}")
        topic = doc.get("topic")
        if not isinstance(topic, str):
            raise ConfigurationError(
                f"event topic must be a string, got {topic!r}")
        context = doc.get("context")
        if not isinstance(context, Mapping):
            raise ConfigurationError(
                f"event context must be an object, got {context!r}")
        index = context.get("index")
        if not isinstance(index, int) or isinstance(index, bool):
            raise ConfigurationError(
                f"event context index must be an int, got {index!r}")
        name = context.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"event context name must be a non-empty string, got "
                f"{name!r}")
        try:
            ctx = ContextClass(index=index, name=name)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad event context {dict(context)!r}: {exc}") from exc
        quality = doc.get("quality")
        if quality is not None:
            quality = _finite_float(quality)
            if quality is None or not 0.0 <= quality <= 1.0:
                raise ConfigurationError(
                    f"event quality must be a number in [0, 1] or null "
                    f"(epsilon), got {doc.get('quality')!r}")
        time_s = _finite_float(doc.get("time_s", 0.0))
        if time_s is None:
            raise ConfigurationError(
                f"event time_s must be a finite number, got "
                f"{doc.get('time_s')!r}")
        return cls.create(source=source, topic=topic, context=ctx,
                          quality=quality, time_s=time_s, seq=seq)


def _finite_float(value: object) -> Optional[float]:
    """*value* as a float if it is a finite JSON number (a bool is not)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # NaN compares False
        return float(value)
    return None


class CheckedWire(dict):
    """The canonical wire form of an event that has passed validation.

    To ``json`` and to every frame consumer this is the plain dict of
    :meth:`ContextEvent.to_wire`, so it encodes byte-identically; an
    in-process consumer reads :attr:`event` instead of calling
    :meth:`ContextEvent.from_wire` on the same fields again.  Only the
    code that just validated the event builds one (the broker's publish),
    and nothing may mutate it afterwards.  A frame read off a socket is a
    plain dict again and is parsed and validated on arrival.
    """

    __slots__ = ("event",)

    def __init__(self, event: ContextEvent) -> None:
        super().__init__(event.to_wire())
        self.event = event
