"""In-process publish/subscribe event bus.

Substitute for the Particle RF network of the AwareOffice (see DESIGN.md):
appliances publish :class:`ContextEvent` objects on topics; subscribers
receive them synchronously in publication order.  Topic patterns support a
trailing ``*`` wildcard (``"context.*"``); the matching rule is shared
with the distributed broker (:mod:`repro.bus`) through
:func:`topic_matches`, so both buses route identically.

Delivery failures in one subscriber are isolated: they are recorded on the
bus (in a bounded ring — a flapping subscriber cannot grow memory without
bound over a long simulation) and do not prevent delivery to other
subscribers — a lost radio packet must not take the office down.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from ..exceptions import ConfigurationError
from .messages import ContextEvent

Handler = Callable[[ContextEvent], None]

#: Default bound on the recorded delivery-error ring.
MAX_DELIVERY_ERRORS = 256
#: Bound on the topic -> route memo; a bus fed ever-new topics clears
#: it rather than growing without bound.
MAX_ROUTES = 1024


def topic_matches(pattern: str, topic: str) -> bool:
    """Whether *pattern* routes *topic*.

    A pattern is either an exact topic or a prefix ending in ``*``; the
    bare pattern ``"*"`` matches every topic (including the empty one).
    ``"a*"`` matches the topic ``"a"`` itself — a prefix pattern always
    matches its own stem.
    """
    if pattern.endswith("*"):
        return topic.startswith(pattern[:-1])
    return topic == pattern


@dataclasses.dataclass(frozen=True)
class DeliveryError:
    """Record of a subscriber callback that raised during delivery."""

    topic: str
    event_id: int
    subscriber: str
    error: str


class EventBus:
    """Synchronous topic-based pub/sub with wildcard subscriptions.

    Parameters
    ----------
    max_delivery_errors:
        Bound on the retained :class:`DeliveryError` ring; older records
        are evicted (and counted in ``n_delivery_errors_dropped``) once
        the ring is full.
    """

    def __init__(self, max_delivery_errors: int = MAX_DELIVERY_ERRORS
                 ) -> None:
        if max_delivery_errors < 1:
            raise ConfigurationError(
                f"max_delivery_errors must be >= 1, got "
                f"{max_delivery_errors}")
        self._subscribers: List[Tuple[str, str, Handler]] = []
        # Topic -> its matching subscription entries, in subscription
        # order; cleared whenever the subscription list changes.
        self._routes: Dict[str, Tuple[Tuple[str, str, Handler], ...]] = {}
        self._delivery_errors: Deque[DeliveryError] = deque(
            maxlen=max_delivery_errors)
        self._errors_dropped: int = 0
        self._published: int = 0
        # Stack of per-publish tombstone maps (id -> subscription entry
        # removed mid-delivery); a stack because a handler may itself
        # publish re-entrantly.  Keeping the entry value lets subscribe
        # resurrect an equal re-subscription (continuity semantics).
        self._tombstones: List[Dict[int, Tuple[str, str, Handler]]] = []

    # ------------------------------------------------------------------
    def subscribe(self, pattern: str, handler: Handler,
                  name: str = "anonymous") -> None:
        """Register *handler* for topics matching *pattern*.

        A pattern is either an exact topic or a prefix ending in ``*``.
        """
        if not pattern:
            raise ConfigurationError("pattern must be non-empty")
        entry = (pattern, name, handler)
        self._subscribers.append(entry)
        self._routes.clear()
        # An unsubscribe immediately followed by an equal re-subscribe
        # within the same delivery is subscription *continuity*: lift
        # the matching tombstones so the refreshed entry still receives
        # the in-flight event (pinned by the reentrancy tests).
        for stones in self._tombstones:
            for key in [k for k, v in stones.items() if v == entry]:
                del stones[key]

    def unsubscribe(self, handler: Handler) -> int:
        """Remove every subscription using *handler*; returns the count.

        Equality (not identity) comparison is used so bound methods — which
        are recreated on each attribute access — unsubscribe correctly.
        """
        kept: List[Tuple[str, str, Handler]] = []
        removed: List[Tuple[str, str, Handler]] = []
        for entry in self._subscribers:
            (removed if entry[2] == handler else kept).append(entry)
        self._subscribers = kept
        self._routes.clear()
        if removed and self._tombstones:
            # Mark the removed entry objects dead for every publish
            # currently in flight, so delivery skips them in O(1)
            # instead of re-scanning the subscriber list per entry.
            for stones in self._tombstones:
                stones.update((id(entry), entry) for entry in removed)
        return len(removed)

    # ------------------------------------------------------------------
    def publish(self, event: ContextEvent) -> int:
        """Deliver *event* to all matching subscribers.

        Returns the number of successful deliveries.  Delivery iterates
        a snapshot -- the topic's memoized route, an immutable tuple --
        so handlers may subscribe or unsubscribe mid-event: new
        subscriptions only see the *next* event, and a subscription
        removed by an earlier handler is skipped instead of called on
        its way out (pinned by the reentrancy tests).
        """
        self._published += 1
        topic = event.topic
        route = self._routes.get(topic)
        if route is None:
            if len(self._routes) >= MAX_ROUTES:
                self._routes.clear()
            route = self._routes[topic] = tuple(
                entry for entry in self._subscribers
                if topic_matches(entry[0], topic))
        delivered = 0
        tombstones: Dict[int, Tuple[str, str, Handler]] = {}
        self._tombstones.append(tombstones)
        try:
            for entry in route:
                if id(entry) in tombstones:
                    continue
                _, name, handler = entry
                try:
                    handler(event)
                    delivered += 1
                except Exception as exc:  # noqa: BLE001 - isolation is the point
                    self._record_error(DeliveryError(
                        topic=event.topic, event_id=event.event_id,
                        subscriber=name, error=repr(exc)))
        finally:
            self._tombstones.pop()
        return delivered

    def _record_error(self, error: DeliveryError) -> None:
        if len(self._delivery_errors) == self._delivery_errors.maxlen:
            self._errors_dropped += 1
        self._delivery_errors.append(error)

    # ------------------------------------------------------------------
    @property
    def n_published(self) -> int:
        """Total events published on this bus."""
        return self._published

    @property
    def delivery_errors(self) -> List[DeliveryError]:
        """Errors raised by subscriber callbacks (isolated, recorded).

        Only the most recent ``max_delivery_errors`` records are kept;
        ``n_delivery_errors_dropped`` counts the evicted ones.
        """
        return list(self._delivery_errors)

    @property
    def n_delivery_errors_dropped(self) -> int:
        """Delivery-error records evicted from the bounded ring."""
        return self._errors_dropped

    def subscriber_names(self) -> Dict[str, List[str]]:
        """Mapping pattern -> subscriber names (diagnostics)."""
        out: Dict[str, List[str]] = {}
        for pattern, name, _ in self._subscribers:
            out.setdefault(pattern, []).append(name)
        return out

    def diagnostics(self) -> Dict[str, object]:
        """One JSON-safe view of the bus state for health reporting."""
        return {
            "n_published": self._published,
            "n_subscriptions": len(self._subscribers),
            "subscribers": self.subscriber_names(),
            "n_delivery_errors": len(self._delivery_errors),
            "n_delivery_errors_dropped": self._errors_dropped,
        }
