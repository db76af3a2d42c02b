"""Tests for repro.appliances.bus and messages."""

import pytest

from repro.appliances.bus import EventBus, topic_matches
from repro.appliances.messages import ContextEvent, derive_event_id
from repro.exceptions import ConfigurationError
from repro.types import ContextClass

CTX = ContextClass(1, "writing")


def make_event(topic="context.pen", quality=0.9):
    return ContextEvent.create(source="pen", topic=topic, context=CTX,
                               quality=quality, time_s=1.0)


class TestContextEvent:
    def test_ids_monotonic(self):
        a = make_event()
        b = make_event()
        assert b.event_id > a.event_id

    def test_has_quality(self):
        assert make_event(quality=0.5).has_quality
        assert not make_event(quality=None).has_quality

    def test_identity_is_source_and_seq(self):
        a = ContextEvent.create(source="pen-a", topic="t", context=CTX,
                                quality=0.5, time_s=0.0, seq=3)
        b = ContextEvent.create(source="pen-b", topic="t", context=CTX,
                                quality=0.5, time_s=0.0, seq=3)
        assert a.event_id != b.event_id
        assert a.event_id == derive_event_id("pen-a", 3)


class TestWireRoundTrip:
    def test_exact_roundtrip(self):
        event = ContextEvent.create(source="awarepen", topic="context.pen",
                                    context=CTX, quality=0.654321,
                                    time_s=12.5, seq=41)
        assert ContextEvent.from_wire(event.to_wire()) == event

    def test_epsilon_quality_roundtrip(self):
        event = make_event(quality=None)
        wire = event.to_wire()
        assert wire["quality"] is None
        restored = ContextEvent.from_wire(wire)
        assert restored == event
        assert not restored.has_quality

    @pytest.mark.parametrize("mutation", [
        {"source": ""},
        {"source": 7},
        {"seq": -1},
        {"seq": True},
        {"seq": "3"},
        {"topic": None},
        {"context": "writing"},
        {"context": {"index": "x", "name": "writing"}},
        {"context": {"index": 1.7, "name": "writing"}},
        {"context": {"index": "2", "name": "writing"}},
        {"context": {"index": True, "name": "writing"}},
        {"context": {"name": "writing"}},
        {"context": {"index": 1, "name": 7}},
        {"context": {"index": 1, "name": True}},
        {"context": {"index": 1}},
        {"quality": "high"},
        {"quality": "0.5"},
        {"quality": float("nan")},
        {"quality": 1.5},
        {"quality": -2.0},
        {"quality": 1.0000001},
        {"quality": True},
        {"quality": False},
        {"quality": 10 ** 400},
        {"time_s": float("inf")},
        {"time_s": float("nan")},
        {"time_s": True},
        {"time_s": "1.5"},
        {"time_s": None},
        {"time_s": 10 ** 400},
    ])
    def test_invalid_wire_forms_rejected(self, mutation):
        doc = make_event().to_wire()
        doc.update(mutation)
        with pytest.raises(ConfigurationError):
            ContextEvent.from_wire(doc)

    def test_integer_time_is_read_as_float(self):
        doc = make_event().to_wire()
        doc["time_s"] = 3
        event = ContextEvent.from_wire(doc)
        assert event.time_s == 3.0
        assert type(event.time_s) is float

    @pytest.mark.parametrize("quality", [0, 0.0, 1, 1.0, 0.5])
    def test_quality_bounds_accepted(self, quality):
        doc = make_event().to_wire()
        doc["quality"] = quality
        event = ContextEvent.from_wire(doc)
        assert event.quality == float(quality)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            ContextEvent.from_wire("not an object")


#: Wildcard matching edge cases, shared by both buses via topic_matches.
WILDCARD_CASES = [
    ("context.pen", "context.pen", True),
    ("context.pen", "context.pen.raw", False),
    ("context.*", "context.pen", True),
    ("context.*", "context.", True),
    ("context.*", "context", False),
    ("context.*", "status.pen", False),
    ("*", "anything.at.all", True),
    ("*", "", True),          # bare "*" matches even the empty topic
    ("a*", "a", True),        # a prefix pattern matches its own stem
    ("a*", "ab", True),
    ("a*", "b", False),
]


class TestWildcardMatching:
    @pytest.mark.parametrize("pattern,topic,expected", WILDCARD_CASES)
    def test_topic_matches(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected

    @pytest.mark.parametrize("pattern,topic,expected", WILDCARD_CASES)
    def test_eventbus_agrees(self, pattern, topic, expected):
        bus = EventBus()
        received = []
        bus.subscribe(pattern, received.append)
        bus.publish(make_event(topic=topic))
        assert (len(received) == 1) is expected

    @pytest.mark.parametrize("pattern,topic,expected", WILDCARD_CASES)
    def test_distributed_bus_agrees(self, pattern, topic, expected,
                                    tmp_path):
        from repro.bus import BrokerCore, BusClient, BusConfig, InProcLink

        with BrokerCore(tmp_path,
                        BusConfig(n_partitions=1, fsync_every=1)) as core:
            client = BusClient(InProcLink(core))
            received = []
            client.subscribe(pattern, received.append)
            client.publish(make_event(topic=topic))
            assert (len(received) == 1) is expected


class TestEventBus:
    def test_exact_topic_delivery(self):
        bus = EventBus()
        received = []
        bus.subscribe("context.pen", received.append, name="camera")
        delivered = bus.publish(make_event())
        assert delivered == 1
        assert len(received) == 1

    def test_no_delivery_on_other_topic(self):
        bus = EventBus()
        received = []
        bus.subscribe("context.chair", received.append)
        assert bus.publish(make_event()) == 0
        assert received == []

    def test_wildcard_prefix(self):
        bus = EventBus()
        received = []
        bus.subscribe("context.*", received.append)
        bus.publish(make_event("context.pen"))
        bus.publish(make_event("context.chair"))
        bus.publish(make_event("status.pen"))
        assert len(received) == 2

    def test_multiple_subscribers(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe("context.pen", a.append)
        bus.subscribe("context.*", b.append)
        assert bus.publish(make_event()) == 2
        assert len(a) == 1 and len(b) == 1

    def test_failure_isolation(self):
        """A raising subscriber must not block other deliveries."""
        bus = EventBus()
        received = []

        def broken(event):
            raise RuntimeError("camera offline")

        bus.subscribe("context.pen", broken, name="broken-camera")
        bus.subscribe("context.pen", received.append, name="good-camera")
        delivered = bus.publish(make_event())
        assert delivered == 1
        assert len(received) == 1
        errors = bus.delivery_errors
        assert len(errors) == 1
        assert errors[0].subscriber == "broken-camera"
        assert "camera offline" in errors[0].error

    def test_unsubscribe(self):
        bus = EventBus()
        received = []
        bus.subscribe("context.pen", received.append)
        assert bus.unsubscribe(received.append) == 1
        bus.publish(make_event())
        assert received == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            EventBus().subscribe("", lambda e: None)

    def test_counters(self):
        bus = EventBus()
        bus.publish(make_event())
        bus.publish(make_event())
        assert bus.n_published == 2

    def test_subscriber_names(self):
        bus = EventBus()
        bus.subscribe("context.*", lambda e: None, name="camera")
        assert bus.subscriber_names() == {"context.*": ["camera"]}


class TestReentrantUnsubscribe:
    """Handlers may (un)subscribe during delivery without breakage."""

    def test_handler_unsubscribing_itself(self):
        bus = EventBus()
        received = []

        def once(event):
            received.append(event)
            bus.unsubscribe(once)

        bus.subscribe("context.pen", once, name="once")
        assert bus.publish(make_event()) == 1
        assert bus.publish(make_event()) == 0
        assert len(received) == 1
        assert bus.delivery_errors == []

    def test_earlier_handler_unsubscribes_later_one(self):
        """A subscription removed mid-event is skipped, not called."""
        bus = EventBus()
        late_calls = []

        def late(event):
            late_calls.append(event)

        def early(event):
            bus.unsubscribe(late)

        bus.subscribe("context.pen", early, name="early")
        bus.subscribe("context.pen", late, name="late")
        delivered = bus.publish(make_event())
        assert delivered == 1
        assert late_calls == []
        assert bus.delivery_errors == []

    def test_handler_subscribing_new_one_sees_next_event_only(self):
        bus = EventBus()
        new_calls = []

        def newcomer(event):
            new_calls.append(event)

        def recruiter(event):
            bus.unsubscribe(newcomer)  # idempotence guard
            bus.subscribe("context.pen", newcomer, name="new")

        bus.subscribe("context.pen", recruiter, name="recruiter")
        bus.publish(make_event())
        assert new_calls == []  # not the event that recruited it
        bus.publish(make_event())
        assert len(new_calls) == 1

    def test_mutual_unsubscribe_is_safe(self):
        """Two handlers each removing the other: exactly one survives."""
        bus = EventBus()
        calls = []

        def a(event):
            calls.append("a")
            bus.unsubscribe(b)

        def b(event):
            calls.append("b")
            bus.unsubscribe(a)

        bus.subscribe("context.pen", a, name="a")
        bus.subscribe("context.pen", b, name="b")
        delivered = bus.publish(make_event())
        assert delivered == 1
        assert calls == ["a"]
        assert bus.delivery_errors == []
        # The survivor still receives subsequent events.
        assert bus.publish(make_event()) == 1

    def test_mass_unsubscribe_mid_delivery(self):
        """One handler removing many later ones: all skipped, no calls.

        Pins the tombstone bookkeeping that keeps delivery linear in
        subscriber count — every removed entry must be skipped via the
        per-publish tombstone map, not by rescanning the subscriber
        list.
        """
        bus = EventBus()
        late_calls = []

        def make_late(i):
            def late(event):
                late_calls.append(i)
            return late

        laters = [make_late(i) for i in range(50)]

        def reaper(event):
            for handler in laters:
                bus.unsubscribe(handler)

        bus.subscribe("context.pen", reaper, name="reaper")
        for i, handler in enumerate(laters):
            bus.subscribe("context.pen", handler, name=f"late-{i}")
        assert bus.publish(make_event()) == 1  # only the reaper ran
        assert late_calls == []
        assert bus.delivery_errors == []
        assert bus.publish(make_event()) == 1


class TestRouteMemo:
    """``publish`` memoizes each topic's route; every change to the
    subscription list must be visible on the very next event."""

    def test_subscribe_after_routing_reaches_next_event(self):
        bus = EventBus()
        first, late = [], []
        bus.subscribe("context.pen", first.append, name="first")
        bus.publish(make_event())  # routes "context.pen"
        bus.subscribe("context.*", late.append, name="late")
        bus.publish(make_event())
        assert len(first) == 2
        assert len(late) == 1

    def test_unsubscribe_after_routing_takes_effect(self):
        bus = EventBus()
        received = []
        bus.subscribe("context.pen", received.append, name="gone")
        bus.publish(make_event())
        assert bus.unsubscribe(received.append) == 1
        assert bus.publish(make_event()) == 0
        assert len(received) == 1

    def test_unsubscribe_from_handler_takes_effect_on_next_event(self):
        bus = EventBus()
        calls = []

        def watcher(event):
            calls.append("watcher")

        def stopper(event):
            calls.append("stopper")
            bus.unsubscribe(watcher)

        bus.subscribe("context.pen", watcher, name="watcher")
        bus.subscribe("context.pen", stopper, name="stopper")
        bus.publish(make_event())  # watcher runs before it is removed
        bus.publish(make_event())
        assert calls == ["watcher", "stopper", "stopper"]

    def test_new_topic_gets_routed(self):
        bus = EventBus()
        wild, chair = [], []
        bus.subscribe("context.*", wild.append, name="wild")
        bus.subscribe("context.chair", chair.append, name="chair")
        bus.publish(make_event(topic="context.pen"))
        bus.publish(make_event(topic="context.chair"))
        bus.publish(make_event(topic="status.pen"))
        assert [e.topic for e in wild] == ["context.pen", "context.chair"]
        assert [e.topic for e in chair] == ["context.chair"]

    def test_delivery_order_is_subscription_order(self):
        bus = EventBus()
        order = []
        patterns = ["context.pen", "*", "context.*", "status.*",
                    "context.pen", "c*"]
        for i, pattern in enumerate(patterns):
            bus.subscribe(pattern, lambda e, i=i: order.append(i),
                          name=f"s{i}")
        for _ in range(2):  # the memoized route keeps the order
            order.clear()
            bus.publish(make_event(topic="context.pen"))
            assert order == [0, 1, 2, 4, 5]

    def test_route_memo_is_bounded(self):
        from repro.appliances.bus import MAX_ROUTES

        bus = EventBus()
        received = []
        bus.subscribe("*", received.append, name="all")
        for i in range(MAX_ROUTES + 10):
            bus.publish(make_event(topic=f"topic.{i}"))
        assert len(received) == MAX_ROUTES + 10
        assert len(bus._routes) <= MAX_ROUTES


class TestBoundedDeliveryErrors:
    def test_ring_evicts_oldest_and_counts_drops(self):
        bus = EventBus(max_delivery_errors=2)

        def broken(event):
            raise RuntimeError(f"boom {event.seq}")

        bus.subscribe("context.pen", broken, name="flapping")
        events = [make_event() for _ in range(5)]
        for event in events:
            bus.publish(event)
        errors = bus.delivery_errors
        assert len(errors) == 2
        assert errors[0].event_id == events[3].event_id
        assert errors[1].event_id == events[4].event_id
        assert bus.n_delivery_errors_dropped == 3

    def test_drop_count_in_diagnostics(self):
        bus = EventBus(max_delivery_errors=1)

        def broken(event):
            raise RuntimeError("boom")

        bus.subscribe("context.pen", broken, name="flapping")
        bus.publish(make_event())
        bus.publish(make_event())
        diag = bus.diagnostics()
        assert diag["n_delivery_errors"] == 1
        assert diag["n_delivery_errors_dropped"] == 1
        assert diag["n_published"] == 2
        assert diag["subscribers"] == {"context.pen": ["flapping"]}

    def test_bound_validated(self):
        with pytest.raises(ConfigurationError):
            EventBus(max_delivery_errors=0)
