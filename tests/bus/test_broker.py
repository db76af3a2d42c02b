"""Tests for repro.bus.broker — partitions, credits, acks, redelivery."""

import hashlib
import json

import pytest

from repro.appliances.messages import CheckedWire, ContextEvent
from repro.bus.broker import BrokerCore, BusConfig, partition_for
from repro.exceptions import BusError, ConfigurationError
from repro.types import ContextClass

CTX = ContextClass(1, "writing")
TOPIC = "context.pen"


def wire(seq, source="pen", topic=TOPIC, quality=0.9):
    return ContextEvent.create(source=source, topic=topic, context=CTX,
                               quality=quality, time_s=float(seq),
                               seq=seq).to_wire()


def one_partition(**overrides):
    defaults = dict(n_partitions=1, fsync_every=1)
    defaults.update(overrides)
    return BusConfig(**defaults)


class Collector:
    """A send callback recording delivered frames."""

    def __init__(self):
        self.frames = []

    def __call__(self, frame):
        self.frames.append(frame)

    @property
    def indices(self):
        return [f["index"] for f in self.frames]


class TestBusConfig:
    @pytest.mark.parametrize("field", ["n_partitions", "credits",
                                       "redelivery_ticks"])
    def test_bounds(self, field):
        with pytest.raises(ConfigurationError):
            BusConfig(**{field: 0})


class TestPartitionFor:
    def test_stable_and_in_range(self):
        for key in ("awarepen", "chair", "display", ""):
            p = partition_for(key, 4)
            assert 0 <= p < 4
            assert partition_for(key, 4) == p

    def test_single_partition(self):
        assert partition_for("anything", 1) == 0

    def test_spreads_sources(self):
        keys = [f"appliance-{i}" for i in range(64)]
        assert len({partition_for(k, 8) for k in keys}) > 1

    @pytest.mark.parametrize("n_partitions", [1, 2, 8])
    def test_memo_equals_blake2b_formula(self, n_partitions):
        for i in range(1000):
            key = f"appliance-{i}"
            digest = hashlib.blake2b(key.encode("utf-8"),
                                     digest_size=8).digest()
            expected = int.from_bytes(digest, "big") % n_partitions
            assert partition_for(key, n_partitions) == expected
            assert partition_for(key, n_partitions) == expected  # cached

    def test_memo_is_bounded(self):
        maxsize = partition_for.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 500):
            partition_for(f"bounded-{i}", 2)
        assert partition_for.cache_info().currsize <= maxsize


class TestSubscribePublish:
    def test_tail_subscriber_gets_only_new_events(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            core.publish(wire(1))
            sink = Collector()
            sid, starts = core.subscribe(TOPIC, sink)
            assert starts == {f"{TOPIC}/0": 1}
            assert sink.frames == []
            core.publish(wire(2))
            assert sink.indices == [1]
            assert sink.frames[0]["sid"] == sid
            assert sink.frames[0]["redelivery"] is False

    def test_from_start_replays_log(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            for seq in (1, 2, 3):
                core.publish(wire(seq))
            sink = Collector()
            _sid, starts = core.subscribe(TOPIC, sink, from_start=True)
            assert starts == {f"{TOPIC}/0": 0}
            assert sink.indices == [0, 1, 2]
            assert [f["event"]["seq"] for f in sink.frames] == [1, 2, 3]

    def test_partition_born_after_subscribe_starts_at_zero(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            _sid, starts = core.subscribe("context.*", sink)
            assert starts == {}  # no partitions exist yet
            core.publish(wire(1))
            assert sink.indices == [0]

    def test_wildcard_routing(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            core.subscribe("context.*", sink)
            core.publish(wire(1, topic="context.pen"))
            core.publish(wire(1, source="chair", topic="context.chair"))
            core.publish(wire(1, source="x", topic="status.pen"))
            assert len(sink.frames) == 2

    def test_publish_returns_partition_and_offset(self, tmp_path):
        with BrokerCore(tmp_path, BusConfig(n_partitions=4)) as core:
            partition, offset = core.publish(wire(1))
            assert partition == partition_for("pen", 4)
            assert offset == 0
            assert core.publish(wire(2))[1] == 1

    def test_explicit_partition_key(self, tmp_path):
        with BrokerCore(tmp_path, BusConfig(n_partitions=8)) as core:
            partition, _ = core.publish(wire(1), key="room-3")
            assert partition == partition_for("room-3", 8)

    def test_malformed_publish_rejected_and_not_logged(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            with pytest.raises(BusError, match="rejected publish"):
                core.publish({"source": "pen"})
            assert core.log.next_offset == 0
            assert core.n_published == 0

    @pytest.mark.parametrize("field,value", [
        ("quality", 1.5), ("quality", -2.0), ("quality", True),
        ("context", {"index": 1.7, "name": "writing"}),
        ("context", {"index": "2", "name": "writing"}),
    ])
    def test_out_of_contract_publish_rejected_and_not_logged(
            self, tmp_path, field, value):
        """q outside [0, 1] ∪ {ε} never reaches the log or a consumer."""
        doc = wire(1)
        doc[field] = value
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            core.subscribe(TOPIC, sink)
            with pytest.raises(BusError, match="rejected publish"):
                core.publish(doc)
            assert core.log.next_offset == 0
            assert core.n_published == 0
            assert sink.frames == []
        assert all(p.stat().st_size == 0 for p in tmp_path.glob("*.jsonl"))

    def test_frames_carry_the_validated_event_json_safely(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            core.subscribe(TOPIC, sink)
            core.publish(wire(1))
            [frame] = sink.frames
            carried = frame["event"]
            assert isinstance(carried, CheckedWire)
            assert carried.event == ContextEvent.from_wire(wire(1))
            assert carried == wire(1)
            assert json.loads(json.dumps(frame))["event"] == wire(1)

    def test_empty_pattern_rejected(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            with pytest.raises(ConfigurationError):
                core.subscribe("", Collector())

    def test_unsubscribe_stops_delivery(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            sid, _ = core.subscribe(TOPIC, sink)
            assert core.unsubscribe(sid) is True
            assert core.unsubscribe(sid) is False
            core.publish(wire(1))
            assert sink.frames == []


class TestCreditsAndAcks:
    def test_credit_window_stalls_delivery(self, tmp_path):
        config = one_partition(credits=2)
        with BrokerCore(tmp_path, config) as core:
            sink = Collector()
            sid, _ = core.subscribe(TOPIC, sink)
            for seq in range(1, 6):
                core.publish(wire(seq))
            assert sink.indices == [0, 1]  # window full at 2 unacked

            core.ack(sid, TOPIC, 0, 0)
            assert sink.indices == [0, 1, 2]

            core.ack(sid, TOPIC, 0, 2)  # cumulative: clears 1 and 2
            assert sink.indices == [0, 1, 2, 3, 4]
            assert core.n_acked == 3

    def test_ack_unknown_partition_raises(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sid, _ = core.subscribe(TOPIC, Collector())
            with pytest.raises(BusError, match="unknown partition"):
                core.ack(sid, TOPIC, 0, 0)

    def test_ack_after_unsubscribe_is_noop(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sid, _ = core.subscribe(TOPIC, Collector())
            core.unsubscribe(sid)
            core.ack(sid, TOPIC, 0, 0)  # silently ignored


class TestRedelivery:
    def test_tick_resends_overdue_inflight(self, tmp_path):
        config = one_partition(redelivery_ticks=2)
        with BrokerCore(tmp_path, config) as core:
            sink = Collector()
            core.subscribe(TOPIC, sink)
            core.publish(wire(1))
            assert core.tick() == 0  # age 1 < redelivery_ticks
            assert core.tick() == 1  # overdue: re-sent
            assert sink.indices == [0, 0]
            assert sink.frames[1]["redelivery"] is True
            assert core.n_redelivered == 1

    def test_acked_frames_are_not_resent(self, tmp_path):
        config = one_partition(redelivery_ticks=1)
        with BrokerCore(tmp_path, config) as core:
            sink = Collector()
            sid, _ = core.subscribe(TOPIC, sink)
            core.publish(wire(1))
            core.ack(sid, TOPIC, 0, 0)
            assert core.tick() == 0
            assert sink.indices == [0]


class TestKillRevive:
    def test_kill_drops_inflight_and_halts_delivery(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            core.subscribe(TOPIC, sink)
            core.publish(wire(1))
            core.publish(wire(2))
            assert core.kill_partition(0) == 2
            assert core.n_lost_inflight == 2
            core.publish(wire(3))  # still logged, not delivered
            assert core.log.next_offset == 3
            assert len(sink.frames) == 2
            assert core.tick() == 0  # killed partitions do not retry

    def test_revive_redelivers_everything_unacked(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            sink = Collector()
            sid, _ = core.subscribe(TOPIC, sink)
            core.publish(wire(1))
            core.publish(wire(2))
            core.ack(sid, TOPIC, 0, 0)
            core.kill_partition(0)
            core.publish(wire(3))
            core.revive_partition(0)
            # Index 0 was acked; 1 was lost inflight, 2 arrived mid-kill.
            assert sink.indices == [0, 1, 1, 2]
            assert sink.frames[2]["redelivery"] is True

    def test_partition_bounds_checked(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            with pytest.raises(ConfigurationError):
                core.kill_partition(1)
            with pytest.raises(ConfigurationError):
                core.revive_partition(-1)


class TestFailureIsolation:
    def test_raising_send_drops_subscription(self, tmp_path):
        with BrokerCore(tmp_path, one_partition()) as core:
            def broken(frame):
                raise OSError("connection reset")

            sink = Collector()
            core.subscribe(TOPIC, broken, name="dead")
            core.subscribe(TOPIC, sink, name="alive")
            core.publish(wire(1))
            assert core.n_send_errors == 1
            assert sink.indices == [0]
            assert core.stats()["n_subscriptions"] == 1


class TestStats:
    def test_snapshot_shape(self, tmp_path):
        with BrokerCore(tmp_path, one_partition(credits=8)) as core:
            sink = Collector()
            core.subscribe(TOPIC, sink, name="camera")
            core.publish(wire(1))
            core.publish(wire(2))
            stats = core.stats()
        assert stats["n_published"] == 2
        assert stats["n_delivered"] == 2
        assert stats["next_offset"] == 2
        assert stats["killed_partitions"] == []
        assert stats["partitions"] == {f"{TOPIC}/0": 2}
        [sub] = stats["subscriptions"].values()
        assert sub["name"] == "camera"
        assert sub["inflight"] == 2
        assert sub["lag"] == 2
