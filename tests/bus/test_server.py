"""Tests for repro.bus.server — the JSONL-over-TCP broker endpoint."""

import asyncio
import json
import socket
import struct
import time

import pytest

from repro.appliances.messages import ContextEvent
from repro.bus.broker import BrokerCore, BusConfig, partition_for
from repro.bus.client import BusClient, SocketLink
from repro.bus.server import BrokerServer, serve_bus
from repro.exceptions import BusError
from repro.types import ContextClass

CTX = ContextClass(1, "writing")
TOPIC = "context.pen"


def event(seq, source="pen", quality=0.9):
    return ContextEvent.create(source=source, topic=TOPIC, context=CTX,
                               quality=quality, time_s=float(seq), seq=seq)


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def server(tmp_path):
    config = BusConfig(n_partitions=2, fsync_every=1)
    with BrokerServer(tmp_path / "log", config=config,
                      tick_interval_s=0.02) as broker:
        yield broker


def link_to(server):
    host, port = server._bound
    return SocketLink(host, port, timeout_s=10.0)


class TestSocketLink:
    def test_publish_and_stats(self, server):
        link = link_to(server)
        try:
            partition, offset = link.publish(event(1).to_wire())
            assert partition == partition_for("pen", 2)
            assert offset == 0
            assert link.publish(event(2).to_wire()) == (partition, 1)
            stats = link.stats()
            assert stats["n_published"] == 2
            assert stats["next_offset"] == 2
        finally:
            link.close()

    def test_malformed_publish_rejected(self, server):
        link = link_to(server)
        try:
            with pytest.raises(BusError, match="rejected"):
                link.publish({"source": "pen"})
        finally:
            link.close()

    def test_subscribe_receives_pushed_frames(self, server):
        consumer = link_to(server)
        publisher = link_to(server)
        try:
            frames = []
            _sid, starts = consumer.subscribe(TOPIC, "camera", False,
                                              frames.append)
            assert starts == {}
            publisher.publish(event(1).to_wire())
            assert wait_for(lambda: len(frames) >= 1)
            assert frames[0]["event"]["seq"] == 1
        finally:
            consumer.close()
            publisher.close()

    def test_unsubscribe_stops_frames(self, server):
        consumer = link_to(server)
        publisher = link_to(server)
        try:
            frames = []
            sid, _ = consumer.subscribe(TOPIC, "camera", False,
                                        frames.append)
            consumer.unsubscribe(sid)
            publisher.publish(event(1).to_wire())
            time.sleep(0.1)
            assert frames == []
        finally:
            consumer.close()
            publisher.close()


class TestBusClientOverTcp:
    def test_end_to_end_delivery_with_acks(self, server):
        consumer_link = link_to(server)
        publisher_link = link_to(server)
        client = BusClient(consumer_link, from_start=True)
        try:
            seen = []
            client.subscribe(TOPIC, seen.append, name="camera")
            for seq in range(1, 11):
                publisher_link.publish(event(seq).to_wire())
            assert wait_for(lambda: len(seen) == 10)
            assert [e.seq for e in seen] == list(range(1, 11))
            # Acks are asynchronous; the broker converges to all-acked.
            assert wait_for(
                lambda: publisher_link.stats()["n_acked"] == 10)
        finally:
            client.close()
            publisher_link.close()

    def test_kill_revive_redelivers_over_tcp(self, server):
        consumer_link = link_to(server)
        publisher_link = link_to(server)
        client = BusClient(consumer_link, from_start=True)
        try:
            seen = []
            client.subscribe(TOPIC, seen.append, name="camera")
            client.hold_acks()
            target = partition_for("pen", 2)
            for seq in range(1, 6):
                publisher_link.publish(event(seq).to_wire())
            wait_for(lambda: len(seen) == 5)
            lost = publisher_link.kill_partition(target)
            assert lost >= 0
            for seq in range(6, 9):  # logged while killed
                publisher_link.publish(event(seq).to_wire())
            client.release_acks()
            publisher_link.revive_partition(target)
            assert wait_for(
                lambda: {e.seq for e in seen} == set(range(1, 9)))
            assert [e.seq for e in seen][:8] == list(range(1, 9))
        finally:
            client.close()
            publisher_link.close()


class CorruptingLink:
    """A socket link whose delivered frames carry a negative seq.

    Corrupts each frame after :class:`SocketLink` has read it off TCP
    and before the client sees it, recording what the client raised.
    """

    def __init__(self, link):
        self.link = link
        self.event_types = []
        self.errors = []

    def subscribe(self, pattern, name, from_start, on_frame):
        def corrupt(frame):
            self.event_types.append(type(frame["event"]))
            frame["event"]["seq"] = -1
            try:
                on_frame(frame)
            except BusError as exc:
                self.errors.append(exc)
        return self.link.subscribe(pattern, name, from_start, corrupt)

    def __getattr__(self, name):
        return getattr(self.link, name)


class TestDeliveryValidation:
    def test_malformed_frame_off_tcp_raises(self, server):
        """Frames read off a socket are plain dicts and validated again."""
        link = CorruptingLink(link_to(server))
        publisher = link_to(server)
        client = BusClient(link)
        try:
            seen = []
            client.subscribe(TOPIC, seen.append, name="camera")
            publisher.publish(event(1).to_wire())
            assert wait_for(lambda: link.errors)
            assert link.event_types[0] is dict
            assert "malformed delivery frame" in str(link.errors[0])
            assert seen == []
        finally:
            client.close()
            publisher.close()


    def test_rejected_frame_is_dropped_and_the_link_keeps_reading(
            self, server):
        """A delivery its handler rejects (seq -1) is dropped and counted;
        the reader thread survives, so the next good frame is delivered
        and control replies still arrive."""
        link = link_to(server)
        publisher = link_to(server)
        client = BusClient(FirstFrameCorrupted(link))
        try:
            seen = []
            client.subscribe(TOPIC, seen.append, name="camera")
            publisher.publish(event(1).to_wire())
            assert wait_for(lambda: link.frames_dropped == 1)
            publisher.publish(event(2).to_wire())
            assert wait_for(lambda: event(2) in seen)
            assert link.stats()["link_frames_dropped"] == 1
        finally:
            client.close()
            publisher.close()


class FirstFrameCorrupted:
    """A link whose first delivered frame carries seq -1; the client's
    rejection propagates into the link's reader, as it would for a
    malformed frame off the wire."""

    def __init__(self, link):
        self.link = link
        self.corrupted = False

    def subscribe(self, pattern, name, from_start, on_frame):
        def corrupt(frame):
            if not self.corrupted:
                self.corrupted = True
                frame["event"]["seq"] = -1
            on_frame(frame)
        return self.link.subscribe(pattern, name, from_start, corrupt)

    def __getattr__(self, name):
        return getattr(self.link, name)


class TestServerLifecycle:
    def test_stop_is_idempotent(self, tmp_path):
        broker = BrokerServer(tmp_path / "log")
        broker.start()
        broker.stop()
        broker.stop()

    def test_counters_survive_stop(self, tmp_path):
        broker = BrokerServer(tmp_path / "log",
                              config=BusConfig(fsync_every=1))
        broker.start()
        link = link_to(broker)
        link.publish(event(1).to_wire())
        link.close()
        broker.stop()
        assert broker.core.n_published == 1
        assert broker.core.log.next_offset == 1


def exchange(server, payload):
    """Send raw bytes, half-close, and collect the replies until EOF."""
    with socket.create_connection(server._bound, timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return [json.loads(line) for line in data.splitlines() if line]


class TestFraming:
    """The hardened framing holds on the broker endpoint too."""

    def test_oversized_frame_rejected_and_server_survives(self, server):
        oversized = b'{"bus": "pub", "event": "' + b"x" * 200_000 + b'"}\n'
        replies = exchange(server, oversized)
        assert len(replies) == 1
        assert "line limit" in replies[0]["error"]
        # The listener still accepts fresh connections.
        replies = exchange(server, b'{"bus": "stats", "rid": 1}\n')
        assert [r["bus"] for r in replies] == ["stats_ok"]

    def test_bad_utf8_then_valid_frame(self, server):
        replies = exchange(server,
                           b'\xff\xfe garbage\n{"bus": "stats", "rid": 7}\n')
        assert len(replies) == 2
        assert "valid UTF-8" in replies[0]["error"]
        assert replies[1]["bus"] == "stats_ok"
        assert replies[1]["rid"] == 7

    def test_non_json_and_non_object_frames(self, server):
        replies = exchange(server, b'not json\n[1, 2]\n"text"\n\n')
        assert [r["error"] for r in replies] == [
            "bad request: frame is not valid JSON",
            "bad request: frame must be an object",
            "bad request: frame must be an object"]


async def _start_broker(core):
    """Run ``serve_bus`` on port 0 in this loop; (task, stop, port)."""
    ready = asyncio.Event()
    stop = asyncio.Event()
    bound = []
    task = asyncio.get_running_loop().create_task(serve_bus(
        core, "127.0.0.1", 0, ready=ready, stop=stop,
        tick_interval_s=0.02, announce=lambda _msg: None,
        on_bound=lambda _host, port: bound.append(port)))
    await asyncio.wait_for(ready.wait(), timeout=5)
    return task, stop, bound[0]


async def _request(reader, writer, doc):
    writer.write(json.dumps(doc).encode() + b"\n")
    await writer.drain()
    while True:
        reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                  timeout=10))
        if reply.get("rid") == doc.get("rid"):
            return reply


class TestConnectionLifecycle:
    def test_client_reset_drops_subscriptions(self, tmp_path):
        """A subscriber that RSTs raises nothing out of the connection
        callback, loses its subscription, and the broker keeps
        answering."""

        async def scenario():
            seen = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: seen.append(context))
            core = BrokerCore(tmp_path / "log",
                              BusConfig(n_partitions=2, fsync_every=1))
            task, stop, port = await _start_broker(core)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            await _request(reader, writer, {
                "bus": "sub", "pattern": TOPIC, "name": "camera",
                "from_start": True, "rid": 1})
            for seq in range(1, 6):
                await _request(reader, writer, {
                    "bus": "pub", "event": event(seq).to_wire(),
                    "rid": 1 + seq})
            assert core.stats()["n_subscriptions"] == 1
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0))
            writer.transport.abort()   # RST with deliveries unacked
            deadline = loop.time() + 10
            while core.stats()["n_subscriptions"]:
                assert loop.time() < deadline
                await asyncio.sleep(0.005)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            reply = await _request(reader, writer,
                                   {"bus": "stats", "rid": 42})
            writer.close()
            await writer.wait_closed()
            stop.set()
            await asyncio.wait_for(task, timeout=10)
            core.close()
            return seen, reply

        seen, reply = asyncio.run(scenario())
        assert seen == []
        assert reply["bus"] == "stats_ok"
        assert reply["stats"]["n_published"] == 5

    def test_stop_closes_open_connections(self, tmp_path):
        """Stopping the broker sends EOF to a still-connected client."""

        async def scenario():
            core = BrokerCore(tmp_path / "log")
            task, stop, port = await _start_broker(core)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            reply = await _request(reader, writer,
                                   {"bus": "stats", "rid": 1})
            stop.set()
            tail = await asyncio.wait_for(reader.readline(), timeout=5)
            await asyncio.wait_for(task, timeout=10)
            writer.close()
            await writer.wait_closed()
            core.close()
            return reply, tail

        reply, tail = asyncio.run(scenario())
        assert reply["bus"] == "stats_ok"
        assert tail == b""
