"""Transports and load generation: stdio, TCP socket, open-loop driver."""

import asyncio
import io
import json
import logging
import socket
import struct

import numpy as np
import pytest

from repro.serving import (InferenceService, LoadgenConfig, ServeRequest,
                           ServeResponse, ServingConfig, make_workload,
                           read_requests, run_loadgen, serve_socket,
                           serve_stdio, summarize)
from repro.serving import framing
from repro.serving.loadgen import _drive_socket
from repro.serving.transport import serve_connections

from .conftest import HeldQueue, make_requests


class TestStdio:
    def test_jsonl_round_trip(self, registry, cue_pool):
        requests = make_requests(cue_pool, 10)
        stream_in = io.StringIO(
            "\n".join(r.to_json() for r in requests) + "\n\n")
        stream_out = io.StringIO()
        n = serve_stdio(registry, stream_in, stream_out)
        assert n == 10
        lines = [l for l in stream_out.getvalue().splitlines() if l]
        responses = [ServeResponse.from_json(line) for line in lines]
        assert [r.request_id for r in responses] == list(range(10))
        assert all(r.package_version == 1 for r in responses)

    def test_read_requests_skips_blank_lines(self, cue_pool):
        requests = make_requests(cue_pool, 3)
        text = "\n\n".join(r.to_json() for r in requests)
        parsed = read_requests(io.StringIO(text))
        assert len(parsed) == 3
        assert np.array_equal(parsed[0].cues, requests[0].cues)


class TestWorkload:
    def test_workload_is_seeded(self, cue_pool):
        config = LoadgenConfig(n_requests=20, rate_hz=1000.0, seed=5)
        a_req, a_arr = make_workload(config, cue_pool)
        b_req, b_arr = make_workload(config, cue_pool)
        assert np.array_equal(a_arr, b_arr)
        for x, y in zip(a_req, b_req):
            assert np.array_equal(x.cues, y.cues)
        c_req, c_arr = make_workload(
            LoadgenConfig(n_requests=20, rate_hz=1000.0, seed=6), cue_pool)
        assert not np.array_equal(a_arr, c_arr)

    def test_arrivals_are_monotone(self, cue_pool):
        _, arrivals = make_workload(LoadgenConfig(n_requests=50), cue_pool)
        assert np.all(np.diff(arrivals) >= 0)

    def test_with_class_index_needs_pool(self, cue_pool):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError, match="class_pool"):
            make_workload(LoadgenConfig(n_requests=2,
                                        with_class_index=True), cue_pool)

    def test_summarize_percentiles(self, cue_pool):
        from repro.core.degradation import GateAction
        responses = [
            ServeResponse(request_id=k, class_index=0, class_name=None,
                          quality=0.9, action=GateAction.ACCEPT,
                          degraded=False, shed=False, package_version=1,
                          batch_size=1, latency_s=0.001 * (k + 1))
            for k in range(10)
        ]
        report = summarize(LoadgenConfig(n_requests=10), responses,
                           n_sent=10, wall_s=0.5)
        assert report.n_unanswered == 0
        assert report.latency_p50_s == pytest.approx(
            np.percentile([0.001 * (k + 1) for k in range(10)], 50))
        assert report.throughput_rps == pytest.approx(20.0)
        assert report.versions_seen == (1,)
        text = report.to_text()
        assert "p50/p95/p99" in text
        assert report.as_dict()["n_unanswered"] == 0


class TestRunLoadgen:
    def test_in_process_run_answers_everything(self, registry, cue_pool):
        config = LoadgenConfig(n_requests=50, rate_hz=5000.0, seed=9)
        report = run_loadgen(
            lambda: InferenceService(registry,
                                     config=ServingConfig(max_batch=16)),
            config, cue_pool)
        assert report.n_sent == 50
        assert report.n_unanswered == 0
        assert report.versions_seen == (1,)
        assert report.wall_s > 0
        assert np.isfinite(report.latency_p95_s)


class TestSocket:
    def test_socket_round_trip_with_drain(self, registry, cue_pool):
        """End-to-end over TCP: serve, drive, retire, zero unanswered."""
        config = LoadgenConfig(n_requests=40, rate_hz=4000.0, seed=4)
        requests, arrivals = make_workload(config, cue_pool)
        announcements = []

        async def scenario():
            ready = asyncio.Event()
            server_task = asyncio.get_running_loop().create_task(
                serve_socket(registry, "127.0.0.1", 0,
                             config=ServingConfig(max_batch=8),
                             ready=ready, max_requests=len(requests),
                             announce=announcements.append))
            await asyncio.wait_for(ready.wait(), timeout=5)
            port = int(announcements[0].split()[2].rsplit(":", 1)[1])
            responses, wall_s = await _drive_socket(
                "127.0.0.1", port, requests, arrivals, timeout_s=10)
            await asyncio.wait_for(server_task, timeout=10)
            return responses, wall_s

        responses, wall_s = asyncio.run(scenario())
        report = summarize(config, responses, n_sent=len(requests),
                           wall_s=wall_s)
        assert report.n_unanswered == 0
        assert report.n_responses == 40
        assert {r.request_id for r in responses} == set(range(40))
        assert any(a.startswith("serving on") for a in announcements)
        assert any(a.startswith("drained:") for a in announcements)
        drained = [a for a in announcements if a.startswith("drained:")][0]
        assert "0 in flight" in drained

    def test_bad_request_line_gets_error_reply(self, registry, cue_pool):
        async def scenario():
            ready = asyncio.Event()
            stop = asyncio.Event()
            announcements = []
            server_task = asyncio.get_running_loop().create_task(
                serve_socket(registry, "127.0.0.1", 0, ready=ready,
                             stop=stop, announce=announcements.append))
            await asyncio.wait_for(ready.wait(), timeout=5)
            port = int(announcements[0].split()[2].rsplit(":", 1)[1])
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b'{"nonsense": true}\n')
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            writer.close()
            await writer.wait_closed()
            stop.set()
            await asyncio.wait_for(server_task, timeout=10)
            return line.decode()

        line = asyncio.run(scenario())
        assert "bad request" in line


async def _start_endpoint(service, stop=None, **kwargs):
    """Run ``serve_connections`` on port 0; returns (task, stop, port)."""
    ready = asyncio.Event()
    stop = stop if stop is not None else asyncio.Event()
    announcements = []
    task = asyncio.get_running_loop().create_task(serve_connections(
        service, "127.0.0.1", 0, ready=ready, stop=stop,
        announce=announcements.append, **kwargs))
    await asyncio.wait_for(ready.wait(), timeout=5)
    port = int(announcements[0].split()[2].rsplit(":", 1)[1])
    return task, stop, port


async def _round_trip(port, frames):
    """Send *frames* on a fresh connection; replies until EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"".join(json.dumps(f).encode() + b"\n" for f in frames))
    writer.write_eof()
    replies = []
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=10)
        if not line:
            break
        replies.append(json.loads(line))
    writer.close()
    await writer.wait_closed()
    return replies


async def _until(predicate, timeout_s=10.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


class TestSocketLifecycle:
    def test_client_reset_is_a_disconnect(self, registry, cue_pool,
                                          caplog):
        """A client that RSTs mid-stream raises nothing out of the
        connection callback, its pending replies are never written to
        the dead socket, and the listener keeps serving."""
        payload = "".join(r.to_json() + "\n" for r in
                          make_requests(cue_pool, 64, seed=5)).encode()
        fresh = ServeRequest(request_id=99, cues=cue_pool[0])

        async def scenario():
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: seen.append(context))
            service = InferenceService(registry,
                                       config=ServingConfig(max_batch=4))
            task, stop, port = await _start_endpoint(service)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(payload)
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=10)
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0))
            writer.transport.abort()   # RST, replies still pending
            await _until(lambda: service.n_submitted > 0
                         and service.in_flight == 0)
            replies = await _round_trip(port, [json.loads(fresh.to_json())])
            stop.set()
            await asyncio.wait_for(task, timeout=10)
            return seen, replies

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            seen, replies = asyncio.run(scenario())
        assert seen == []
        assert [r["id"] for r in replies] == [99]
        assert "socket.send() raised exception" not in caplog.text

    def test_stop_answers_admitted_requests_then_closes(self, registry,
                                                       cue_pool):
        """Stopping the server answers every admitted request of a
        still-connected client, then sends it EOF."""
        requests = make_requests(cue_pool, 8, seed=6)
        payload = "".join(r.to_json() + "\n" for r in requests).encode()

        async def scenario():
            # The worker is held off the queue, so every request is
            # still in flight when the stop arrives.
            service = InferenceService(registry,
                                       config=ServingConfig(max_batch=64))
            service._queue = held = HeldQueue(maxsize=256)
            task, stop, port = await _start_endpoint(service)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(payload)
            await writer.drain()
            await _until(lambda: service.n_submitted == len(requests))
            assert service.in_flight == len(requests)
            stop.set()
            await asyncio.sleep(0)
            held.release.set()
            lines = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                if not line:
                    break
                lines.append(json.loads(line))
            await asyncio.wait_for(task, timeout=10)
            writer.close()
            await writer.wait_closed()
            return lines

        lines = asyncio.run(scenario())
        assert sorted(r["id"] for r in lines) == list(range(8))
        assert all("error" not in r for r in lines)

    def test_stop_drops_a_peer_that_stopped_reading(self, monkeypatch):
        """A stop cannot hang on a client that no longer reads: after
        the drain timeout its connection is dropped."""
        monkeypatch.setattr(framing, "DRAIN_TIMEOUT_S", 0.2)

        async def scenario():
            handled = asyncio.Event()

            def open_connection(conn):
                async def handle(_text):
                    # More than the socket buffers hold: the send blocks.
                    conn.spawn(conn.send("x" * (8 << 20)))
                    handled.set()
                return handle

            loop = asyncio.get_running_loop()
            ready = asyncio.Event()
            stop = asyncio.Event()
            bound = []
            task = loop.create_task(framing.serve_jsonl(
                open_connection, "127.0.0.1", 0, stop, "test",
                announce=lambda _msg: None, ready=ready,
                on_bound=lambda _host, port: bound.append(port)))
            await asyncio.wait_for(ready.wait(), timeout=5)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            try:
                await loop.sock_connect(sock, ("127.0.0.1", bound[0]))
                await loop.sock_sendall(sock, b'{"go": 1}\n')
                await asyncio.wait_for(handled.wait(), timeout=5)
                stop.set()
                await asyncio.wait_for(task, timeout=10)
            finally:
                sock.close()

        asyncio.run(scenario())


class TestControlOps:
    """``ctl`` frames are not part of the serving protocol."""

    def test_public_endpoint_rejects_control_frames(self, registry):
        async def scenario():
            task, stop, port = await _start_endpoint(
                InferenceService(registry))
            replies = await _round_trip(port, [{"ctl": "drain"}])
            stop.set()
            await asyncio.wait_for(task, timeout=10)
            return replies

        replies = asyncio.run(scenario())
        assert len(replies) == 1
        assert replies[0]["error"].startswith("bad request")
